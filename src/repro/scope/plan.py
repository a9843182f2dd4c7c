"""Physical plan IR and the recursive operator signatures of §5.1.

A plan is a tree of :class:`PlanNode`: a logical template tree, or the
physical plan :func:`expand_physical` makes of it. A node carries only
template-level identity (physical/logical operator, which normalized
inputs feed it) and, once a job run is simulated on it, the partition
count and the actual latency of each operator. A run's statistics live
in ``simulator.RowStats``, one value per row of compiled plans
(:class:`PlanTable`, :class:`CompiledPlans`), never on a node.

Signatures follow §5.1: a 64-bit hash "recursively computed in a
bottom-up fashion by combining (i) the signatures of children operators,
(ii) hash of current operator's name, and (iii) hash of operator's
logical properties". Three additional signatures key the other model
families (§4.2). :meth:`PlanTable.identity` computes all of them, with
the CL/D context features, for every row of compiled plans in that one
bottom-up pass.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# Physical operator catalogue. ``blocking`` drives the pipeline-context
# effect in the simulator (a hash op over a sort is slower than over a
# filter, §3.1); ``logical`` is the logical operator the physical one
# implements (used by the subgraphApprox relaxation).
PHYSICAL_OPS: dict[str, dict] = {
    "Extract": {"logical": "Scan", "blocking": False},
    "Filter": {"logical": "Filter", "blocking": False},
    "Project": {"logical": "Project", "blocking": False},
    "ProcessUDF": {"logical": "Process", "blocking": False},
    "HashJoin": {"logical": "Join", "blocking": False},
    "MergeJoin": {"logical": "Join", "blocking": False},
    "HashAggregate": {"logical": "Aggregate", "blocking": True},
    "StreamAggregate": {"logical": "Aggregate", "blocking": False},
    "LocalAggregate": {"logical": "LocalAggregate", "blocking": False},
    "Sort": {"logical": "Sort", "blocking": True},
    "Exchange": {"logical": "Exchange", "blocking": True},
    "Output": {"logical": "Output", "blocking": False},
}

# Operators that start a new stage below them: Exchange repartitions, so
# everything above it (until the next Exchange) runs on its partition
# count (§2.1).
PARTITIONING_OPS = frozenset({"Extract", "Exchange"})
JOIN_OPS = ("HashJoin", "MergeJoin")
# Logical operators whose estimated output is their estimated input: they
# make no selectivity estimate, so draw no ``"est-jit"`` (§3.1).
CARD_PRESERVING = ("Exchange", "Sort", "Project", "Output")


def hash64(*parts) -> int:
    """Stable 63-bit hash of the string forms of ``parts``.

    63 bits keeps the value inside a signed int64 so it survives a round
    trip through Spark / Arrow / pandas without overflow.
    """
    return hash_text("\x1f".join(map(str, parts)))


def hash_text(text: str) -> int:
    """:func:`hash64` of the parts whose string forms, joined by
    ``"\x1f"``, are ``text``."""
    h = hashlib.blake2b(text.encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass
class PlanNode:
    """One operator of a plan: its template-level fields, plus the
    partition count and actual latency of a simulated run (the tree
    ``simulator.instantiate`` fills and a planner's chosen plan)."""

    op: str
    children: list["PlanNode"] = field(default_factory=list)
    # --- template-level identity -------------------------------------
    input_templates: tuple[str, ...] = ()  # normalized inputs under this node
    tpl_op_id: str = ""  # stable id of this operator within its template
    props: str = ""  # logical properties (e.g. join/agg keys id, sort order)
    sel_param: float = 1.0  # template-level selectivity/fanout parameter
    # --- a simulated run ----------------------------------------------
    partitions: int = 1
    actual_latency: float = 0.0  # simulated exclusive runtime (seconds)

    @property
    def logical(self) -> str:
        """The logical operator this node implements; a node of a
        logical template tree is its own logical operator."""
        if self.op in LOGICAL_KINDS:
            return self.op
        return PHYSICAL_OPS[self.op]["logical"]

    @property
    def blocking(self) -> bool:
        return PHYSICAL_OPS[self.op]["blocking"]

    # --- traversal ----------------------------------------------------
    def walk(self):
        """Yield nodes bottom-up (children before parents)."""
        for c in self.children:
            yield from c.walk()
        yield self

    def stage_partition_root(self) -> "PlanNode":
        """The partitioning operator whose count this node derives (§2.1)."""
        node = self
        while node.op not in PARTITIONING_OPS and node.children:
            node = node.children[0]
        return node


# --- compiled plans and signatures (§5.1, §4.2) ----------------------------
# The identity columns of an operator, in the order
# :meth:`PlanTable.identity` returns them.
IDENTITY_COLUMNS = ("depth", "cl", "in_hash", "sig_sub", "sig_approx", "sig_opinput")


class PlanTable:
    """Physical plans compiled into flat rows: one row per distinct
    subtree, every row after its children's rows.

    :meth:`add` compiles a plan's tree, reusing the row of any subtree
    the table already holds, so the candidate plans of one template
    share the rows of the subtrees they have in common. A row holds the
    operator's template-level fields, its children's rows, its stage
    root and its draw flags; :meth:`identity` adds the §5.1 signatures.
    The statistics of a subtree depend only on the subtree, so the
    simulator derives them once per row (``repro.scope.simulator``)."""

    def __init__(self):
        self.op: list[str] = []
        self.logical: list[str] = []
        self.tpl_op_id: list[str] = []
        self.props: list[str] = []
        self.sel_param: list[float] = []
        self.input_templates: list[tuple[str, ...]] = []
        self.input_set: list[tuple[str, ...]] = []  # the normalized inputs, sorted
        self.kids: list[tuple[int, ...]] = []
        self.size: list[int] = []  # operators in the subtree (the CL feature)
        self.walk: list[tuple[int, ...]] = []  # the subtree's rows in walk order
        # Walk offset, within the subtree, of the partitioning operator
        # whose count the row derives (:meth:`PlanNode.stage_partition_root`).
        self.stage_off: list[int] = []
        self.partitioning: list[bool] = []  # draws ``"part"`` (PARTITIONING_OPS)
        self.est_draw: list[bool] = []  # draws ``"est-jit"``: leaves and estimators
        self.blocking: list[bool] = []
        self.above_blocking: list[bool] = []  # some child is blocking
        self._index: dict[tuple, int] = {}
        self._ident: dict[str, list] = {c: [] for c in IDENTITY_COLUMNS}
        self._below: list[dict[str, int]] = []  # logical-op counts strictly below

    def __len__(self) -> int:
        return len(self.op)

    def add(self, node: PlanNode) -> int:
        """The row of ``node``'s subtree, compiled on first sight."""
        kids = tuple(map(self.add, node.children))
        key = (node.op, node.tpl_op_id, node.props, node.sel_param, node.input_templates, kids)
        row = self._index.get(key)
        if row is not None:
            return row
        row = self._index[key] = len(self.op)
        op = node.op
        self.op.append(op)
        self.logical.append(node.logical)
        self.tpl_op_id.append(node.tpl_op_id)
        self.props.append(node.props)
        self.sel_param.append(node.sel_param)
        self.input_templates.append(node.input_templates)
        self.input_set.append(tuple(sorted(set(node.input_templates))))
        self.kids.append(kids)
        self.size.append(1 + sum(map(self.size.__getitem__, kids)))
        self.walk.append(sum(map(self.walk.__getitem__, kids), ()) + (row,))
        partitioning = op in PARTITIONING_OPS
        self.stage_off.append(self.stage_off[kids[0]] if kids and not partitioning
                              else self.size[row] - 1)
        self.partitioning.append(partitioning)
        self.est_draw.append(not kids or node.logical not in CARD_PRESERVING)
        self.blocking.append(op in PHYSICAL_OPS and PHYSICAL_OPS[op]["blocking"])
        self.above_blocking.append(any(map(self.blocking.__getitem__, kids)))
        return row

    def identity(self) -> dict[str, list]:
        """The template-level identity of every row: one list per column
        below, computed once per row, each row from its children's
        values:

        - ``depth``: height above the leaves (leaf = 1);
        - ``cl``: operators in the subgraph rooted here (the CL feature);
        - ``in_hash``: the normalized-inputs feature IN, in [0, 1);
        - ``sig_sub``: exact operator-subgraph signature — physical ops,
          structure, logical properties and the inputs at the leaves;
        - ``sig_approx``: operator-subgraphApprox — root physical op, the
          inputs, and the frequency of each *logical* operator below it,
          order ignored;
        - ``sig_opinput``: operator-input — root physical op and inputs.
        """
        cols, below = self._ident, self._below
        for row in range(len(cols["depth"]), len(self.op)):
            kids = self.kids[row]
            counts: dict[str, int] = {}
            for k in kids:
                for logical, n in below[k].items():
                    counts[logical] = counts.get(logical, 0) + n
                counts[self.logical[k]] = counts.get(self.logical[k], 0) + 1
            below.append(counts)
            op, inputs = self.op[row], self.input_templates[row]
            cols["depth"].append(1 + max((cols["depth"][k] for k in kids), default=0))
            cols["cl"].append(self.size[row])
            cols["in_hash"].append(hash64(self.input_set[row]) / float(2**63))
            cols["sig_sub"].append(hash64(op, self.props[row],
                                          *(cols["sig_sub"][k] for k in kids),
                                          *(() if kids else inputs)))
            ordered = tuple(sorted(inputs))
            cols["sig_approx"].append(hash64(op, ordered, tuple(sorted(counts.items()))))
            cols["sig_opinput"].append(hash64(op, ordered))
        return cols


class CompiledPlans:
    """Plans laid end to end as walk-order positions over one
    :class:`PlanTable`: plan ``j`` is positions ``starts[j]`` to
    ``starts[j + 1]``, position ``i`` is an operator of table row
    ``rows[i]``, and ``kids[i]`` are its children's positions.

    The partition counts of a plan are positional (a join's inputs
    co-partition with each other, not with their subtree), so the
    compiled plans also hold, as gathers over positions, where every
    count comes from (see ``repro.scope.simulator``):

    - ``part_pos``: the partitioning operators, which take a heuristic
      count per table row (``part_rows[part_ix]``);
    - ``copart_pos``: the Exchanges feeding a join, which take the
      largest heuristic count of the positions in ``copart_src``: their
      join's input stages, joins taken bottom-up;
    - ``derived_pos``: every other operator with children, which takes
      the largest count of the partitioning positions in
      ``derived_src`` (its first child's, or for a join all children's,
      transitively).

    Index rows are padded by repeating their first entry."""

    def __init__(self, table: PlanTable, roots: list[int]):
        self.table = table
        rows = [r for root in roots for r in table.walk[root]]
        self.rows = rows
        self.starts = [0]
        for root in roots:
            self.starts.append(self.starts[-1] + table.size[root])
        size, tkids, stage_off, ops = table.size, table.kids, table.stage_off, table.op
        partitioning = table.partitioning
        kids: list[tuple[int, ...]] = []
        stage: list[int] = []  # position of each position's stage root
        # Sources, as sets of positions whose heuristic count a count is
        # the largest of: ``base`` for the partitioning operators (and
        # leaves, which keep count 1), ``derived`` for every position.
        base: dict[int, tuple[int, ...]] = {}
        derived: list[tuple[int, ...]] = []
        derived_pos = []
        for i, r in enumerate(rows):
            first = i - size[r] + 1
            pos, at = [], first
            for k in tkids[r]:
                at += size[k]
                pos.append(at - 1)
            kids.append(tuple(pos))
            stage.append(first + stage_off[r])
            if partitioning[r] or not pos:
                base[i] = (i,)
                derived.append((i,))
                continue
            if ops[r] in JOIN_OPS:
                sides = [stage[k] for k in pos]
                src = tuple(sorted({s for side in sides for s in base[side]}))
                for side in sides:
                    if ops[rows[side]] == "Exchange":
                        base[side] = src
                derived.append(tuple(sorted({s for k in pos for s in derived[k]})))
            else:
                derived.append(derived[pos[0]])
            derived_pos.append(i)
        self.kids = kids
        self.stage = stage
        part_pos = [i for i, r in enumerate(rows) if partitioning[r]]
        self.part_rows = sorted({rows[i] for i in part_pos})
        ix = {r: j for j, r in enumerate(self.part_rows)}
        self.part_pos = np.array(part_pos, dtype=np.intp)
        self.part_ix = np.array([ix[rows[i]] for i in part_pos], dtype=np.intp)
        copart_pos = sorted(i for i, src in base.items() if src != (i,))
        self.copart_pos, self.copart_src = _gather(copart_pos, [base[i] for i in copart_pos])
        self.derived_pos, self.derived_src = _gather(derived_pos,
                                                     [derived[i] for i in derived_pos])

    def __len__(self) -> int:
        return len(self.rows)

    def stages(self, j: int) -> list[list[int]]:
        """The stages of plan ``j``, bottom-up, as lists of positions:
        each partitioning operator (Extract / Exchange), or leaf, starts
        a stage containing every operator above it up to the next stage
        boundary."""
        stages: dict[int, list[int]] = {}
        for i in range(self.starts[j], self.starts[j + 1]):
            stages.setdefault(self.stage[i], []).append(i)
        return [stages[head] for head in sorted(stages)]


def compile_plans(roots: list[PlanNode]) -> CompiledPlans:
    """The plans ``roots`` compiled into one new table, end to end."""
    table = PlanTable()
    return CompiledPlans(table, [table.add(root) for root in roots])


def _gather(pos: list[int], sources: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and their sources as a position array and an index
    array, each row padded by repeating its first entry."""
    width = max(map(len, sources), default=1)
    src = np.array([s + s[:1] * (width - len(s)) for s in sources], dtype=np.intp)
    return np.array(pos, dtype=np.intp), src.reshape(len(pos), width)


# Logical operator kinds used in template (logical) trees. ``Join`` and
# ``Aggregate`` are the choice points the planner explores (§6.6: hash vs
# merge join, hash vs stream grouping, optional local aggregation).
LOGICAL_KINDS = ("Scan", "Filter", "Project", "Process", "Join", "Aggregate", "Output")


def expand_physical(node: PlanNode, choices: dict[str, object]) -> PlanNode:
    """Expand a logical template tree into a physical plan.

    ``choices`` maps a Join's ``tpl_op_id`` to ``"hash"``/``"merge"``, an
    Aggregate's to ``"hash"``/``"stream"``, and ``tpl_op_id + ":local"``
    to a bool for local pre-aggregation. Enforcers (Exchange below joins
    and aggregates, Sort below merge joins and stream aggregates) are
    inserted with derived operator ids, mirroring how SCOPE's optimizer
    satisfies required properties (§2.3).
    """
    k = node.op
    if k == "Scan":
        out = PlanNode(op="Extract", input_templates=node.input_templates,
                       tpl_op_id=node.tpl_op_id, props=node.props)
    elif k in ("Filter", "Project"):
        out = PlanNode(op=k, children=[expand_physical(node.children[0], choices)],
                       tpl_op_id=node.tpl_op_id, props=node.props,
                       sel_param=node.sel_param)
    elif k == "Process":
        out = PlanNode(op="ProcessUDF",
                       children=[expand_physical(node.children[0], choices)],
                       tpl_op_id=node.tpl_op_id, props=node.props,
                       sel_param=node.sel_param)
    elif k == "Join":
        jid = node.tpl_op_id
        impl = choices.get(jid, "hash")
        sides = []
        for tag, child in zip(("l", "r"), node.children):
            side = PlanNode(op="Exchange", children=[expand_physical(child, choices)],
                            tpl_op_id=f"{jid}_x{tag}", props=node.props)
            if impl == "merge":
                side = PlanNode(op="Sort", children=[side],
                                tpl_op_id=f"{jid}_s{tag}", props=node.props)
            sides.append(side)
        out = PlanNode(op="HashJoin" if impl == "hash" else "MergeJoin",
                       children=sides, tpl_op_id=jid, props=node.props,
                       sel_param=node.sel_param)
    elif k == "Aggregate":
        aid = node.tpl_op_id
        impl = choices.get(aid, "hash")
        child = expand_physical(node.children[0], choices)
        if choices.get(f"{aid}:local", False):
            child = PlanNode(op="LocalAggregate", children=[child],
                             tpl_op_id=f"{aid}_la", props=node.props,
                             sel_param=node.sel_param)
        child = PlanNode(op="Exchange", children=[child], tpl_op_id=f"{aid}_xa",
                         props=node.props)
        if impl == "stream":
            child = PlanNode(op="Sort", children=[child], tpl_op_id=f"{aid}_gs",
                             props=node.props)
        out = PlanNode(op="HashAggregate" if impl == "hash" else "StreamAggregate",
                       children=[child], tpl_op_id=aid, props=node.props,
                       sel_param=node.sel_param)
    elif k == "Output":
        out = PlanNode(op="Output", children=[expand_physical(node.children[0], choices)],
                       tpl_op_id=node.tpl_op_id)
    else:
        raise ValueError(f"unknown logical kind {k}")
    return out


def choice_points(logical_root: PlanNode) -> list[tuple[str, list]]:
    """Enumerable (choice id, alternatives) pairs for a logical tree."""
    points: list[tuple[str, list]] = []
    for n in logical_root.walk():
        if n.op == "Join":
            points.append((n.tpl_op_id, ["hash", "merge"]))
        elif n.op == "Aggregate":
            points.append((n.tpl_op_id, ["hash", "stream"]))
            points.append((f"{n.tpl_op_id}:local", [False, True]))
    return points


def plan_signature(root: PlanNode) -> tuple:
    """Physical shape of a plan: (op, tpl_op_id, partitions) per node —
    used to detect plan changes between two planners."""
    return tuple((n.op, n.tpl_op_id, n.partitions) for n in root.walk())


def operator_signature(root: PlanNode) -> tuple:
    """Like :func:`plan_signature` but ignoring partition counts."""
    return tuple((n.op, n.tpl_op_id) for n in root.walk())


def assign_input_templates(root: PlanNode) -> None:
    """Propagate leaf input templates up the tree (bottom-up)."""
    for node in root.walk():
        if node.children:
            merged: list[str] = []
            for c in node.children:
                merged.extend(c.input_templates)
            node.input_templates = tuple(merged)

