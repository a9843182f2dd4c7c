"""Physical plan IR and the recursive operator signatures of §5.1.

A plan is a tree of :class:`PlanNode`. Each node carries template-level
identity (physical/logical operator, which normalized inputs feed it)
and, once instantiated for a particular job run, the estimated and true
statistics plus the simulated actual latency.

Signatures follow §5.1: a 64-bit hash "recursively computed in a
bottom-up fashion by combining (i) the signatures of children operators,
(ii) hash of current operator's name, and (iii) hash of operator's
logical properties". Three additional signatures key the other model
families (§4.2). :func:`plan_identity` computes all of them, with the
CL/D context features, for a whole plan in that one bottom-up pass.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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


def hash64(*parts) -> int:
    """Stable 63-bit hash of the string forms of ``parts``.

    63 bits keeps the value inside a signed int64 so it survives a round
    trip through Spark / Arrow / pandas without overflow.
    """
    h = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass
class PlanNode:
    """One physical operator in a plan (template or instance)."""

    op: str
    children: list["PlanNode"] = field(default_factory=list)
    # --- template-level identity -------------------------------------
    input_templates: tuple[str, ...] = ()  # normalized inputs under this node
    tpl_op_id: str = ""  # stable id of this operator within its template
    props: str = ""  # logical properties (e.g. join/agg keys id, sort order)
    sel_param: float = 1.0  # template-level selectivity/fanout parameter
    # --- instance-level statistics (filled by the simulator) ----------
    true_in: float = 0.0  # true input cardinality (sum over children)
    true_base: float = 0.0  # true cardinality at the leaves
    true_out: float = 0.0  # true output cardinality
    est_in: float = 0.0  # estimated counterparts (what the optimizer saw)
    est_base: float = 0.0
    est_out: float = 0.0
    row_len: float = 0.0  # average output row length (bytes)
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


# --- signatures (§5.1, §4.2) ----------------------------------------------
def plan_identity(root: PlanNode) -> dict[str, list]:
    """Template-level identity of every operator of a plan: one list per
    column below, aligned with ``root.walk()``.

    One bottom-up pass; each node reuses its children's values:

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
    cols: dict[str, list] = {
        c: [] for c in ("depth", "cl", "in_hash", "sig_sub", "sig_approx", "sig_opinput")
    }
    # id(node) -> (depth, cl, sig_sub, logical-op counts strictly below)
    done: dict[int, tuple[int, int, int, dict[str, int]]] = {}
    for node in root.walk():
        kids = [done[id(c)] for c in node.children]
        below: dict[str, int] = {}
        for c, (_, _, _, c_below) in zip(node.children, kids):
            for logical, k in c_below.items():
                below[logical] = below.get(logical, 0) + k
            below[c.logical] = below.get(c.logical, 0) + 1
        depth = 1 + max((k[0] for k in kids), default=0)
        cl = 1 + sum(k[1] for k in kids)
        sig_sub = hash64(
            node.op, node.props, *(k[2] for k in kids),
            *(() if node.children else node.input_templates),
        )
        inputs = tuple(sorted(node.input_templates))
        done[id(node)] = (depth, cl, sig_sub, below)
        cols["depth"].append(depth)
        cols["cl"].append(cl)
        cols["in_hash"].append(
            hash64(tuple(sorted(set(node.input_templates)))) / float(2**63))
        cols["sig_sub"].append(sig_sub)
        cols["sig_approx"].append(hash64(node.op, inputs, tuple(sorted(below.items()))))
        cols["sig_opinput"].append(hash64(node.op, inputs))
    return cols


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


def plan_stages(root: PlanNode) -> list[list[PlanNode]]:
    """Group operators into stages: each partitioning operator (Extract /
    Exchange) starts a stage containing every operator above it up to
    the next stage boundary. Returns bottom-up lists of nodes."""
    stages: dict[int, list[PlanNode]] = {}
    order: list[int] = []
    stage_of: dict[int, int] = {}
    for node in root.walk():  # bottom-up
        if node.op in PARTITIONING_OPS or not node.children:
            key = id(node)
            stages[key] = [node]
            order.append(key)
            stage_of[id(node)] = key
        else:
            key = stage_of[id(node.children[0])]
            stages[key].append(node)
            stage_of[id(node)] = key
    return [stages[k] for k in order]
