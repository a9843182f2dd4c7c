"""Ground-truth runtime simulator and estimated-statistics model.

This is the stand-in for the SCOPE clusters: given an instantiated plan
it fills in, bottom-up, the *true* cardinalities, the *estimated*
cardinalities the optimizer would have seen (with errors that compound
up the plan, §3.1/§4.1), partition counts chosen by the default
partitioning heuristic (§5.2), and the actual exclusive latency of every
operator.

The latency model deliberately contains everything the paper says a
hand-crafted cost model cannot capture:

- per-``(inputs, logical op)`` hidden multipliers ``τ`` — data
  distributions, custom UDF behaviour ("black boxes in the cost
  models", §2.4). Specialized models can learn them because their
  grouping fixes the inputs; a global per-operator model cannot;
- pipeline context: an operator above a blocking child (Sort, Exchange,
  HashAggregate) pays a penalty, one above streaming children gets a
  pipelining discount (§3.1);
- resource response ``work/P + γ·P``: parallel work plus per-partition
  scheduling overhead — exactly the family the analytical partition
  exploration of §5.3 optimizes;
- a job-parameter factor (recurring jobs run with different parameters,
  §2.2), multiplicative lognormal cloud noise and rare stragglers [42].

All randomness is derived deterministically from ``hash64`` of the
entity keys, so the same workload is bit-identical across runs and
processes. Statistics and partition counts make at most one draw per
operator each: the first standard normal of the generator seeded by
``(kind, *seed_parts, tpl_op_id)``. :class:`Draws` makes each such draw
on first use and keeps it, so a planner costing many candidate plans of
one job instance seeds each operator's generator once, and operators
that draw nothing seed none. numpy computes ``normal(0.0, s)`` as
``0.0 + s * standard_normal()``, so scaling the kept draw gives the
same bits as drawing from a fresh generator. Latencies
(:func:`simulate_latencies`) are simulated once per executed plan and
keep their per-operator generators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.scope.plan import PlanNode, hash64

MAX_PARTITIONS = 3000
OVERHEAD_PER_PARTITION = 0.03  # seconds of latency per scheduled partition
CPU_STARTUP_PER_PARTITION = 0.3  # CPU-seconds per container (provisioning)
# The default partitioning heuristic systematically over-partitions:
# "SCOPE jobs tend to over-partition at the leaf levels and leverage the
# massive scale-out possible for improving latency" (§6.7) — which is
# why most of CLEO's wins come with *less* parallelism (§6.6.1).
ROWS_PER_PARTITION = 3e4
WORK_UNIT = 1e7  # row-bytes per second of sequential work

# Per-operator work coefficients (seconds per WORK_UNIT row-bytes of
# input/output). These are the *true* constants of the simulated world;
# the default cost model's hand-crafted constants are systematically off
# (see default_cost.py).
OP_COEF: dict[str, tuple[float, float, float]] = {
    # op: (alpha_input, beta_output, gamma_partition_overhead_scale)
    "Extract": (1.0, 0.1, 1.0),
    "Filter": (0.35, 0.1, 0.6),
    "Project": (0.25, 0.1, 0.6),
    "ProcessUDF": (3.0, 0.5, 1.0),
    "HashJoin": (1.3, 0.5, 1.2),
    "MergeJoin": (0.9, 0.4, 1.2),
    "HashAggregate": (1.1, 0.3, 1.0),
    "StreamAggregate": (0.5, 0.2, 0.8),
    "LocalAggregate": (0.6, 0.2, 0.8),
    "Sort": (1.4, 0.2, 1.0),
    "Exchange": (1.6, 0.3, 1.5),
    "Output": (0.8, 0.8, 1.0),
}

# Bias (log-space) of the optimizer's selectivity estimates by logical
# op: joins and filters tend to over-estimate in this world, which
# compounds into the 1000x over-estimation tail of Figure 1.
EST_BIAS: dict[str, float] = {
    "Join": 0.5,
    "Filter": 0.35,
    "Aggregate": 0.2,
    "LocalAggregate": 0.2,
    "Process": 0.3,
}


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(hash64(*parts) & 0xFFFF_FFFF)


class Draws(dict):
    """The per-operator standard-normal draws of one job instance,
    made on first use: ``draws[kind, tpl_op_id]`` is the first
    ``standard_normal()`` of ``_rng(kind, *seed_parts, tpl_op_id)``.

    Every candidate plan of the instance reads the same draws for the
    operators it shares with the others (common random numbers)."""

    def __init__(self, seed_parts: tuple):
        super().__init__()
        self.seed_parts = seed_parts

    def __missing__(self, key: tuple[str, str]) -> float:
        kind, tpl_op_id = key
        z = self[key] = _rng(kind, *self.seed_parts, tpl_op_id).standard_normal()
        return z


@dataclass
class World:
    """Hidden per-cluster truth the learned models must discover."""

    cluster: str
    noise_sigma: float = 0.14
    tau_sigma: float = 0.5
    est_sigma: float = 0.7
    outlier_prob: float = 0.01

    def __post_init__(self):
        self._tau_cache: dict = {}
        self._est_cache: dict = {}

    def tau(self, input_templates: tuple[str, ...], logical: str) -> float:
        """Hidden multiplier for (inputs, logical op) — UDF/data effects."""
        key = (tuple(sorted(set(input_templates))), logical)
        if key not in self._tau_cache:
            g = _rng(self.cluster, "tau", *key[0], logical)
            self._tau_cache[key] = float(np.exp(g.normal(0.0, self.tau_sigma)))
        return self._tau_cache[key]

    def est_error_factor(self, tpl_op_id: str, logical: str, z_inst: float) -> float:
        """Multiplicative error of one operator's selectivity estimate:
        a systematic per-template-operator factor (stable across runs of
        the recurring job) times small per-instance jitter, from the
        instance's standard-normal draw ``z_inst``."""
        if tpl_op_id not in self._est_cache:
            g_sys = _rng(self.cluster, "est", tpl_op_id)
            bias = EST_BIAS.get(logical, 0.0)
            self._est_cache[tpl_op_id] = math.exp(g_sys.normal(bias, self.est_sigma))
        return self._est_cache[tpl_op_id] * math.exp(0.08 * z_inst)

    # ------------------------------------------------------------------
    def true_output(self, node: PlanNode, pm: float) -> float:
        """True output cardinality given true input and template params."""
        op = node.op
        i = node.true_in
        s = node.sel_param
        if op == "Extract":
            return i
        if op == "Filter":
            # Instance parameters modulate predicate selectivity (§2.2).
            return i * min(1.0, s * (0.6 + 0.8 * pm))
        if op in ("Project", "Sort", "Exchange", "Output"):
            return i
        if op == "ProcessUDF":
            return i * s
        if op in ("HashJoin", "MergeJoin"):
            left, right = node.children[0], node.children[1]
            return max(1.0, s * max(left.true_out, right.true_out))
        if op in ("HashAggregate", "StreamAggregate"):
            return max(1.0, i * s)
        if op == "LocalAggregate":
            # Partial aggregation reduces less than the global one.
            return max(1.0, i * min(1.0, s * 20))
        raise ValueError(f"unknown op {op}")

    def exclusive_latency(
        self, node: PlanNode, pm: float, seed_parts: tuple
    ) -> float:
        """Actual exclusive runtime (seconds) of one operator instance.

        Randomness is keyed by ``(seed_parts, node.tpl_op_id)`` — common
        random numbers — so two alternative physical plans of the same
        job instance see identical noise for shared operators and the
        planner experiments (§6.6) compare plans, not luck.
        """
        g_inst = _rng("lat", *seed_parts, node.tpl_op_id)
        alpha, beta, gscale = OP_COEF[node.op]
        in_len = (
            sum(c.row_len * c.true_out for c in node.children) / max(node.true_in, 1.0)
            if node.children
            else node.row_len
        )
        work = (
            alpha * node.true_in * in_len + beta * node.true_out * node.row_len
        ) / WORK_UNIT
        if node.op == "Sort":
            work *= 1.0 + 0.07 * math.log2(1.0 + node.true_in)
        if node.op == "Exchange":
            work *= 1.0 + 0.10 * math.log2(1.0 + node.partitions)
        if not node.children:
            ctx = 1.0
        elif any(c.blocking for c in node.children):
            ctx = 1.25
        else:
            ctx = 0.8
        tau = self.tau(node.input_templates, node.logical)
        pm_factor = math.exp(0.35 * (pm - 0.5))
        noise = math.exp(g_inst.normal(0.0, self.noise_sigma))
        if g_inst.random() < self.outlier_prob:
            noise *= g_inst.uniform(2.0, 5.0)
        parallel = work / max(node.partitions, 1)
        overhead = gscale * OVERHEAD_PER_PARTITION * node.partitions
        # Cloud noise hits the whole operator (stragglers delay both the
        # compute and the scheduling waves); the data-dependent hidden
        # multiplier τ and the parameter factor scale only the work.
        return (parallel * ctx * tau * pm_factor + overhead) * noise


def default_partitions(est_rows: float, z_inst: float) -> int:
    """The default partitioning heuristic (§5.2): rows-per-partition
    target with operational jitter (cluster load / machine availability),
    from the instance's standard-normal draw ``z_inst``; the jitter is
    also what makes the partition response identifiable in the training
    logs."""
    target = ROWS_PER_PARTITION * math.exp(0.35 * z_inst)
    return min(max(math.ceil(est_rows / target), 1), MAX_PARTITIONS)


def instantiate(
    root: PlanNode,
    world: World,
    base_cards: dict[str, float],
    base_lens: dict[str, float],
    pm: float,
    seed_parts: tuple,
) -> None:
    """Fill instance statistics and actual latencies for a plan, in place:
    :func:`derive_statistics`, :func:`assign_partitions`, then
    :func:`simulate_latencies`.

    ``base_cards``/``base_lens`` give the true cardinality and row
    length of each input template for this run; ``seed_parts`` make the
    instance deterministic. All per-operator randomness is keyed by
    ``tpl_op_id`` (common random numbers), so re-planned variants of the
    same instance are directly comparable.
    """
    draws = Draws(seed_parts)
    derive_statistics(root, world, base_cards, base_lens, pm, draws)
    assign_partitions(root, draws)
    simulate_latencies(root, world, pm, seed_parts)


def derive_statistics(
    root: PlanNode,
    world: World,
    base_cards: dict[str, float],
    base_lens: dict[str, float],
    pm: float,
    draws: Draws,
) -> None:
    """True and estimated cardinalities and row lengths, bottom-up.
    Leaves and selectivity-estimating operators read their ``"est-jit"``
    draw."""
    for node in root.walk():
        if not node.children:
            card = base_cards[node.input_templates[0]]
            node.row_len = base_lens[node.input_templates[0]]
            node.true_in = node.true_base = card
            node.true_out = world.true_output(node, pm)
            err = math.exp(0.06 * draws["est-jit", node.tpl_op_id])
            node.est_in = node.est_base = node.est_out = card * err
            continue
        node.true_in = sum(c.true_out for c in node.children)
        node.true_base = sum(c.true_base for c in node.children)
        node.est_in = sum(c.est_out for c in node.children)
        node.est_base = sum(c.est_base for c in node.children)
        # Row length transformation by operator.
        child_len = sum(c.row_len * c.true_out for c in node.children) / max(
            node.true_in, 1.0
        )
        if node.op == "Project":
            node.row_len = child_len * (0.4 + 0.5 * node.sel_param)
        elif node.op in ("HashJoin", "MergeJoin"):
            node.row_len = sum(c.row_len for c in node.children)
        elif node.op in ("HashAggregate", "StreamAggregate", "LocalAggregate"):
            node.row_len = child_len * 0.8
        else:
            node.row_len = child_len
        node.true_out = world.true_output(node, pm)
        # Estimated output: estimated input × estimated selectivity,
        # where the selectivity estimate is systematically off — errors
        # compound as we move up the plan (§3.1).
        if node.logical in ("Exchange", "Sort", "Project", "Output"):
            # Cardinality-preserving operators: the optimizer's estimate
            # passes through unchanged (no new estimation error).
            node.est_out = node.est_in
        else:
            true_sel = node.true_out / max(node.true_in, 1.0)
            err = world.est_error_factor(node.tpl_op_id, node.logical,
                                         draws["est-jit", node.tpl_op_id])
            node.est_out = max(1.0, node.est_in * true_sel * err)


def assign_partitions(root: PlanNode, draws: Draws) -> None:
    """Partition counts: partitioning operators set the count from their
    local estimated stats and their ``"part"`` draw (§5.2); each join,
    bottom-up, forces both inputs' exchanges to the larger of their
    counts (co-partitioning); everything else then derives its count
    (:func:`rederive_partitions`)."""
    for node in root.walk():
        if node.op == "Extract":
            node.partitions = default_partitions(node.est_base, draws["part", node.tpl_op_id])
        elif node.op == "Exchange":
            node.partitions = default_partitions(node.est_in, draws["part", node.tpl_op_id])
        elif node.op in ("HashJoin", "MergeJoin"):
            sides = [c.stage_partition_root() for c in node.children]
            p = max(sp.partitions for sp in sides)
            for sp in sides:
                if sp.op == "Exchange":
                    sp.partitions = p
    rederive_partitions(root)


def rederive_partitions(node: PlanNode) -> None:
    """Re-propagate partition counts bottom-up through the derived
    operators under ``node`` after partitioning operators' counts
    changed; every Extract and Exchange keeps its count."""
    for n in node.walk():
        if n.children and n.op not in ("Extract", "Exchange"):
            if n.op in ("HashJoin", "MergeJoin"):
                n.partitions = max(c.partitions for c in n.children)
            else:
                n.partitions = n.children[0].partitions


def simulate_latencies(root: PlanNode, world: World, pm: float, seed_parts: tuple) -> None:
    """Actual exclusive latency of every operator; needs the final
    statistics and partition counts."""
    for node in root.walk():
        node.actual_latency = world.exclusive_latency(node, pm, seed_parts)


def job_latency(root: PlanNode) -> float:
    """End-to-end latency: critical path of operator completion times."""

    def completion(node: PlanNode) -> float:
        child = max((completion(c) for c in node.children), default=0.0)
        return child + node.actual_latency

    return completion(root)


def job_cpu_seconds(root: PlanNode) -> float:
    """Total processing time (CPU-seconds): each operator's work across
    its partitions plus per-container startup cost — the resource bill
    that over-partitioning inflates (§6.6.1, Fig 19b)."""
    total = 0.0
    for node in root.walk():
        gscale = OP_COEF[node.op][2]
        overhead = gscale * OVERHEAD_PER_PARTITION * node.partitions
        work = max(node.actual_latency - overhead, 0.0) * node.partitions
        total += work + overhead + CPU_STARTUP_PER_PARTITION * node.partitions
    return total
