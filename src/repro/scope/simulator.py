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
processes: the generator of key ``(kind, *parts)`` is
``np.random.default_rng(hash64(kind, *parts) & 0xFFFF_FFFF)``. Statistics
and partition counts make at most one draw per operator each: the first
standard normal of the generator of ``(kind, *seed_parts, tpl_op_id)``.
numpy computes ``normal(0.0, s)`` as ``0.0 + s * standard_normal()``, so
scaling the kept draw gives the same bits as drawing from a fresh
generator.

The keys are seeded in one of two ways, each where it is faster:

- lazily, one key at a time (:func:`_rng`), for a single job instance:
  :func:`instantiate` seeds each of the instance's keys
  (:func:`instance_keys`) as it is read. The planners cost many
  candidate plans of one instance: :class:`Draws` makes each statistics
  draw on first use and keeps it, so each operator's generator is
  seeded once and operators that draw nothing seed none; latencies
  (:func:`simulate_latencies`) seed one generator per executed operator;
- in one batch per generated day (:func:`rng_batch`): the workload
  generator lists every key of the day's runs in run order, the batch
  computes all their PCG64 states in one vectorized pass, and one reused
  generator is set to each key's state just before that key's draws.
  The draws are the ones :func:`_rng` makes, bit for bit; only numpy's
  per-generator set-up cost is gone.

:func:`instantiate` and the workload generator share one body,
:func:`instantiate_batched`, which takes the generators in key order.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.scope.plan import PARTITIONING_OPS, PlanNode, hash64

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


def rng_batch(keys: Iterable[tuple]) -> Iterator[np.random.Generator]:
    """The generators of a batch of :func:`_rng` keys, in key order.

    Every key is hashed and every PCG64 state computed now, in one pass.
    The iterator then yields one reused generator, set to the next key's
    state: it makes exactly the draws ``_rng(*key)`` would, until the
    next key is taken. Only the states are kept, never drawn values."""
    seeds = np.fromiter((hash64(*k) & 0xFFFF_FFFF for k in keys), dtype=np.uint32)
    return _generators(*_pcg64_states(seeds))


def _generators(states: list[int], incs: list[int]) -> Iterator[np.random.Generator]:
    """One reused generator set to each PCG64 ``(state, inc)`` in turn."""
    bit_gen = np.random.PCG64(0)
    g = np.random.Generator(bit_gen)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for state, inc in zip(states, incs):
        pcg["state"], pcg["inc"] = state, inc
        bit_gen.state = full
        yield g


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFF_FFFF, (1 << 128) - 1


def _pcg64_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """The 128-bit PCG64 ``state`` and ``inc`` of
    ``np.random.default_rng(s)`` for every 32-bit seed ``s``.

    ``SeedSequence(s)`` mixes the one entropy word into its pool and
    expands the pool to four 64-bit words; that is all uint32 arithmetic,
    done here over the whole batch at once. PCG64 then seeds from the
    words ``(state0, inc0)`` (``pcg_setseq_128_srandom_r``):
    ``inc = inc0 << 1 | 1`` and two LCG steps from 0, adding ``state0``
    after the first, modulo 2**128 (Python ints, as the ``state``
    setter takes them)."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        v = v * u32(hash_const)
        return v ^ (v >> u32(16))

    def mix(x, y):
        r = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return r ^ (r >> u32(16))

    seeds = np.asarray(seeds, dtype=np.uint32)
    pool = [hashmix(seeds)] + [hashmix(np.zeros_like(seeds)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):  # generate_state(4, np.uint64): cycle the pool
        v = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        v = v * u32(hash_const)
        words.append(v ^ (v >> u32(16)))
    # Word pairs join little-endian into (state_hi, state_lo, inc_hi, inc_lo).
    s_hi, s_lo, i_hi, i_lo = np.stack(words, axis=1).astype("<u4").view("<u8").T.tolist()
    states, incs = [], []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append(((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


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


# Spreads of the hidden truth: log-space sigmas of the cloud noise, of
# the per-(inputs, logical op) multipliers τ and of the per-operator
# selectivity-estimate errors, and the straggler probability.
NOISE_SIGMA = 0.14
TAU_SIGMA = 0.5
EST_SIGMA = 0.7
STRAGGLER_PROB = 0.01

# Logical operators whose estimated output is their estimated input: they
# make no selectivity estimate, so draw no ``"est-jit"`` (§3.1).
CARD_PRESERVING = ("Exchange", "Sort", "Project", "Output")


@dataclass
class World:
    """Hidden per-cluster truth the learned models must discover."""

    cluster: str

    def __post_init__(self):
        self._tau_cache: dict = {}
        self._est_cache: dict = {}

    def tau(self, input_templates: tuple[str, ...], logical: str) -> float:
        """Hidden multiplier for (inputs, logical op) — UDF/data effects."""
        key = (tuple(sorted(set(input_templates))), logical)
        if key not in self._tau_cache:
            g = _rng(self.cluster, "tau", *key[0], logical)
            self._tau_cache[key] = float(np.exp(g.normal(0.0, TAU_SIGMA)))
        return self._tau_cache[key]

    def est_error_factor(self, tpl_op_id: str, logical: str, z_inst: float) -> float:
        """Multiplicative error of one operator's selectivity estimate:
        a systematic per-template-operator factor (stable across runs of
        the recurring job) times small per-instance jitter, from the
        instance's standard-normal draw ``z_inst``."""
        if tpl_op_id not in self._est_cache:
            g_sys = _rng(self.cluster, "est", tpl_op_id)
            bias = EST_BIAS.get(logical, 0.0)
            self._est_cache[tpl_op_id] = math.exp(g_sys.normal(bias, EST_SIGMA))
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
        return self._latency(node, pm, _rng("lat", *seed_parts, node.tpl_op_id))

    def _latency(self, node: PlanNode, pm: float, g_inst: np.random.Generator) -> float:
        """:meth:`exclusive_latency` with the operator's ``"lat"``
        generator ``g_inst``: one ``normal``, one ``random`` and, for a
        straggler, one ``uniform``."""
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
        noise = math.exp(g_inst.normal(0.0, NOISE_SIGMA))
        if g_inst.random() < STRAGGLER_PROB:
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
    """:func:`instantiate_batched` with one fresh :func:`_rng` per key,
    seeded as it is read: the seeding of a single job instance."""
    instantiate_batched(root, world, base_cards, base_lens, pm, seed_parts,
                        (_rng(*key) for key in instance_keys(root, seed_parts)))


def instance_keys(root: PlanNode, seed_parts: tuple) -> Iterator[tuple]:
    """The :func:`_rng` keys :func:`instantiate_batched` reads for one
    instance of ``root``, in the order it reads them: the statistics
    draws (:func:`draw_keys`), then one ``"lat"`` key per operator."""
    for kind, tpl_op_id in draw_keys(root):
        yield (kind, *seed_parts, tpl_op_id)
    for node in root.walk():
        yield ("lat", *seed_parts, node.tpl_op_id)


def draw_keys(root: PlanNode) -> list[tuple[str, str]]:
    """The ``Draws`` keys :func:`derive_statistics` and then
    :func:`assign_partitions` read for ``root``, in first-read order."""
    est = [("est-jit", n.tpl_op_id) for n in root.walk() if draws_estimate(n)]
    part = [("part", n.tpl_op_id) for n in root.walk() if n.op in PARTITIONING_OPS]
    return list(dict.fromkeys(est + part))


def draws_estimate(node: PlanNode) -> bool:
    """Whether ``node`` reads its ``"est-jit"`` draw: every leaf, and
    every operator that makes a selectivity estimate."""
    return not node.children or node.logical not in CARD_PRESERVING


def instantiate_batched(
    root: PlanNode,
    world: World,
    base_cards: dict[str, float],
    base_lens: dict[str, float],
    pm: float,
    seed_parts: tuple,
    rngs: Iterator[np.random.Generator],
) -> None:
    """Fill instance statistics and actual latencies for a plan, in place:
    :func:`derive_statistics`, :func:`assign_partitions`, then every
    operator's exclusive latency.

    ``base_cards``/``base_lens`` give the true cardinality and row
    length of each input template for this run; ``seed_parts`` make the
    instance deterministic. All per-operator randomness is keyed by
    ``tpl_op_id`` (common random numbers), so re-planned variants of the
    same instance are directly comparable. ``rngs`` yields the
    generators of :func:`instance_keys` in turn: fresh ones
    (:func:`instantiate`) or a share of a day's :func:`rng_batch`.
    """
    draws = Draws(seed_parts)
    for key in draw_keys(root):
        draws[key] = next(rngs).standard_normal()
    derive_statistics(root, world, base_cards, base_lens, pm, draws)
    assign_partitions(root, draws)
    for node in root.walk():
        node.actual_latency = world._latency(node, pm, next(rngs))


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
        if not draws_estimate(node):
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
        if node.op in PARTITIONING_OPS:
            est_rows = node.est_base if node.op == "Extract" else node.est_in
            node.partitions = default_partitions(est_rows, draws["part", node.tpl_op_id])
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
        if n.children and n.op not in PARTITIONING_OPS:
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
