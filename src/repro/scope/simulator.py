"""Ground-truth runtime simulator and estimated-statistics model.

This is the stand-in for the SCOPE clusters: for one job run of a
compiled plan it derives, bottom-up, the *true* cardinalities, the
*estimated* cardinalities the optimizer would have seen (with errors
that compound up the plan, §3.1/§4.1), partition counts chosen by the
default partitioning heuristic (§5.2), and the actual exclusive latency
of every operator.

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

Every formula runs over compiled plans (:class:`repro.scope.plan.PlanTable`
rows and :class:`repro.scope.plan.CompiledPlans` positions), and this is
their only implementation:

- :func:`derive_rows`: true and estimated statistics, once per table
  row, as a :class:`RowStats`, the one place a run's statistics are
  kept. A subtree's statistics depend only on the subtree, so the
  candidate plans of a template, which share the rows of their common
  subtrees, derive each shared subtree once per job instance;
- :func:`heuristic_partitions`: the heuristic count of each
  partitioning row, then, per position, each join's co-partitioning and
  every derived count, as gathers over the positions of all plans at
  once; :func:`rederive` re-derives after a planner changes counts;
- :func:`latencies`, :func:`plan_latency` and :func:`plan_cpu_seconds`:
  execution, per position of one plan.

:func:`instantiate_plan` runs them for one plan. The workload generator,
Fig 17 and Fig 19 (on a template's executed plan) and both planners (on
its candidates) call them directly, on ``workload.TemplatePlans``.
:func:`instantiate`, :func:`job_latency` and :func:`job_cpu_seconds`
are tree functions that only the benchmark harness (``cleobench``)
still calls, on a :class:`PlanNode` tree: each compiles its tree alone,
runs the rows and writes each node's partition count and latency.

All randomness is derived deterministically from ``hash64`` of the
entity keys, so the same workload is bit-identical across runs and
processes: the generator of key ``(kind, *parts)`` is
``np.random.default_rng(hash64(kind, *parts) & 0xFFFF_FFFF)``. Statistics
and partition counts make at most one draw per operator each: the first
standard normal of the generator of ``(kind, *seed_parts, tpl_op_id)``.
numpy computes ``normal(0.0, s)`` as ``0.0 + s * standard_normal()``, so
scaling the kept draw gives the same bits as drawing from a fresh
generator. Keying by ``tpl_op_id`` is what lets a subtree shared by
several candidates read one set of draws.

Generators are seeded a batch of keys at a time (:class:`RngBatch`): the
keys are hashed, all their PCG64 states are computed in one vectorized pass
(numpy's ``SeedSequence`` mixing on a ``(4, n)`` uint32 pool, then
PCG64's 128-bit seeding step), and one reused generator is set to each
key's state just before that key's draws. The draws are the ones
:func:`_rng` makes, bit for bit; only numpy's per-generator set-up cost
is gone. The same kernel serves every batch size:

- a generated day (``Cluster.generate_days``): every key of the day's
  runs, in run order: each run's ``"sizes"`` key, then its seed keys;
- a single replayed instance (Fig 17, Fig 19, :func:`instantiate`): its
  seed keys;
- a planner call (``cascades.Planner.plan``): the candidates' seed
  keys, of which the chosen plan's latencies read their ``"lat"`` slots.

:func:`plan_keys` is the one rule for the seed keys of compiled
plans: the statistics draws of every plan, which pre-fill the
instance's draws, then one ``"lat"`` key per distinct operator. One plan
reads them in that order, so a day and a replayed instance take their
generators through one body, :func:`instantiate_plan`. An instance's
draws are a plain dict that its caller fills with every key it will
read (:func:`seeded_draws`), so reading a key it was not given raises
``KeyError``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from operator import mul
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.scope.plan import (
    JOIN_OPS,
    CompiledPlans,
    PlanNode,
    PlanTable,
    compile_plans,
    hash64,
    hash_text,
)

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


def instance_seeds(keys: Iterable[tuple[str, str]], seed_parts: tuple) -> list[int]:
    """The 32-bit seed :func:`_rng` gives the key ``(kind, *seed_parts,
    tpl_op_id)`` of each ``(kind, tpl_op_id)`` of ``keys``, in order. The
    seed parts' string forms are joined once for all the keys."""
    mid = "".join("\x1f" + str(part) for part in seed_parts)
    return [hash_text(f"{kind}{mid}\x1f{op_id}") & 0xFFFF_FFFF for kind, op_id in keys]


class _Unseeded(ISeedSequence):
    """The seed of a bit generator whose state is set before every draw:
    all-zero words, without ``SeedSequence``'s hashing."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


class RngBatch:
    """The generators of a batch of 32-bit seeds, as
    ``np.random.default_rng`` makes them.

    Every seed's PCG64 state is computed on construction, in one pass
    (:func:`_pcg64_states`). :meth:`take` then yields one reused
    generator, set to the state of each slot it is given in turn: it
    makes exactly the draws a fresh ``default_rng`` of that seed would,
    until the next slot is taken. Only the states are kept, never drawn
    values."""

    def __init__(self, seeds: np.ndarray | list[int]):
        self.states, self.incs = _pcg64_states(seeds)
        self.generator = np.random.Generator(np.random.PCG64(_UNSEEDED))

    def __iter__(self) -> Iterator[np.random.Generator]:
        return self.take(range(len(self.states)))

    def take(self, slots: Iterable[int]) -> Iterator[np.random.Generator]:
        bit_gen = self.generator.bit_generator
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for k in slots:
            pcg["state"], pcg["inc"] = self.states[k], self.incs[k]
            bit_gen.state = full
            yield self.generator


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFF_FFFF, (1 << 128) - 1
_SHIFT = np.uint32(16)  # hashmix's and mix's xorshift


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``n`` successive ``hashmix`` calls, as columns:
    each XORs in the running constant, steps it (``*= mult``) and then
    multiplies by it."""
    xors, mults, c = [], [], init
    for _ in range(n):
        xors.append(c)
        c = c * mult & _MASK32
        mults.append(c)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


# mix_entropy makes 16 hashmix calls: one per pool word (the seed, then
# three zero words, whose results are constants), then three per source
# word as it is mixed into the other three.
_XOR_A, _MULT_CONST_A = _hash_consts(_INIT_A, _MULT_A, 16)
_POOL_INIT = _hashmix(np.zeros((4, 1), dtype=np.uint32), _XOR_A[:4], _MULT_CONST_A[:4])
_ROUNDS = [(src, np.array([dst for dst in range(4) if dst != src]),
            _XOR_A[4 + 3 * src:7 + 3 * src], _MULT_CONST_A[4 + 3 * src:7 + 3 * src])
           for src in range(4)]
# generate_state(4, np.uint64) cycles the pool twice, one hashmix per word.
_XOR_B, _MULT_CONST_B = _hash_consts(_INIT_B, _MULT_B, 8)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _pcg64_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """The 128-bit PCG64 ``state`` and ``inc`` of
    ``np.random.default_rng(s)`` for every 32-bit seed ``s``.

    ``SeedSequence(s)`` mixes the one entropy word into its pool and
    expands the pool to four 64-bit words; that is all uint32 arithmetic,
    done here on a ``(4, n)`` pool in four rounds, one per source word,
    each mixing it into the other three words of every seed at once.
    PCG64 then seeds from the words ``(state0, inc0)``
    (``pcg_setseq_128_srandom_r``): ``inc = inc0 << 1 | 1`` (in 64-bit
    halves here) and two LCG steps from 0, adding ``state0`` after the
    first, modulo 2**128 (Python ints, as the ``state`` setter takes
    them)."""
    seeds = np.asarray(seeds, dtype=np.uint32)
    pool = np.repeat(_POOL_INIT, len(seeds), axis=1)
    pool[0] = _hashmix(seeds, _XOR_A[0], _MULT_CONST_A[0])
    for src, dst, xor, mult in _ROUNDS:
        r = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], xor, mult)
        pool[dst] = r ^ (r >> _SHIFT)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _XOR_B, _MULT_CONST_B)
    # Word pairs join little-endian into (state_hi, state_lo, inc_hi, inc_lo).
    s_hi, s_lo, i_hi, i_lo = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").T
    one = np.uint64(1)
    inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << one) | one
    incs = [h << 64 | lo for h, lo in zip(inc_hi.tolist(), inc_lo.tolist())]
    states = [((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
              for inc, a, b in zip(incs, s_hi.tolist(), s_lo.tolist())]
    return states, incs


# Spreads of the hidden truth: log-space sigmas of the cloud noise, of
# the per-(inputs, logical op) multipliers τ and of the per-operator
# selectivity-estimate errors, and the straggler probability.
NOISE_SIGMA = 0.14
TAU_SIGMA = 0.5
EST_SIGMA = 0.7
STRAGGLER_PROB = 0.01


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

    def latency(self, op: str, logical: str, input_set: tuple[str, ...], true_in: float,
                true_out: float, row_len: float, in_len: float, partitions: int,
                ctx: float, pm: float, g_inst: np.random.Generator) -> float:
        """Actual exclusive runtime (seconds) of one operator instance
        from its sorted distinct inputs ``input_set``, its statistics,
        the children's average row length ``in_len``, its pipeline
        context ``ctx`` and its ``"lat"`` generator ``g_inst``: one
        ``normal``, one ``random`` and, for a straggler, one
        ``uniform``."""
        alpha, beta, gscale = OP_COEF[op]
        work = (alpha * true_in * in_len + beta * true_out * row_len) / WORK_UNIT
        if op == "Sort":
            work *= 1.0 + 0.07 * math.log2(1.0 + true_in)
        if op == "Exchange":
            work *= 1.0 + 0.10 * math.log2(1.0 + partitions)
        tau = self._tau_cache.get((input_set, logical))
        if tau is None:
            tau = self.tau(input_set, logical)
        pm_factor = math.exp(0.35 * (pm - 0.5))
        noise = math.exp(g_inst.normal(0.0, NOISE_SIGMA))
        if g_inst.random() < STRAGGLER_PROB:
            noise *= g_inst.uniform(2.0, 5.0)
        parallel = work / max(partitions, 1)
        overhead = gscale * OVERHEAD_PER_PARTITION * partitions
        # Cloud noise hits the whole operator (stragglers delay both the
        # compute and the scheduling waves); the data-dependent hidden
        # multiplier τ and the parameter factor scale only the work.
        return (parallel * ctx * tau * pm_factor + overhead) * noise


def true_output(op: str, i: float, s: float, pm: float, kid_outs: list[float]) -> float:
    """True output cardinality of ``op`` from its true input ``i``, its
    template parameter ``s``, the job parameter ``pm`` and its children's
    true outputs."""
    if op == "Extract":
        return i
    if op == "Filter":
        # Instance parameters modulate predicate selectivity (§2.2).
        return i * min(1.0, s * (0.6 + 0.8 * pm))
    if op in ("Project", "Sort", "Exchange", "Output"):
        return i
    if op == "ProcessUDF":
        return i * s
    if op in JOIN_OPS:
        return max(1.0, s * max(kid_outs[0], kid_outs[1]))
    if op in ("HashAggregate", "StreamAggregate"):
        return max(1.0, i * s)
    if op == "LocalAggregate":
        # Partial aggregation reduces less than the global one.
        return max(1.0, i * min(1.0, s * 20))
    raise ValueError(f"unknown op {op}")


def _context(leaf: bool, above_blocking: bool) -> float:
    """Pipeline context of an operator: 1 for a leaf, a penalty above a
    blocking child, a discount above streaming ones."""
    if leaf:
        return 1.0
    return 1.25 if above_blocking else 0.8


def default_partitions(est_rows: float, z_inst: float) -> int:
    """The default partitioning heuristic (§5.2): rows-per-partition
    target with operational jitter (cluster load / machine availability),
    from the instance's standard-normal draw ``z_inst``; the jitter is
    also what makes the partition response identifiable in the training
    logs."""
    target = ROWS_PER_PARTITION * math.exp(0.35 * z_inst)
    return min(max(math.ceil(est_rows / target), 1), MAX_PARTITIONS)


# ---------------------------------------------------------------------------
# Compiled plans: the one implementation of statistics, partitions and
# latencies
# ---------------------------------------------------------------------------

@dataclass
class RowStats:
    """Instance statistics of every row of a :class:`PlanTable`, one
    list per column; ``in_len`` is the children's average row length,
    weighted by their true outputs (a leaf's own row length)."""

    true_in: list[float]
    true_base: list[float]
    true_out: list[float]
    est_in: list[float]
    est_base: list[float]
    est_out: list[float]
    row_len: list[float]
    in_len: list[float]


def derive_rows(table: PlanTable, world: World, base_cards: dict[str, float],
                base_lens: dict[str, float], pm: float,
                draws: dict[tuple[str, str], float]) -> RowStats:
    """True and estimated cardinalities and row lengths of every row,
    children first. Leaves and selectivity-estimating operators read
    their ``"est-jit"`` draw."""
    n = len(table)
    t_in, t_base, t_out = [0.0] * n, [0.0] * n, [0.0] * n
    e_in, e_base, e_out = [0.0] * n, [0.0] * n, [0.0] * n
    r_len, in_len = [0.0] * n, [0.0] * n
    ops, tids, kids_of, sels = table.op, table.tpl_op_id, table.kids, table.sel_param
    est_draw, logical, inputs = table.est_draw, table.logical, table.input_templates
    for row in range(n):
        op, kids = ops[row], kids_of[row]
        if not kids:
            name = inputs[row][0]
            card = base_cards[name]
            r_len[row] = in_len[row] = base_lens[name]
            t_in[row] = t_base[row] = card
            t_out[row] = true_output(op, card, sels[row], pm, [])
            err = math.exp(0.06 * draws["est-jit", tids[row]])
            e_in[row] = e_base[row] = e_out[row] = card * err
            continue
        kid_outs = [t_out[k] for k in kids]
        ti = t_in[row] = sum(kid_outs)
        t_base[row] = sum(map(t_base.__getitem__, kids))
        ei = e_in[row] = sum(map(e_out.__getitem__, kids))
        e_base[row] = sum(map(e_base.__getitem__, kids))
        # Row length transformation by operator.
        child_len = in_len[row] = sum(map(mul, map(r_len.__getitem__, kids), kid_outs)) / max(
            ti, 1.0)
        if op == "Project":
            r_len[row] = child_len * (0.4 + 0.5 * sels[row])
        elif op in JOIN_OPS:
            r_len[row] = sum(map(r_len.__getitem__, kids))
        elif op in ("HashAggregate", "StreamAggregate", "LocalAggregate"):
            r_len[row] = child_len * 0.8
        else:
            r_len[row] = child_len
        to = t_out[row] = true_output(op, ti, sels[row], pm, kid_outs)
        # Estimated output: estimated input × estimated selectivity,
        # where the selectivity estimate is systematically off — errors
        # compound as we move up the plan (§3.1).
        if not est_draw[row]:
            # Cardinality-preserving operators: the optimizer's estimate
            # passes through unchanged (no new estimation error).
            e_out[row] = ei
        else:
            true_sel = to / max(ti, 1.0)
            err = world.est_error_factor(tids[row], logical[row], draws["est-jit", tids[row]])
            e_out[row] = max(1.0, ei * true_sel * err)
    return RowStats(t_in, t_base, t_out, e_in, e_base, e_out, r_len, in_len)


def heuristic_partitions(plans: CompiledPlans, stats: RowStats,
                         draws: dict[tuple[str, str], float]) -> np.ndarray:
    """Partition counts of every position of ``plans`` (§5.2): each
    partitioning operator's count from its local estimated stats and its
    ``"part"`` draw, once per table row; each Exchange feeding a join
    the larger of the join's input stage counts (co-partitioning, joins
    bottom-up); then every other operator's derived count
    (:func:`rederive`)."""
    table = plans.table
    heur = [default_partitions(stats.est_base[r] if table.op[r] == "Extract"
                               else stats.est_in[r], draws["part", table.tpl_op_id[r]])
            for r in plans.part_rows]
    p = np.ones(len(plans), dtype=np.int64)
    p[plans.part_pos] = np.array(heur, dtype=np.int64)[plans.part_ix]
    if len(plans.copart_pos):
        p[plans.copart_pos] = p[plans.copart_src].max(axis=1)
    rederive(plans, p)
    return p


def rederive(plans: CompiledPlans, p: np.ndarray) -> None:
    """Re-propagate partition counts, in place, to every operator that
    derives its count from the partitioning operators below it; every
    Extract and Exchange keeps its count."""
    p[plans.derived_pos] = p[plans.derived_src].max(axis=1)


def latencies(plans: CompiledPlans, positions: Sequence[int], stats: RowStats,
              partitions: list[int], world: World, pm: float,
              rngs: Iterator[np.random.Generator]) -> list[float]:
    """Actual exclusive latency of each of ``positions`` of ``plans`` at
    ``partitions`` (one count per position), each from the next of
    ``rngs``: those operators' ``"lat"`` generators, in order.

    An operator's generator is keyed by ``("lat", *seed_parts,
    tpl_op_id)`` (common random numbers), so two alternative physical
    plans of the same job instance see identical noise for shared
    operators, and the planner experiments (§6.6) compare plans, not
    luck."""
    t = plans.table
    return [world.latency(t.op[r], t.logical[r], t.input_set[r], stats.true_in[r],
                          stats.true_out[r], stats.row_len[r], stats.in_len[r], p,
                          _context(not t.kids[r], t.above_blocking[r]), pm, next(rngs))
            for r, p in zip(map(plans.rows.__getitem__, positions), partitions)]


def plan_latency(plans: CompiledPlans, lo: int, lat: list[float]) -> float:
    """End-to-end latency of the plan starting at position ``lo``, from
    its operators' latencies ``lat``: the critical path of operator
    completion times."""
    done: list[float] = []
    for i, own in enumerate(lat, start=lo):
        done.append(max((done[k - lo] for k in plans.kids[i]), default=0.0) + own)
    return done[-1]


def plan_cpu_seconds(ops: list[str], partitions: list[int], lat: list[float]) -> float:
    """Total processing time (CPU-seconds) of a plan's operators: each
    operator's work across its partitions plus per-container startup
    cost — the resource bill that over-partitioning inflates (§6.6.1,
    Fig 19b)."""
    total = 0.0
    for op, p, own in zip(ops, partitions, lat):
        gscale = OP_COEF[op][2]
        overhead = gscale * OVERHEAD_PER_PARTITION * p
        work = max(own - overhead, 0.0) * p
        total += work + overhead + CPU_STARTUP_PER_PARTITION * p
    return total


def plan_keys(plans: CompiledPlans) -> tuple[list[tuple[str, str]], list[tuple[str, str]],
                                             list[int]]:
    """``(draw_keys, seed_keys, lat_slot)`` of a job instance of
    ``plans``: the ``(kind, tpl_op_id)`` statistics and partition draws
    of every plan, in first-read order; every key it seeds, the draws
    then one ``"lat"`` per distinct operator id; and each position's
    ``"lat"`` index in ``seed_keys``. One plan reads its ``"lat"`` keys
    right after its draws, in position order (:func:`instantiate_plan`),
    so a one-plan set whose lat slots are not consecutive raises."""
    table, rows = plans.table, plans.rows
    ids = table.tpl_op_id
    est = [("est-jit", ids[r]) for r in rows if table.est_draw[r]]
    part = [("part", ids[r]) for r in rows if table.partitioning[r]]
    draw_keys = list(dict.fromkeys(est + part))
    lat_ids = list(dict.fromkeys(ids))
    seed_keys = draw_keys + [("lat", t) for t in lat_ids]
    slot = {t: i for i, t in enumerate(lat_ids, start=len(draw_keys))}
    lat_slot = [slot[ids[r]] for r in rows]
    if len(plans.starts) == 2 and lat_slot != list(range(len(draw_keys), len(seed_keys))):
        raise ValueError("a plan's lat slots are not consecutive in position order")
    return draw_keys, seed_keys, lat_slot


def seeded_draws(draw_keys: list[tuple[str, str]],
                 rngs: Iterator[np.random.Generator]) -> dict[tuple[str, str], float]:
    """The draws of one job instance: ``draws[kind, tpl_op_id]`` for each
    of ``draw_keys`` is the first standard normal of the next of
    ``rngs``, the generators of those keys, in order. Every candidate
    plan of the instance reads the same draws for the operators it
    shares with the others (common random numbers)."""
    return {key: next(rngs).standard_normal() for key in draw_keys}


@dataclass
class Instance:
    """One simulated job instance of a one-plan :class:`CompiledPlans`:
    statistics per position, partition counts and latencies."""

    stats: RowStats
    partitions: list[int]
    latencies: list[float]


def instantiate_plan(plans: CompiledPlans, draw_keys: list[tuple[str, str]], world: World,
                     base_cards: dict[str, float], base_lens: dict[str, float], pm: float,
                     rngs: Iterator[np.random.Generator]) -> Instance:
    """Statistics, heuristic partitions and actual latencies of the one
    plan of ``plans`` (whose :func:`plan_keys` draw keys are
    ``draw_keys``), with per-operator randomness keyed by ``tpl_op_id``
    (common random numbers), so re-planned variants of the same instance
    are directly comparable.

    ``base_cards``/``base_lens`` give the true cardinality and row
    length of each input template for this run. ``rngs`` yields the
    generators of the plan's seed keys in turn, seeded from the
    instance's seed parts: a replayed instance's :class:`RngBatch`
    (Fig 17, Fig 19) or a share of a day's (``Cluster.generate_days``)."""
    draws = seeded_draws(draw_keys, rngs)
    stats = derive_rows(plans.table, world, base_cards, base_lens, pm, draws)
    parts = heuristic_partitions(plans, stats, draws).tolist()
    return Instance(stats, parts,
                    latencies(plans, range(len(plans)), stats, parts, world, pm, rngs))


# ---------------------------------------------------------------------------
# Tree functions, for the benchmark harness only: compile a PlanNode tree,
# run the row functions, write back partitions and latencies
# ---------------------------------------------------------------------------

def instantiate(
    root: PlanNode,
    world: World,
    base_cards: dict[str, float],
    base_lens: dict[str, float],
    pm: float,
    seed_parts: tuple,
) -> None:
    """Fill the partition counts and actual latencies of a plan's nodes,
    in place: :func:`instantiate_plan` with the instance's keys seeded in
    one :class:`RngBatch`. The run's statistics are not kept; the
    compiled path (:func:`instantiate_plan`) returns them."""
    plans = compile_plans([root])
    draw_keys, seed_keys, _ = plan_keys(plans)
    inst = instantiate_plan(plans, draw_keys, world, base_cards, base_lens, pm,
                            iter(RngBatch(instance_seeds(seed_keys, seed_parts))))
    for node, p, lat in zip(root.walk(), inst.partitions, inst.latencies):
        node.partitions = p
        node.actual_latency = lat


def job_latency(root: PlanNode) -> float:
    """End-to-end latency of an executed plan (:func:`plan_latency`)."""
    return plan_latency(compile_plans([root]), 0, [n.actual_latency for n in root.walk()])


def job_cpu_seconds(root: PlanNode) -> float:
    """Total processing time of an executed plan (:func:`plan_cpu_seconds`)."""
    nodes = list(root.walk())
    return plan_cpu_seconds([n.op for n in nodes], [n.partitions for n in nodes],
                            [n.actual_latency for n in nodes])
