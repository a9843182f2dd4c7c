"""The batched seeder (``simulator.RngBatch``) and the instance seeds
(``simulator.instance_seeds``) against ``np.random.default_rng``, one
fresh generator per seed."""
import math

import numpy as np
import pytest

from repro.scope import simulator as sim
from repro.scope.plan import assign_input_templates, compile_plans, expand_physical, hash64
from repro.scope.workload import Cluster, tiny_cluster

SEEDS = np.concatenate([
    np.array([0, 1, 2**32 - 1], dtype=np.uint32),
    np.random.default_rng(0).integers(0, 2**32, 10_000, dtype=np.uint32),
])


def test_states_are_default_rng_states():
    n = 0
    for s, g in zip(SEEDS.tolist(), sim.RngBatch(SEEDS)):
        assert g.bit_generator.state == np.random.default_rng(s).bit_generator.state, s
        n += 1
    assert n == len(SEEDS)


@pytest.mark.parametrize("n", range(1, 65))
def test_states_at_every_small_batch_length(n):
    """A planner call seeds a dozen or two keys: every length up to 64
    gives each seed ``default_rng``'s state."""
    seeds = SEEDS[n:2 * n]
    states = [g.bit_generator.state for g in sim.RngBatch(seeds)]
    assert states == [np.random.default_rng(s).bit_generator.state for s in seeds.tolist()]


# The draw sequences the simulator makes from one generator: a statistics
# draw, an instance's sizes (pm, then one size per input), and a latency
# (noise, straggler test, straggler factor).
SEQUENCES = {
    "standard_normal": lambda g: [g.standard_normal()],
    "sizes": lambda g: [g.random()] + [g.normal(0.0, 0.25) for _ in range(3)],
    "latency": lambda g: [g.normal(0.0, sim.NOISE_SIGMA), g.random(), g.uniform(2.0, 5.0)],
}


@pytest.mark.parametrize("draw", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_draw_sequences_are_default_rng_draws(draw):
    for s, g in zip(SEEDS.tolist(), sim.RngBatch(SEEDS)):
        assert draw(g) == draw(np.random.default_rng(s)), s


def test_keyed_batch_is_rng_per_key():
    """Hashing the keys: the seeds of a tiny day's runs, as the workload
    generator makes them (a ``"sizes"`` key, then
    :func:`sim.instance_seeds` of the run's seed keys), give
    every key ``_rng``'s generator, in key order."""
    cl = Cluster(tiny_cluster())
    keys, seeds = [], []
    for tpl, k in cl.runs(1):
        seed_parts = (cl.cfg.name, tpl.tpl_id, 1, k)
        root = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(root)
        plans = compile_plans([root])
        keys += [("sizes", tpl.tpl_id, 1, k),
                 *((kind, *seed_parts, op_id)
                   for kind, op_id in sim.plan_keys(plans)[1])]
        seeds += [hash64("sizes", tpl.tpl_id, 1, k) & 0xFFFF_FFFF,
                  *sim.instance_seeds(tpl.executed().seed_keys, seed_parts)]
    assert len(keys) > 500
    for key, g in zip(keys, sim.RngBatch(seeds), strict=True):
        assert g.bit_generator.state == sim._rng(*key).bit_generator.state, key


def test_take_sets_each_slot():
    """``take`` yields the generator of each slot it is given, in that
    order, repeats included, as a planner reads its chosen plan's
    latency keys out of the batch."""
    batch = sim.RngBatch(SEEDS[:20])
    slots = [19, 3, 3, 0, 12]
    got = [g.bit_generator.state for g in batch.take(slots)]
    assert got == [np.random.default_rng(SEEDS[k]).bit_generator.state for k in slots]


def reference_drift(cl: Cluster, name: str, day: int) -> float:
    f = 1.0
    for d in range(2, day + 1):
        f *= math.exp(np.random.default_rng(
            hash64(cl.cfg.name, "drift", name, d) & 0xFFFF_FFFF).normal(0.0, 0.15))
    return f


def test_sizes_survive_drift_drawn_midway():
    """``_instance_inputs`` reads one batch generator for all of an
    instance's sizes, and with a cold drift memo ``_input_drift`` seeds
    and draws between those reads. The sizes must still be the ones a
    fresh ``"sizes"`` generator gives, and the drift the unmemoized one."""
    cl = Cluster(tiny_cluster())
    day = 3
    runs = cl.runs(day)
    rngs = iter(sim.RngBatch([hash64("sizes", tpl.tpl_id, day, k) & 0xFFFF_FFFF
                              for tpl, k in runs]))
    midway = 0
    for tpl, k in runs:
        cold = len(cl._drift)
        pm, cards, _ = cl._instance_inputs(tpl, day, next(rngs))
        midway += len(cl._drift) > cold
        g = np.random.default_rng(hash64("sizes", tpl.tpl_id, day, k) & 0xFFFF_FFFF)
        want_pm = float(g.random())
        want = {name: max(10.0, cl.inputs[name].base_card * reference_drift(cl, name, day)
                          * math.exp(g.normal(0.0, 0.25)))
                for name in cards}
        assert (pm, cards) == (want_pm, want), (tpl.tpl_id, k)
    assert midway > 0
