"""Assemble EXPERIMENTS.md from the measured tables that the benchmark
suite wrote to results/.

Usage: python jobs/make_experiments_md.py   (run the benchmarks first)
"""
import os

HERE = os.path.dirname(__file__)
RESULTS = os.path.join(HERE, "..", "results")
OUT = os.path.join(HERE, "..", "EXPERIMENTS.md")

SECTIONS = [
    ("table1", "Table 1 — regression loss functions",
     "Paper: MedAE 246%, MAE 62%, MSE 36%, MSLE 14% (5-fold CV, elastic-net-style "
     "linear model per operator-subgraph). Shape to match: MSLE wins by a wide "
     "margin; MedAE is worst."),
    ("table23", "Tables 2+3 — selected features (and Fig 5 influence)",
     "Paper: all Table 2/3 features carry at least one non-zero elastic-net weight; "
     "cardinality and per-partition features dominate the aggregate influence. "
     "Shape to match: every candidate feature selected somewhere; top influence on "
     "cardinality/per-partition terms."),
    ("table4", "Table 4 — ML algorithms for operator-subgraph models",
     "Paper: ElasticNet 0.92/14% best; NN 0.89/27%, DT 0.91/19%, FastTree 0.90/20%, "
     "RF 0.89/32%; Default 0.04/258%. Shape to match: every learner crushes Default; "
     "simple regularized models competitive with or better than complex ones on "
     "small per-subgraph training sets."),
    ("table5", "Table 5 — performance of the learned model families",
     "Paper rows (corr/med-err/coverage): Default 0.04/258%/100%, Op-Subgraph "
     "0.92/14%/54%, Op-SubgraphApprox 0.89/16%/76%, Op-Input 0.85/18%/83%, Operator "
     "0.77/42%/100%, Combined 0.84/19%/100%. Shape to match: accuracy falls and "
     "coverage rises from specialized to general; Combined recovers near-specialized "
     "accuracy at 100% coverage."),
    ("table6", "Table 6 — meta-learners for the combined model",
     "Paper: FastTree 0.84/19% best; ElasticNet worst of the learned (0.68/64%) — "
     "the ranking flips vs Table 4 because the meta problem is non-linear. Shape to "
     "match: all learned beat Default; boosted trees at or near the top."),
    ("table7", "Table 7 — all jobs vs ad-hoc jobs (cluster1)",
     "Paper: ad-hoc coverage of Op-Subgraph falls 65%→36% but accuracy stays close "
     "(9%→14%); Combined stays at 100% coverage with modest degradation (21%→29%). "
     "Shape to match: graceful ad-hoc degradation via shared subexpressions and "
     "per-operator models."),
    ("table8", "Table 8 — default vs combined per cluster",
     "Paper: Default 0.05-0.15 corr / 153-256% median error across 4 clusters; "
     "Combined 0.74-0.83 / 15-33% (all jobs) and 0.72-0.81 / 26-40% (ad-hoc). "
     "Shape to match: on every cluster the learned model is several-fold more "
     "accurate and far better correlated."),
    ("fig9", "Figure 9 (tabular) — workload composition",
     "Paper: 4 clusters x 3 days, cluster1 largest (64K jobs/day) to cluster4 "
     "smallest (15-19K), ~80% recurring jobs, most subexpressions common. Our "
     "clusters are ~100x smaller (DESIGN.md). Shape to match: size ordering, "
     "recurring share, common-subexpression share."),
    ("fig15", "Figure 15 / §6.4 (numeric) — impact of cardinality",
     "Paper: Default 236%/0.04, Default+CardLearner 211%/0.01, CLEO 18%/0.84, "
     "CLEO+CardLearner 13%/0.86. Shape to match: perfect cardinalities barely fix "
     "the hand-crafted model; CLEO dominates either way. Our CardLearner stand-in "
     "is the simulator's true cardinalities — the upper bound of any learned "
     "estimator (DESIGN.md)."),
    ("fig17", "Figure 17 + Fig 8c (numeric) — partition exploration",
     "Paper: analytical model beats sampling until ~15-20 samples and needs ~20x "
     "fewer look-ups; geometric sampling beats uniform/random at 4-20 samples."),
    ("fig19", "Figure 19 (numeric) — production replanning (cluster4)",
     "Paper: 22%/39% plans changed (without/with partition exploration), 70% of "
     "changed plans improve, avg latency +15.35% / cumulative +21.3%, processing "
     "time −32.2% avg / −40.4% cumulative, 10 of 12 improved jobs use less "
     "parallelism, optimizer overhead 5-10%."),
    ("fig20", "Figure 20 (numeric) — TPC-H on real Spark",
     "Paper (SF1000, production cluster): 6 of 22 plans change; 4 improve latency "
     "and CPU, 1 latency only, 1 regresses (Q17). Here: 11 TPC-H-lite queries at "
     "sandbox SF; the learned model picks join implementation + partition count."),
]

HEADER = """# EXPERIMENTS — paper vs measured

Every table in the paper's evaluation (§6), plus the three numeric
figure results central to it, reproduced by the benchmark suite
(`pytest benchmarks/ --benchmark-only`). Absolute numbers are not
expected to match — the substrate is a deterministic simulator plus a
local Spark, not Microsoft's production clusters (see DESIGN.md) — but
the *shape* of every result should hold, as described per section.

`paper_*` columns embed the published numbers next to ours; tables
without such columns state the paper's numbers in the preamble.

Every simulated table is checked: `tests/test_golden.py` (Tier-1)
regenerates it and compares it, as printed, with the tracked
`results/<name>.md` this file is built from. Two kinds of rows are
excluded by name, because they are wall-clock timings: Fig 19's
`*_planning_ms_per_job`, `cleo_vs_default_planning_x` and
`cleo_cost_model_share_pct` rows, and all of Fig 20, which times real
Spark queries.

Caveats (honest deviations):

- Raw-scale Pearson correlations are fragile under our heavy-tailed
  simulated runtimes: the learned-family correlation *ladder* is
  compressed and not always ordered as in the paper (our Operator and
  Combined models correlate best because they predict the few largest
  operators well), while the error/coverage ladders match closely.
- The fraction of changed plans in Fig 19 is higher than the paper's
  (our simulated production baseline makes noisier physical choices
  than SCOPE's tuned optimizer, leaving more headroom); the *quality*
  of changes — fraction improved, latency/CPU deltas, wins coming with
  less parallelism — matches.
- Fig 19's planning overhead. Planning time runs from the call to the
  chosen plan; simulating that plan's execution is not counted. Each
  template's candidate plans are compiled before either planner's clock
  starts, so neither planner pays for a compilation the other reuses
  (before, the default planner met each template first and paid it for
  both, and the ratio read 1.1-1.3x). The four timing rows keep two
  significant digits and move with the host's load. Over three runs of
  `python jobs/run.py fig19` (4 cores, a busy shared host), CLEO plans
  in 1.6-2.3 ms per job and the default planner in 0.51-0.78 ms,
  3.0-3.1x, against the paper's 1.05-1.10x; on a quieter host the same
  planners read 0.6 and 0.2 ms, 3.2-3.3x. Every Fig 19 call is a
  template's first CLEO call, so it also resolves the template's models
  and builds its stage layout. The paper's own measure is the cost
  model's share of compile time, 5-10% (§6.6.1). Here the cost model
  (`PlanResult.cost_model_seconds`: look-ups, curve folding, partition
  exploration and pricing) is 73-74% of CLEO's planning time over the
  same three runs. The rest is the simulator's statistics
  derivation, which stands in for SCOPE's own estimation, so the share
  is far from the paper's: our "compiler" does little besides costing.
  Both planners are Python.
- Table 1's ordering (MSLE best, MedAE worst) reproduces but with far
  less contrast than the paper's 246%-vs-14%: production runtimes carry
  extreme outliers that our softened simulator noise does not.
- Table 1's MAE and MedAE rows are chaotic in the last bit. Those two
  losses step Adam by the sign of each raw-scale residual, so a change
  in the last bit of `X·w` can flip a step: one such change moved
  single held-out predictions by up to 3.8x (MAE) and 101x (MedAE).
  The golden check compares these rows as whole percentages, so it
  does not see such moves; a change to those fits' arithmetic order
  may move the two rows.
- Fig 20 changes nearly every plan (paper: 6 of 22): local Spark's
  fixed 64-partition shuffle default is uniformly over-partitioned at
  sandbox scale, so the learned models win almost everywhere.
"""


def main() -> None:
    parts = [HEADER]
    for key, title, preamble in SECTIONS:
        path = os.path.join(RESULTS, f"{key}.md")
        parts.append(f"\n## {title}\n\n{preamble}\n")
        if os.path.exists(path):
            with open(path) as f:
                parts.append("\n" + f.read() + "\n")
        else:
            parts.append("\n_(not yet generated — run the benchmarks)_\n")
    with open(OUT, "w") as f:
        f.write("".join(parts))
    print(f"wrote {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main()
