"""Assemble EXPERIMENTS.md from the measured tables that the benchmark
suite wrote to .cache/results/.

Usage: python jobs/make_experiments_md.py   (run the benchmarks first)
"""
import os

HERE = os.path.dirname(__file__)
RESULTS = os.path.join(HERE, "..", ".cache", "results")
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
- Fig 19's planning overhead: CLEO plans in about 3.7x the default
  planner's time here (3.1-3.9x over four runs; 10 vs 2.6-3.2 ms per
  job), against the paper's
  1.05-1.10x (look-ups add 5-10% to compile time). Both planners are
  Python and share the simulator's statistics derivation, which draws
  each operator's randomness once per job instance. Profiled on
  cluster4 day 3, about 40% of CLEO's time is the signature pass and
  model look-up of each candidate plan: Fig 19 plans each template
  once, so the planner's per-template memo of them never hits. The
  rest is the statistics, the partition search and the cost curves.
- Table 1's ordering (MSLE best, MedAE worst) reproduces but with far
  less contrast than the paper's 246%-vs-14%: production runtimes carry
  extreme outliers that our softened simulator noise does not.
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
