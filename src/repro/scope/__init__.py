"""SCOPE-like substrate: plan IR, recurring-job workload generator,
ground-truth latency simulator, and the hand-crafted default cost model.

The paper's learning problem consumes *operator-instance logs* from
Microsoft's SCOPE clusters: for every physical operator of every
executed job, the estimated statistics the optimizer saw (cardinalities,
row lengths, partition counts), plan-shape signatures, and the actual
exclusive runtime. This package synthesizes logs with the same
statistical structure (see DESIGN.md for the substitution argument):

- :mod:`repro.scope.plan` — operator trees, stages and the recursive
  64-bit signatures of §5.1 (subgraph / subgraphApprox / op-input);
- :mod:`repro.scope.workload` — recurring templates with daily drifting
  inputs, shared prep pipelines (common subexpressions), template churn
  and ad-hoc jobs across four differently-sized clusters;
- :mod:`repro.scope.simulator` — ground-truth exclusive latencies with
  pipeline/blocking context effects, per-(input, operator) hidden
  multipliers, partition-count response ``work/P + γ·P``, lognormal
  cloud noise and rare straggler outliers; plus estimated statistics
  whose errors compound up the plan;
- :mod:`repro.scope.default_cost` — the miscalibrated hand-crafted cost
  model that CLEO replaces.
"""
