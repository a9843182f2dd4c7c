"""From-scratch numpy regressors used by CLEO (§3.4, §4.3).

No ML library ships in this environment, so the five model families the
paper evaluates are implemented here with the paper's hyper-parameters:

- :class:`~repro.core.learners.linear.ElasticNet` — L1+L2 regularized
  linear regression on the log-transformed target (the paper's MSLE
  loss), fit by coordinate descent with covariance updates, batched
  over many groups (``fit_groups``) and over batches of different
  feature counts (``fit_batches``: the whole model bank in one solve).
  The workhorse for all individual (per-signature) models.
- :class:`~repro.core.learners.linear.GDLinear` — gradient-descent
  linear model with pluggable loss (median-absolute, mean-absolute,
  mean-squared, mean-squared-log), used only for the Table 1 loss
  comparison.
- :class:`~repro.core.learners.tree.DecisionTreeRegressor` — depth-15
  CART with histogram splits.
- :class:`~repro.core.learners.ensemble.RandomForestRegressor` — 20
  trees, depth 5, bagging + feature subsampling.
- :class:`~repro.core.learners.ensemble.FastTreeRegressor` — stochastic
  gradient-boosted trees (20 trees, depth 5, subsample 0.9), the MART
  variant the paper uses as the combined-model meta-learner. Each
  boosting round grows one tree per model; ``fit_many`` grows round r
  of many models (the 12 per-operator meta-models) as one forest.
- :class:`~repro.core.learners.mlp.MLPRegressor` — 3-layer perceptron,
  hidden size 30, ReLU, Adam, L2 = 0.005.

All five fit the log1p of the target (the paper's MSLE objective) and
predict on the raw scale. The three tree learners keep their trees as
one :class:`~repro.core.learners.tree.Forest` table of node arrays,
grown level by level by :func:`~repro.core.learners.tree.grow`.
"""
from repro.core.learners.ensemble import FastTreeRegressor, RandomForestRegressor
from repro.core.learners.linear import ElasticNet, GDLinear
from repro.core.learners.mlp import MLPRegressor
from repro.core.learners.tree import DecisionTreeRegressor

# Factories are the classes themselves: their class constants (and
# ElasticNet's default alpha) carry the paper's hyper-parameters.
LEARNER_FACTORIES = {
    "Elastic net": ElasticNet,
    "Decision Tree": DecisionTreeRegressor,
    "Random Forest": RandomForestRegressor,
    "FastTree Regression": FastTreeRegressor,
    "Neural Network": MLPRegressor,
}

__all__ = [
    "ElasticNet",
    "GDLinear",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "FastTreeRegressor",
    "MLPRegressor",
    "LEARNER_FACTORIES",
]
