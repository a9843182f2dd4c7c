"""Linear cost models: elastic net (the paper's default) and a
pluggable-loss gradient-descent variant for the Table 1 comparison.

The paper's elastic net (§3.2-3.4) minimizes mean-squared *log* error
``mean((log(p+1) - log(a+1))^2)``; the log transform "implicitly ensures
that the predicted costs are always positive". We therefore fit a linear
model in log space — ``log1p(cost) = w·x + b`` — by coordinate descent
with the standard elastic-net penalty, and predict ``expm1(w·x + b)``
clipped at 0. Features are standardized internally; learned weights are
exposed both in standardized space (``coef_``) and raw-feature space
(``raw_coef_``, used by the analytical partition exploration of §5.3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


def _standardize(X: np.ndarray):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < _EPS, 1.0, sd)
    return (X - mu) / sd, mu, sd


@dataclass
class ElasticNetFits:
    """K elastic nets fit by :meth:`ElasticNet.fit_groups`, one row per group."""

    coef: np.ndarray  # (K, d) weights on standardized features
    intercept: np.ndarray  # (K,)
    mu: np.ndarray  # (K, d) feature means
    sd: np.ndarray  # (K, d) feature scales (1 for constant columns)
    z_lo: np.ndarray  # (K,) log-space clip bounds
    z_hi: np.ndarray
    n_iter: np.ndarray  # (K,) coordinate-descent sweeps run

    @property
    def raw_coef(self) -> np.ndarray:
        """Weights applicable to raw (unstandardized) features:
        ``t = intercept + sum_j coef_j (x_j - mu_j) / sd_j
        = raw_intercept + sum_j raw_coef_j x_j``."""
        return self.coef / self.sd

    @property
    def raw_intercept(self) -> np.ndarray:
        return self.intercept - (self.coef * self.mu / self.sd).sum(axis=1)


def _coordinate_descent(G: np.ndarray, q: np.ndarray, l1: float, l2: float,
                        max_iter: int, tol: float):
    """Batched coordinate descent on moments ``G`` (K, d, d), ``q`` (K, d).

    The working arrays put the group axis last: row j of ``c``, ``w``,
    ``diag`` and ``delta`` is a K-vector, and ``Gj[j]`` (column j of
    every G, which is symmetric) is a (d, K) block. The inner loop walks
    the rows as views, which write through to the arrays.
    """
    K, d = q.shape
    coef = np.zeros((K, d))
    n_iter = np.full(K, max_iter)
    live = np.arange(K)  # groups still iterating, in batch order
    Gj = np.ascontiguousarray(G.transpose(2, 1, 0))  # Gj[j, i, k] = G[k, i, j]
    diag = np.ascontiguousarray(np.diagonal(G, axis1=1, axis2=2).T)
    # A (numerically) constant column keeps weight 0: dividing by an
    # infinite denominator gives exactly that.
    denom = np.where(diag < _EPS, np.inf, diag + l2)
    c = np.ascontiguousarray(q.T)  # Xsᵀr/n at w = 0
    w = np.zeros((d, K))
    delta = np.zeros((d, K))
    for it in range(1, max_iter + 1):
        if not len(live):
            break
        for cj, wj, dj, denj, gj, delj in zip(c, w, diag, denom, Gj, delta):
            rho = cj + dj * wj
            # Soft threshold: sign(rho) * max(|rho| - l1, 0).
            new = (rho - np.minimum(np.maximum(rho, -l1), l1)) / denj
            np.subtract(new, wj, out=delj)
            c -= gj * delj
            wj[...] = new
        done = np.abs(delta).max(axis=0) < tol
        if done.any():
            coef[live[done]] = w[:, done].T
            n_iter[live[done]] = it
            keep = ~done
            live, w, c, delta = live[keep], w[:, keep], c[:, keep], delta[:, keep]
            Gj, diag, denom = Gj[:, :, keep], diag[:, keep], denom[:, keep]
    coef[live] = w.T  # the groups that ran max_iter sweeps
    return coef, n_iter


class ElasticNet:
    """L1+L2-regularized linear regression on the log1p-transformed target.

    Parameters mirror the paper (§3.4): ``alpha=1.0``, ``l1_ratio=0.5``,
    ``fit_intercept=True``. ``alpha`` here is scaled by a factor chosen
    for standardized features and a log-scale target (the paper's scale
    is not published); the default keeps a handful of non-zero weights
    per small training group, which is the behaviour §3.4 describes
    ("automatic feature selection"). :meth:`fit` is the one-group case
    of :meth:`fit_groups`.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        l1_ratio: float = 0.5,
        fit_intercept: bool = True,
        max_iter: int = 300,
        tol: float = 1e-6,
        alpha_scale: float = 0.02,
    ):
        self.alpha = alpha * alpha_scale
        self.l1_ratio = l1_ratio
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ElasticNet":
        fits = self.fit_groups(X, y, np.array([0, len(X)]))
        self.coef_, self.intercept_ = fits.coef[0], float(fits.intercept[0])
        self.mu_, self.sd_ = fits.mu[0], fits.sd[0]
        self.raw_coef_, self.raw_intercept_ = fits.raw_coef[0], float(fits.raw_intercept[0])
        self.z_lo_, self.z_hi_ = float(fits.z_lo[0]), float(fits.z_hi[0])
        self.n_iter_ = int(fits.n_iter[0])
        return self

    def fit_groups(self, X: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> ElasticNetFits:
        """Fit one model per row group in a single batched solve.

        Group k is rows ``bounds[k]:bounds[k + 1]`` of ``X`` and ``y``.
        Each group's features are standardized, and the objective
        ``1/(2n)||t - Xs w||^2 + l1||w||_1 + l2/2 ||w||^2`` is minimized
        by coordinate descent with covariance updates (Friedman, Hastie
        & Tibshirani, JSS 2010): a group's data enter only through the
        moments ``G = XsᵀXs/n`` and ``q = Xsᵀ(t - t̄)/n``, so one
        coordinate step is a few numpy operations over all groups.

        Every group has its own stopping test (the largest weight change
        of a sweep below ``tol``) and leaves the batch once it passes.
        All arithmetic on a group is elementwise, so its result is
        bit-identical whichever other groups share the batch.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.log1p(np.maximum(y, 0.0))
        K, d = len(bounds) - 1, X.shape[1]
        mu, sd, G = np.empty((K, d)), np.empty((K, d)), np.empty((K, d, d))
        q, intercept = np.empty((K, d)), np.zeros(K)
        z_lo, z_hi = np.empty(K), np.empty(K)
        for k in range(K):
            lo, hi = bounds[k], bounds[k + 1]
            Xs, mu[k], sd[k] = _standardize(X[lo:hi])
            tk = t[lo:hi]
            if self.fit_intercept:
                intercept[k] = tk.mean()
            G[k] = Xs.T @ Xs / (hi - lo)
            q[k] = Xs.T @ (tk - intercept[k]) / (hi - lo)
            # Extrapolation guard: a linear model in log space explodes
            # multiplicatively outside the training envelope, so clip
            # predictions to the observed target range plus headroom.
            z_lo[k], z_hi[k] = tk.min() - 0.7, tk.max() + 0.7
        l1 = self.alpha * self.l1_ratio
        l2 = self.alpha * (1.0 - self.l1_ratio)
        coef, n_iter = _coordinate_descent(G, q, l1, l2, self.max_iter, self.tol)
        return ElasticNetFits(coef, intercept, mu, sd, z_lo, z_hi, n_iter)

    def predict_log(self, X: np.ndarray) -> np.ndarray:
        """Prediction in log1p space (the model's native space)."""
        X = np.asarray(X, dtype=float)
        z = X @ self.raw_coef_ + self.raw_intercept_
        return np.clip(z, self.z_lo_, self.z_hi_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.expm1(np.clip(self.predict_log(X), -30.0, 30.0))


class GDLinear:
    """Linear model in log space trained with a pluggable loss (Table 1).

    The prediction is always ``expm1(w·x + b)``; the *loss* compares
    prediction and actual on the scale the loss dictates:

    - ``msle``: mean squared error in log space (the paper's choice) —
      equivalent to :class:`ElasticNet` without penalty;
    - ``mse``: mean squared error on the raw scale;
    - ``mae``: mean absolute error on the raw scale;
    - ``medae``: median absolute error on the raw scale, optimized via
      an iteratively-reweighted scheme concentrating weight around the
      current median residual.

    Trained with Adam on standardized features.
    """

    def __init__(self, loss: str = "msle", lr: float = 0.05, epochs: int = 400, l2: float = 1e-4):
        if loss not in ("msle", "mse", "mae", "medae"):
            raise ValueError(f"unknown loss {loss!r}")
        self.loss = loss
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GDLinear":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        Xs, self.mu_, self.sd_ = _standardize(X)
        n, d = Xs.shape
        t = np.log1p(np.maximum(y, 0.0))
        w = np.zeros(d)
        b = float(t.mean())
        m = np.zeros(d + 1)
        v = np.zeros(d + 1)
        b1, b2, eps = 0.9, 0.999, 1e-8
        # Scale raw-space losses so gradients are comparable across
        # workloads with very different cost magnitudes.
        y_scale = max(float(np.mean(y)), 1.0)
        for it in range(1, self.epochs + 1):
            z = np.clip(Xs @ w + b, -30.0, 30.0)
            if self.loss == "msle":
                # d/dz mean (z - t)^2
                gz = 2.0 * (z - t) / n
            else:
                p = np.expm1(z)
                res = (p - y) / y_scale
                if self.loss == "mse":
                    gl = 2.0 * res / n
                elif self.loss == "mae":
                    gl = np.sign(res) / n
                else:  # medae: weight residuals near the median |res|
                    a = np.abs(res)
                    med = np.median(a)
                    band = 0.5 * med + 1e-9
                    wts = np.exp(-((a - med) ** 2) / (2 * band**2))
                    wts /= wts.sum() + 1e-12
                    gl = np.sign(res) * wts
                # chain rule through p = expm1(z): dp/dz = exp(z)
                gz = gl * np.exp(z) / y_scale
            gw = Xs.T @ gz + self.l2 * w
            gb = float(gz.sum())
            g = np.concatenate([gw, [gb]])
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**it)
            vh = v / (1 - b2**it)
            step = self.lr * mh / (np.sqrt(vh) + eps)
            w -= step[:d]
            b -= step[d]
        self.coef_ = w
        self.intercept_ = b
        self.z_lo_, self.z_hi_ = float(t.min()) - 0.7, float(t.max()) + 0.7
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Xs = (X - self.mu_) / self.sd_
        z = np.clip(Xs @ self.coef_ + self.intercept_, self.z_lo_, self.z_hi_)
        return np.expm1(np.clip(z, -30.0, 30.0))
