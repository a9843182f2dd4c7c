"""3-layer perceptron regressor with the paper's §3.4 hyper-parameters:
hidden layer size 30, ReLU activations, Adam solver, L2 = 0.005.

Fits ``log1p(cost)`` (MSLE objective) over standardized features.
"""
from __future__ import annotations

import numpy as np

from repro.core.learners.linear import _standardize


class MLPRegressor:
    def __init__(
        self,
        hidden: int = 30,
        l2: float = 0.005,
        lr: float = 0.01,
        epochs: int = 300,
        batch_size: int = 256,
        seed: int = 0,
    ):
        self.hidden = hidden
        self.l2 = l2
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.log1p(np.maximum(y, 0.0))
        Xs, self.mu_, self.sd_ = _standardize(X)
        n, d = Xs.shape
        h = self.hidden
        rng = np.random.default_rng(self.seed)
        # Two hidden layers (input -> h -> h -> 1): "3-layers" in the
        # paper counts the layers of weights.
        params = [
            rng.normal(0, np.sqrt(2.0 / d), (d, h)),
            np.zeros(h),
            rng.normal(0, np.sqrt(2.0 / h), (h, h)),
            np.zeros(h),
            rng.normal(0, np.sqrt(2.0 / h), (h, 1)),
            np.array([t.mean()]),
        ]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        b1, b2, eps = 0.9, 0.999, 1e-8
        step = 0
        bs = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for s in range(0, n, bs):
                idx = order[s : s + bs]
                xb, tb = Xs[idx], t[idx]
                W1, b1_, W2, b2_, W3, b3_ = params
                z1 = xb @ W1 + b1_
                a1 = np.maximum(z1, 0)
                z2 = a1 @ W2 + b2_
                a2 = np.maximum(z2, 0)
                out = (a2 @ W3 + b3_).ravel()
                g_out = 2.0 * (out - tb) / len(idx)
                gW3 = a2.T @ g_out[:, None] + self.l2 * W3
                gb3 = np.array([g_out.sum()])
                g_a2 = g_out[:, None] @ W3.T
                g_z2 = g_a2 * (z2 > 0)
                gW2 = a1.T @ g_z2 + self.l2 * W2
                gb2 = g_z2.sum(axis=0)
                g_a1 = g_z2 @ W2.T
                g_z1 = g_a1 * (z1 > 0)
                gW1 = xb.T @ g_z1 + self.l2 * W1
                gb1 = g_z1.sum(axis=0)
                grads = [gW1, gb1, gW2, gb2, gW3, gb3]
                step += 1
                for k in range(6):
                    m[k] = b1 * m[k] + (1 - b1) * grads[k]
                    v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
                    mh = m[k] / (1 - b1**step)
                    vh = v[k] / (1 - b2**step)
                    params[k] -= self.lr * mh / (np.sqrt(vh) + eps)
        self.params_ = params
        self.z_lo_, self.z_hi_ = float(t.min()) - 0.7, float(t.max()) + 0.7
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Xs = (X - self.mu_) / self.sd_
        W1, b1_, W2, b2_, W3, b3_ = self.params_
        a1 = np.maximum(Xs @ W1 + b1_, 0)
        a2 = np.maximum(a1 @ W2 + b2_, 0)
        z = np.clip((a2 @ W3 + b3_).ravel(), self.z_lo_, self.z_hi_)
        return np.expm1(np.clip(z, -30, 30))
