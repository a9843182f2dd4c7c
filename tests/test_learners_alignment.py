"""The learners' bits do not depend on where their inputs sit in memory.

numpy's matrix-vector product ``X @ w`` can round the last bit of a
result differently depending on where ``X`` starts within a 64-byte
line, so the learners form ``X·w`` as ``(X * w).sum(axis=1)``. Each
case places the input of such a product at every 8-byte offset of a
64-byte line and requires the same bits at each.
"""
import numpy as np
import pytest

from repro.core.learners import linear, mlp
from repro.core.learners.linear import ElasticNet, GDLinear
from repro.core.learners.mlp import MLPRegressor

OFFSETS = range(0, 64, 8)


def placed(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def data(n: int = 60, d: int = 27, seed: int = 0):
    g = np.random.default_rng(seed)
    X = np.abs(g.normal(3.0, 2.0, (n, d)))
    y = np.expm1(X @ g.normal(0.0, 0.1, d) + g.normal(0.0, 0.2, n))
    return X, np.maximum(y, 0.0)


def bits(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def same_at_every_offset(result) -> None:
    """``result(offset)`` returns the same bits at every offset."""
    want = result(0)
    for offset in OFFSETS[1:]:
        assert result(offset) == want, offset


def test_elastic_net_predict():
    X, y = data()
    model = ElasticNet().fit(X, y)
    same_at_every_offset(lambda off: bits(model.predict(placed(X, off))))


@pytest.mark.parametrize("loss", ["msle", "mse"])
def test_gd_linear_fit(monkeypatch, loss):
    """``GDLinear.fit`` multiplies its standardized features by the
    weights every epoch; they are placed at the offset."""
    X, y = data()
    standardize_unplaced = linear._standardize

    def result(offset):
        def standardize(X):
            Xs, mu, sd = standardize_unplaced(X)
            return placed(Xs, offset), mu, sd

        with monkeypatch.context() as m:
            m.setattr(linear, "_standardize", standardize)
            m.setattr(GDLinear, "epochs", 50)
            model = GDLinear(loss=loss).fit(X, y)
        return bits(model.coef_, [model.intercept_])

    same_at_every_offset(result)


class _PlacedRelu:
    """numpy, except that ``maximum`` (the MLP's ReLU) returns its result
    placed at ``offset``: the hidden activations the output layer reads."""

    def __init__(self, offset: int):
        self.offset = offset

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args):
        return placed(np.maximum(*args), self.offset)


def test_mlp_fit(monkeypatch):
    X, y = data()

    def result(offset):
        with monkeypatch.context() as m:
            m.setattr(mlp, "np", _PlacedRelu(offset))
            m.setattr(MLPRegressor, "epochs", 20)
            model = MLPRegressor().fit(X, y)
        return bits(*model.params_)

    same_at_every_offset(result)
