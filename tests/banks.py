"""Hand-made model banks for tests, and the per-model reference
predictor the bank's gathers are checked against."""
import numpy as np

from repro.core.models import FAMILIES, FAMILY_INDEX, N_WEIGHTS, ModelBank


def bank_of(*models) -> ModelBank:
    """A bank built with the constructor training uses. Each model is
    ``(family name, key, raw_coef, raw_intercept, z_lo, z_hi)``; weights
    shorter than ``N_WEIGHTS`` (no context features) are zero-padded, as
    training pads them."""
    n = len(models)
    fam, key, coef, intercept, z_lo, z_hi = zip(*models) if n else ((),) * 6
    coef = [np.pad(np.asarray(c, dtype=float), (0, N_WEIGHTS - len(c))) for c in coef]
    return ModelBank(
        family=np.array([FAMILY_INDEX[f] for f in fam], dtype=np.int64),
        key=np.array(key, dtype=object),
        raw_coef=np.array(coef, dtype=float).reshape(n, N_WEIGHTS),
        raw_intercept=np.array(intercept, dtype=float),
        z_lo=np.array(z_lo, dtype=float), z_hi=np.array(z_hi, dtype=float),
        std_coef=np.zeros((n, N_WEIGHTS)), n_train=np.full(n, 10), n_iter=np.zeros(n, int),
    )


def find_row(bank: ModelBank, family: str, key) -> int | None:
    """The bank row of ``family``'s model for ``key``, by a scan of the
    table (not the bank's index)."""
    hit = np.flatnonzero((bank.family == FAMILY_INDEX[family]) & (bank.key == key))
    assert len(hit) <= 1
    return int(hit[0]) if len(hit) else None


def find_covering(bank: ModelBank, row) -> tuple[int, object] | None:
    """(bank row, family spec) of the most specialized model covering an
    operator given as a mapping of its keys (the §5.1 cascade), or None."""
    for spec in FAMILIES:
        m = find_row(bank, spec.name, row[spec.key_col])
        if m is not None:
            return m, spec
    return None


def reference_predict(bank: ModelBank, m: int, X: np.ndarray) -> np.ndarray:
    """Model ``m``'s cost on feature rows ``X``: a dot product in log
    space, clipped to the model's envelope, then ``expm1``."""
    z = X @ bank.raw_coef[m, :X.shape[1]] + bank.raw_intercept[m]
    return np.expm1(np.clip(np.clip(z, bank.z_lo[m], bank.z_hi[m]), -30.0, 30.0))
