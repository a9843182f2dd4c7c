"""Feature definitions of Tables 2 and 3, plus the two context features
(CL, D) the operator-input model adds (§4.2).

Basic features (Table 2): input cardinality I, base cardinality B,
output cardinality C, average row length L, partition count P,
normalized input IN, parameters PM. Derived features (Table 3) combine
them: sqrt/log transforms, input×output products, and per-partition
variants — the same 27-feature candidate set the paper feeds every
model, letting elastic net's L1 term do automatic feature selection.

:func:`feature_matrix` is the one implementation: pandas (or a mapping
of numpy arrays) → numpy, used by training (on the driver and inside
Spark's training UDFs), by prediction and by the planner's cost curves.
``tests/test_features.py`` checks it against the same formulas written
as SQL and evaluated by DuckDB.

The per-partition features are also what the resource-aware planning
of §5.2-§5.3 consumes: every feature of the form ``g(I,C,L)/P``
contributes its learned weight to θ_P, the raw ``P`` feature contributes
θ_C, and every other feature is free of P (see
:func:`repro.optimizer.resource.fold_curves`).
"""
from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter

import numpy as np
import pandas as pd

# Each entry: (name, lambda over the input columns, whether the feature
# has the form g(I,C,L)/P). A lambda reads the columns through
# :class:`_Columns`, which computes each column's log1p and sqrt once.
_LOG = np.log1p


class _Columns(dict):
    """The input columns, with each one's ``log1p`` and ``sqrt`` made on
    first use and kept."""

    def __missing__(self, key: tuple[str, str]) -> np.ndarray:
        fn, col = key
        out = self[key] = (_LOG if fn == "log" else np.sqrt)(self[col])
        return out


def _defs():
    return [
        # --- basic (Table 2) ------------------------------------------
        ("f_I", lambda d: d["I"], False),
        ("f_B", lambda d: d["B"], False),
        ("f_C", lambda d: d["C"], False),
        ("f_L", lambda d: d["L"], False),
        ("f_P", lambda d: d["P"], False),
        ("f_IN", lambda d: d["in_hash"], False),
        ("f_PM", lambda d: d["pm"], False),
        # --- input or output data (Table 3) ---------------------------
        ("f_sqrtI", lambda d: d["sqrt", "I"], False),
        ("f_sqrtB", lambda d: d["sqrt", "B"], False),
        ("f_LI", lambda d: d["L"] * d["I"], False),
        ("f_LB", lambda d: d["L"] * d["B"], False),
        ("f_LlogB", lambda d: d["L"] * d["log", "B"], False),
        ("f_LlogI", lambda d: d["L"] * d["log", "I"], False),
        ("f_LlogC", lambda d: d["L"] * d["log", "C"], False),
        # --- input x output (Table 3) ---------------------------------
        ("f_BC", lambda d: d["B"] * d["C"], False),
        ("f_IC", lambda d: d["I"] * d["C"], False),
        ("f_BlogC", lambda d: d["B"] * d["log", "C"], False),
        ("f_IlogC", lambda d: d["I"] * d["log", "C"], False),
        ("f_logIlogC", lambda d: d["log", "I"] * d["log", "C"], False),
        ("f_logBlogC", lambda d: d["log", "B"] * d["log", "C"], False),
        # --- per-partition (Table 3) ----------------------------------
        ("f_I_P", lambda d: d["I"] / d["P"], True),
        ("f_C_P", lambda d: d["C"] / d["P"], True),
        ("f_IL_P", lambda d: d["I"] * d["L"] / d["P"], True),
        ("f_CL_P", lambda d: d["C"] * d["L"] / d["P"], True),
        ("f_sqrtI_P", lambda d: d["sqrt", "I"] / d["P"], True),
        ("f_sqrtC_P", lambda d: d["sqrt", "C"] / d["P"], True),
        ("f_logI_P", lambda d: d["log", "I"] / d["P"], True),
    ]


_DEFS = _defs()
FEATURE_NAMES: list[str] = [n for n, _, _ in _DEFS]
CONTEXT_NAMES: list[str] = ["f_CL", "f_D"]  # operator-input extras (§4.2)
ALL_FEATURE_NAMES: list[str] = FEATURE_NAMES + CONTEXT_NAMES

_INPUTS = ("I", "B", "C", "L", "P", "in_hash", "pm")
_CONTEXT = ("cl", "depth")

# The column functions of a feature matrix without and with the context.
_FNS = [fn for _, fn, _ in _DEFS]
_CONTEXT_FNS = _FNS + [itemgetter(c) for c in _CONTEXT]

# Index maps for the partition-cost curves (§5.2-§5.3).
P_FEATURE_INDEX = FEATURE_NAMES.index("f_P")
P_INVERSE_INDEX: list[int] = [i for i, (_, _, over_p) in enumerate(_DEFS) if over_p]


def feature_matrix(pdf: pd.DataFrame | Mapping[str, np.ndarray],
                   context: bool = False) -> np.ndarray:
    """Numpy feature matrix from a log DataFrame, or a mapping of
    equal-length arrays, with columns I, B, C, L, P, in_hash, pm (+ cl,
    depth when ``context``).

    Every input column is first made a C-contiguous float64 array
    (copied if it is not one): numpy's vectorized ``log1p`` can round
    the last bit differently on strided views, so the features of a
    value would otherwise depend on where it sits in memory."""
    d = _Columns((c, np.ascontiguousarray(pdf[c], dtype=float))
                 for c in (*_INPUTS, *(_CONTEXT if context else ())))
    fns = _CONTEXT_FNS if context else _FNS
    out = np.empty((len(d["I"]), len(fns)))
    for j, fn in enumerate(fns):
        out[:, j] = fn(d)
    return out
