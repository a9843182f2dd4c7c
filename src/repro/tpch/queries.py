"""TPC-H-lite query templates (Figure 20 experiment).

Each query is a SQL template runnable verbatim on Spark and DuckDB:
Spark reads the join-strategy hint in the ``{hint}`` slot (a ``/*+ */``
comment), DuckDB parses it as a comment and ignores it. The eleven queries
cover the plan-change classes of §6.6.2: join-implementation switches
(Q8, Q20), partitioning-sensitive multi-joins (Q5, Q8, Q9), final
aggregation/repartition (Q16), and the local-aggregation case that
regressed in the paper (Q17).

``params(seed)`` yields the run's parameters — the paper re-ran each
query "10 times, each time with randomly chosen different parameters"
to build the training set.
"""
from __future__ import annotations

import numpy as np

_P_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
_NATIONS = ["FRANCE", "GERMANY", "CHINA", "RUSSIA", "UNITED STATES"]
_FLAGS = ["N", "R", "A"]


def _brand(g) -> str:
    return f"Brand#{g.integers(1, 6)}{g.integers(1, 6)}"


def _date(g, lo: str, days: int) -> str:
    base = np.datetime64(lo)
    return str(base + np.timedelta64(int(g.integers(0, days)), "D"))


class Query:
    def __init__(self, name: str, template: str, params_fn, hint_tables: tuple[str, ...]):
        self.name = name
        self.template = template
        self.params_fn = params_fn
        self.hint_tables = hint_tables  # aliases eligible for join hints

    def params(self, seed: int) -> dict:
        return self.params_fn(np.random.default_rng(seed))

    def sql(self, params: dict, hint: str = "") -> str:
        return self.template.format(hint=hint, **params)

    def hint_clause(self, strategy: str) -> str:
        """Spark join hint comment for ``"default"`` (none) or ``"shuffle_hash"``."""
        if strategy == "default" or not self.hint_tables:
            return ""
        if strategy != "shuffle_hash":
            raise ValueError(f"unknown join strategy {strategy!r}")
        return f"/*+ SHUFFLE_HASH({', '.join(self.hint_tables)}) */ "


QUERIES: dict[str, Query] = {}


def _q(name, template, params_fn, hint_tables):
    QUERIES[name] = Query(name, template, params_fn, hint_tables)


_q(
    "q1",
    """SELECT {hint}l_returnflag AS rf, l_linestatus AS ls,
       SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       AVG(l_discount) AS avg_disc, COUNT(*) AS cnt
FROM lineitem WHERE l_shipdate <= TIMESTAMP '{date} 00:00:00'
GROUP BY l_returnflag, l_linestatus""",
    lambda g: {"date": _date(g, "1996-01-01", 900)},
    (),
)

_q(
    "q3",
    """SELECT {hint}o_orderpriority AS prio,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer c JOIN orders o ON c_custkey = o_custkey
JOIN lineitem l ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{segment}' AND o_orderdate < TIMESTAMP '{date} 00:00:00'
  AND l_shipdate > TIMESTAMP '{date} 00:00:00'
GROUP BY o_orderpriority""",
    lambda g: {"segment": str(g.choice(_SEGMENTS)), "date": _date(g, "1995-01-01", 500)},
    ("l",),
)

_q(
    "q5",
    """SELECT {hint}n_name AS nation,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer c JOIN orders o ON c_custkey = o_custkey
JOIN lineitem l ON l_orderkey = o_orderkey
JOIN supplier s ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation n ON s_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '{d1} 00:00:00' AND o_orderdate < TIMESTAMP '{d2} 00:00:00'
GROUP BY n_name""",
    lambda g: (lambda y: {"d1": f"{y}-01-01", "d2": f"{y + 1}-01-01"})(
        int(g.integers(1993, 1998))
    ),
    ("l",),
)

_q(
    "q8",
    """SELECT {hint}EXTRACT(YEAR FROM o_orderdate) AS o_year,
       SUM(l_extendedprice * (1 - l_discount)) AS volume
FROM part p JOIN lineitem l ON p_partkey = l_partkey
JOIN orders o ON l_orderkey = o_orderkey
JOIN customer c ON o_custkey = c_custkey
JOIN nation n ON c_nationkey = n_nationkey
WHERE p_type = '{ptype}'
GROUP BY EXTRACT(YEAR FROM o_orderdate)""",
    lambda g: {"ptype": str(g.choice(_P_TYPES))},
    ("l", "o"),
)

_q(
    "q9",
    """SELECT {hint}n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year,
       SUM(l_extendedprice * (1 - l_discount) - 0.5 * l_quantity) AS profit
FROM part p JOIN lineitem l ON p_partkey = l_partkey
JOIN supplier s ON l_suppkey = s_suppkey
JOIN orders o ON l_orderkey = o_orderkey
JOIN nation n ON s_nationkey = n_nationkey
WHERE p_brand = '{brand}'
GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate)""",
    lambda g: {"brand": _brand(g)},
    ("l", "o"),
)

_q(
    "q11",
    """SELECT {hint}l_partkey AS partkey,
       SUM(l_extendedprice * l_quantity) AS value
FROM lineitem l JOIN supplier s ON l_suppkey = s_suppkey
JOIN nation n ON s_nationkey = n_nationkey
WHERE n_name = '{nation}'
GROUP BY l_partkey
HAVING SUM(l_extendedprice * l_quantity) > {threshold}""",
    lambda g: {"nation": str(g.choice(_NATIONS)), "threshold": int(g.integers(1, 5)) * 100000},
    ("l",),
)

_q(
    "q12",
    """SELECT {hint}o_orderpriority AS prio, COUNT(*) AS cnt
FROM orders o JOIN lineitem l ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '{d1} 00:00:00' AND l_shipdate < TIMESTAMP '{d2} 00:00:00'
  AND l_returnflag = '{flag}'
GROUP BY o_orderpriority""",
    lambda g: (lambda y: {
        "d1": f"{y}-01-01", "d2": f"{y + 1}-01-01", "flag": str(g.choice(_FLAGS))
    })(int(g.integers(1993, 1998))),
    ("l",),
)

_q(
    "q14",
    """SELECT {hint}100.0 * SUM(CASE WHEN p_type = 'PROMO'
           THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem l JOIN part p ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '{d1} 00:00:00' AND l_shipdate < TIMESTAMP '{d2} 00:00:00'""",
    lambda g: (lambda y, m: {
        "d1": f"{y}-{m:02d}-01",
        "d2": f"{y + (1 if m == 12 else 0)}-{(m % 12) + 1:02d}-01",
    })(int(g.integers(1993, 1998)), int(g.integers(1, 13))),
    ("l",),
)

_q(
    "q16",
    """SELECT {hint}p_brand AS brand, p_type AS ptype,
       COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM part p JOIN lineitem l ON p_partkey = l_partkey
WHERE p_brand <> '{brand}' AND p_size < {size}
GROUP BY p_brand, p_type""",
    lambda g: {"brand": _brand(g), "size": int(g.integers(10, 40))},
    ("l",),
)

_q(
    "q17",
    """SELECT {hint}SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem l JOIN part p ON p_partkey = l_partkey
WHERE p_brand = '{brand}'
  AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity)
                    FROM lineitem l2 WHERE l2.l_partkey = p.p_partkey)""",
    lambda g: {"brand": _brand(g)},
    ("l",),
)

_q(
    "q20",
    """SELECT {hint}s_suppkey AS suppkey, s_acctbal AS acctbal
FROM supplier s JOIN nation n ON s_nationkey = n_nationkey
WHERE n_name = '{nation}'
  AND s_suppkey IN (SELECT l_suppkey FROM lineitem
                    WHERE l_shipdate >= TIMESTAMP '{d1} 00:00:00'
                    GROUP BY l_suppkey HAVING SUM(l_quantity) > {qty})""",
    lambda g: {"nation": str(g.choice(_NATIONS)), "d1": _date(g, "1994-01-01", 700),
               "qty": int(g.integers(100, 400))},
    ("s",),
)
