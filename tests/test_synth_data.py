"""Tests for the TPC-H-lite generators."""
from repro import synth_data


def test_lineitem_schema_and_size():
    df = synth_data.lineitem(sf=0.001)
    cols = set(df.columns)
    assert {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
            "l_extendedprice", "l_discount", "l_shipdate"} <= cols
    assert len(df) == 6000


def test_lineitem_deterministic(monkeypatch):
    monkeypatch.setattr(synth_data, "LINEITEM_SEED", 3)
    a = synth_data.lineitem(sf=0.001)
    b = synth_data.lineitem(sf=0.001)
    assert a.equals(b)


def test_orders_keys_dense():
    pdf = synth_data.orders(sf=0.001)
    assert pdf.o_orderkey.min() == 1
    assert pdf.o_orderkey.is_unique


def test_customer_nationkeys_valid():
    pdf = synth_data.customer(sf=0.001)
    assert pdf.c_nationkey.between(0, 24).all()


def test_part_brands():
    pdf = synth_data.part(sf=0.001)
    assert pdf.p_brand.str.match(r"Brand#\d\d").all()


def test_supplier_size_and_keys():
    pdf = synth_data.supplier(sf=0.01)
    assert len(pdf) == 100
    assert pdf.s_suppkey.is_unique
    assert pdf.s_nationkey.between(0, 24).all()


def test_nation_fixed():
    pdf = synth_data.nation()
    assert len(pdf) == 25
    assert "FRANCE" in set(pdf.n_name)


def test_lineitem_supplier_fk_compatible():
    li = synth_data.lineitem(sf=0.001)
    su = synth_data.supplier(sf=0.001)
    assert li.l_suppkey.max() <= su.s_suppkey.max()
