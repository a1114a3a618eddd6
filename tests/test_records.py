"""The contract shared by the hand-written value records: immutable, equal
and hashed by their fields, never equal to a plain tuple, and printed as
``Name(field=value, ...)``."""

from fractions import Fraction as F

import pytest

from sievelogic.exact import QC
from sievelogic.fincat import Arrow
from sievelogic.heyting import HeytingAlgebraTable
from sievelogic.quantum import OperatorCategory, State, build_operator_category, make_operator


def _qc():
    return QC(F(1), F(-2))


def _arrow():
    return Arrow("f", "A", "B")


def _state():
    return State((QC(F(1), F(0)), QC(F(0), F(1))))


def _table():
    # The two-element Boolean algebra 0 < 1.
    return HeytingAlgebraTable(
        ("0", "1"), ((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 1)), (1, 0)
    )


RECORDS = [
    pytest.param(_qc, ("re", "im"), "QC(re=Fraction(1, 1), im=Fraction(-2, 1))", id="QC"),
    pytest.param(_arrow, ("id", "dom", "cod"), "Arrow(id='f', dom='A', cod='B')", id="Arrow"),
    pytest.param(
        _state, ("vector",),
        "State(vector=(QC(re=Fraction(1, 1), im=Fraction(0, 1)), "
        "QC(re=Fraction(0, 1), im=Fraction(1, 1))))",
        id="State",
    ),
    pytest.param(
        _table, ("elements", "meet_rows", "join_rows", "implies_rows", "not_row"),
        "HeytingAlgebraTable(elements=('0', '1'), meet_rows=((0, 0), (0, 1)), "
        "join_rows=((0, 1), (1, 1)), implies_rows=((1, 1), (0, 1)), not_row=(1, 0))",
        id="HeytingAlgebraTable",
    ),
]


@pytest.mark.parametrize("make,fields,text", RECORDS)
def test_record_contract(make, fields, text):
    x = make()
    values = tuple(getattr(x, f) for f in fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in fields) == values
    assert x == make() and not x != make()
    assert x != values and values != x
    assert hash(x) == hash(make()) == hash(values)
    assert repr(x) == text


@pytest.mark.parametrize("make", [_qc, _arrow])
def test_slot_records_have_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_records_differ_in_any_field():
    assert QC(F(1), F(0)) != QC(F(1), F(1))
    assert Arrow("f", "A", "B") != Arrow("f", "A", "C")
    assert Arrow("f", "A", "B") != QC(F(1), F(0))


def test_operator_category_is_an_unhashable_named_tuple():
    op = make_operator("z", 2, [(1, [(1, 0)]), (-1, [(0, 1)])])
    ocat = build_operator_category([op])
    assert isinstance(ocat, tuple) and ocat._fields == ("base", "operators", "images")
    assert ocat == (ocat.base, ocat.operators, ocat.images)
    assert OperatorCategory(*ocat) == ocat
    with pytest.raises(TypeError):
        hash(ocat)
    with pytest.raises(AttributeError):
        ocat.images = {}
