"""The twelve exported value types: immutable but copyable and picklable,
each built by its own constructor, and each refusing bad input with its own
error type."""

import copy
import pickle
from fractions import Fraction

import pytest

import hmsurf
from hmsurf import (ALFixedPoints, CenterResult, ChernReport, ConfigError, CuspCycle,
                    EllipticCounts, FieldContext, FieldElement, LinearForm, PrimeIdealData,
                    RunConfig, TableRow, TreeGraph, classify, cusp_resolution, make_field,
                    split_prime)
from hmsurf.trees import NotATreeError, TreeError

VALUES = {
    FieldElement: lambda: FieldElement(3, 1, 13),
    LinearForm: lambda: LinearForm(Fraction(18), Fraction(3, 2)),
    EllipticCounts: lambda: EllipticCounts(a2=2, a3_plus=1, a3_minus=1, group_tag="gamma0"),
    PrimeIdealData: lambda: split_prime(make_field(13), 3)[0],
    FieldContext: lambda: make_field(13),
    RunConfig: RunConfig,
    TreeGraph: lambda: TreeGraph("abc", [("a", "b"), ("b", "c")]),
    CenterResult: lambda: CenterResult("edge", ("b", "a")),
    ChernReport: lambda: classify(13, 4),
    TableRow: lambda: TableRow(29, 28, ((5, "p2_inert"),)),
    ALFixedPoints: ALFixedPoints,
    CuspCycle: lambda: cusp_resolution(make_field(13)),
}


def test_the_twelve_are_exported():
    assert {cls.__name__ for cls in VALUES} <= set(hmsurf.__all__)
    assert len(hmsurf.__all__) == 39


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = VALUES[cls]()
    assert type(x) is cls
    fields = list(cls.__annotations__)  # what test_imports reads as fields
    assert fields == [name for name in getattr(cls, "_fields", cls.__slots__)
                      if not name.startswith("_")]
    for name in fields:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and all(getattr(twin, name) == getattr(x, name)
                                          for name in fields)


def test_field_element_as_set_member_and_dict_key():
    a, b = FieldElement(3, 1, 13), FieldElement(3, 1, 13)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, FieldElement(3, -1, 13), FieldElement(3, 1, 17)}) == 3
    assert {a: "omega + 1"}[b] == "omega + 1"
    assert a != (3, 1, 13) and a != 3
    assert repr(a) == "(3+1*sqrt13)/2" and repr(FieldElement(-4, 0, 13)) == "(-4+0*sqrt13)/2"
    # not a tuple: + and * are the field's
    assert a + a == FieldElement(6, 2, 13) and a * 2 == FieldElement(6, 2, 13)


@pytest.mark.parametrize("build, error", [
    (lambda: FieldElement(1, 0, 13), ValueError),  # parity
    (lambda: RunConfig(mode="fast"), ConfigError),
    (lambda: RunConfig(output="xml"), ConfigError),
    (lambda: RunConfig(precision_bits=16), ConfigError),
    (lambda: RunConfig(precision_bits=True), ConfigError),
    (lambda: EllipticCounts(mode="guess"), ValueError),
    (lambda: EllipticCounts(group_tag="sl3"), ValueError),
    (lambda: EllipticCounts(a2=-1), ValueError),
    (lambda: CenterResult("face", "a"), TreeError),
    (lambda: CenterResult("edge", ("a", "a")), TreeError),
    (lambda: TreeGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")]), NotATreeError),
    (lambda: TreeGraph("abcd", [("a", "b"), ("c", "d"), ("c", "d")]), NotATreeError),
], ids=["parity", "mode", "output", "precision", "bool-precision", "counts-mode",
        "group-tag", "negative-count", "centre-kind", "one-vertex-edge", "cycle",
        "repeated-edge"])
def test_validation_raises_its_own_type(build, error):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
