"""The twelve exported value types: immutable but copyable and picklable,
each built by its own constructor, and each refusing bad input with its own
error type.  The eight on ntheory.Frozen compare and hash by Frozen's one
rule, over their _key(), and are final."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import hmsurf
from hmsurf import (ALFixedPoints, CenterResult, ChernReport, ConfigError, CuspCycle,
                    EllipticCounts, FieldContext, FieldElement, LinearForm, PrimeIdealData,
                    RunConfig, TableRow, TreeGraph, classify, cusp_resolution, make_field,
                    split_prime)
from hmsurf.ntheory import Frozen
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
FROZEN = [cls for cls in VALUES if issubclass(cls, Frozen)]


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
    # a fresh build and every copy equal x and hash alike
    for twin in (VALUES[cls](), copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and x == twin and hash(twin) == hash(x)
        assert all(getattr(twin, name) == getattr(x, name) for name in fields)


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


def _holding(kind, x):
    """A `kind` whose slots hold x's values, built past `kind`'s constructor."""
    twin = object.__new__(kind)
    twin.__setstate__((None, {name: getattr(x, name) for name in type(x).__slots__}))
    return twin


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_values_never_equal_another_type(cls):
    # a subclass of a value type cannot be made (Frozen refuses it), and a
    # Frozen type with the same slots never equals it
    x = VALUES[cls]()
    with pytest.raises(TypeError, match="value types are final"):
        type("Sub", (cls,), {"__slots__": ()})
    lookalike = type("Lookalike", (Frozen,), {"__slots__": cls.__slots__})
    other = _holding(lookalike, x)
    assert all(getattr(other, name) == getattr(x, name) for name in cls.__slots__)
    assert x != other and other != x and not x == other
    assert x != x._key() and x._key() != x


def test_value_types_are_final():
    # _set and _key read the most derived class's __slots__: a subclass with
    # no slots of its own would set no field and compare all its values equal
    with pytest.raises(TypeError, match="Sub: value types are final"):
        class Sub(LinearForm):
            __slots__ = ()


def test_tree_equality_ignores_the_distance_cache():
    a = TreeGraph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    b = TreeGraph("dcba", [("d", "b"), ("c", "b"), ("b", "a")])
    for v in "acd":
        a.distances(v)
    assert a._dist.keys() != b._dist.keys()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_only_frozen_defines_equality_and_hashing():
    """A value type's fields are its __slots__, stated once: a Frozen subclass
    narrows _key where some slots are derived or caches, and never writes
    its own __eq__ or __hash__."""
    for info in pkgutil.iter_modules(hmsurf.__path__):
        importlib.import_module(f"hmsurf.{info.name}")
    found, todo = [], [Frozen]
    for cls in todo:
        todo += cls.__subclasses__()
        if cls is not Frozen and cls.__module__.startswith("hmsurf."):
            found.append(cls)
    assert set(FROZEN) <= set(found)
    assert [(cls.__name__, name) for cls in found for name in ("__eq__", "__hash__")
            if name in vars(cls)] == []
