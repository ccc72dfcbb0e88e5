"""The public value types are immutable records: construction by position or
keyword, validation, repr, equality by exact type and fields, hashing,
immutability, copying and pickling."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from fockcount import (
    AlgebraSpec,
    CSRule,
    Filling,
    GentileRule,
    GramMatrix,
    GReport,
    ModeLattice,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
)

HALF = Fraction(1, 2)
ENTRIES = ((Fraction(1), HALF), (HALF, Fraction(1)))

# (class, positional arguments, the same as keywords, repr, an unequal
# instance of the same class)
RECORDS = [
    (ModeLattice, ((1, 2, 3),), {"sites": (1, 2, 3)},
     "ModeLattice(sites=(1, 2, 3))", ModeLattice((1, 2, 4))),
    (AlgebraSpec, ("quon", HALF), {"kind": "quon", "q": HALF},
     "AlgebraSpec(kind='quon', q=Fraction(1, 2))", AlgebraSpec("quon", Fraction(0))),
    (CSRule, (1, 2), {"p": 1, "q": 2}, "CSRule(p=1, q=2)", CSRule(2, 1)),
    (XFermiRule, ((3, 1, 1),), {"gaps": (1, 3)}, "XFermiRule(gaps=(1, 3))",
     XFermiRule((1, 2))),
    (XBoseRule, ((2,),), {"gaps": (2,)}, "XBoseRule(gaps=(2,))", XBoseRule((1,))),
    (WindowRule, (2, "max"), {"p": 2, "mode": "max"}, "WindowRule(p=2, mode='max')",
     WindowRule(2, "min")),
    (GentileRule, (2,), {"max_occupancy": 2}, "GentileRule(max_occupancy=2)",
     GentileRule(3)),
    (TotalCapRule, (3,), {"cap": 3}, "TotalCapRule(cap=3)", TotalCapRule(4)),
    (GramMatrix, (((1, 2), (2, 1)), ENTRIES), {"states": ((1, 2), (2, 1)), "entries": ENTRIES},
     "GramMatrix(states=((1, 2), (2, 1)), entries=((Fraction(1, 1), Fraction(1, 2)), "
     "(Fraction(1, 2), Fraction(1, 1))))",
     GramMatrix(((1, 2), (2, 1)), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))),
    (GReport, (HALF, HALF, True),
     {"g_closed_form": HALF, "g_definitional": HALF, "agrees": True},
     "GReport(g_closed_form=Fraction(1, 2), g_definitional=Fraction(1, 2), agrees=True)",
     GReport(HALF, Fraction(1), False)),
    (Filling, ((0, 1), 1, 6.5), {"n": (0, 1), "lam": Fraction(1), "ring_length": 6.5},
     "Filling(n=(0, 1), lam=Fraction(1, 1), ring_length=6.5)",
     Filling((0, 1), 2, 6.5)),
]
IDS = [case[0].__name__ for case in RECORDS]


def record_cases(test):
    return pytest.mark.parametrize("cls, args, kwargs, text, other", RECORDS, ids=IDS)(test)


@record_cases
def test_repr_names_every_field(cls, args, kwargs, text, other):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


@record_cases
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text, other):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert type(a) is cls
    for name, value in kwargs.items():
        assert getattr(b, name) == value


@record_cases
def test_unequal_fields_compare_unequal(cls, args, kwargs, text, other):
    assert cls(*args) != other
    assert not cls(*args) == other


@record_cases
def test_hash_follows_equality(cls, args, kwargs, text, other):
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs), other}) == 2


@record_cases
def test_fields_cannot_be_assigned_or_deleted(cls, args, kwargs, text, other):
    record = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(**kwargs)


@record_cases
def test_copy_deepcopy_and_pickle_round_trip(cls, args, kwargs, text, other):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record)),
                  pickle.loads(pickle.dumps(record, protocol=0))):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text


@record_cases
def test_wrong_arguments_raise_type_error(cls, args, kwargs, text, other):
    with pytest.raises(TypeError):
        cls(*args, None, None, None, None, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args[:1], **kwargs)
    with pytest.raises(TypeError):
        cls()


def test_rules_of_different_types_are_never_equal():
    assert XFermiRule((1,)) != XBoseRule((1,))
    assert not XFermiRule((1,)) == XBoseRule((1,))
    assert CSRule(1, 2) != (1, 2)
    assert CSRule(1, 2).__eq__((1, 2)) is NotImplemented
    assert WindowRule(1, "min") != WindowRule(1, "max")
    assert GentileRule(2) != TotalCapRule(2)
    assert len({XFermiRule((1,)), XBoseRule((1,)), GentileRule(1), TotalCapRule(1)}) == 4


def test_constructors_normalise_their_fields():
    assert XFermiRule([3, 1, 3]).gaps == (1, 3)
    assert XBoseRule({2, 1}).gaps == (1, 2)
    assert Filling((0,), 1, 2.0).lam == Fraction(1)
    assert type(Filling((0,), 1, 2.0).lam) is Fraction
    assert pickle.loads(pickle.dumps(XFermiRule([3, 1]))) == XFermiRule((1, 3))
    # a record holds tuples: a list argument is copied into one, a tuple kept
    sites = (1, 2, 3)
    assert ModeLattice(sites).sites is sites
    for built, expected, field in [(ModeLattice([1, 2, 3]), ModeLattice(sites), "sites"),
                                   (Filling([0, 1], 1, 6.5), Filling((0, 1), 1, 6.5), "n"),
                                   (XBoseRule([2, 1]), XBoseRule((1, 2)), "gaps")]:
        assert built == expected and hash(built) == hash(expected)
        assert type(getattr(built, field)) is tuple


# (constructor call, ValueError message)
INVALID = [
    (lambda: ModeLattice(()), "lattice must contain at least one site"),
    (lambda: ModeLattice((1, 1)), "site labels must be strictly increasing"),
    (lambda: AlgebraSpec("para", Fraction(0)), "unknown algebra kind 'para'"),
    (lambda: AlgebraSpec("bose", HALF), "Bose algebra requires q = +1"),
    (lambda: AlgebraSpec("fermi", Fraction(1)), "Fermi algebra requires q = -1"),
    (lambda: AlgebraSpec("quon", Fraction(1)), "quon parameter must satisfy |q| < 1, got 1"),
    (lambda: CSRule(-1, 1), "p must be >= 0, got -1"),
    (lambda: CSRule(1, 0), "q must be >= 1, got 0"),
    (lambda: XFermiRule(()), "gap set must be non-empty"),
    (lambda: XBoseRule((0, 2)), "gap set must be strictly increasing positive integers"),
    (lambda: WindowRule(1, "mid"), "window mode must be 'min' or 'max', got 'mid'"),
    (lambda: WindowRule(0, "max"), "window width must be >= 1, got 0"),
    (lambda: WindowRule(-1, "min"), "window width must be >= 0, got -1"),
    (lambda: GentileRule(0), "max occupancy must be >= 1, got 0"),
    (lambda: TotalCapRule(0), "total cap must be >= 1, got 0"),
    (lambda: Filling((0, -1), 1, 2.0), "gap excitations must be non-negative"),
    (lambda: Filling((0,), -1, 2.0), "coupling must be >= 0, got -1"),
    (lambda: Filling((0,), 1, 0.0), "ring length must be positive, got 0.0"),
    (lambda: Filling((0,), 1, float("inf")), "ring length must be finite, got inf"),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[m for _, m in INVALID])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
