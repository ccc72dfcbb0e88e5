from fractions import Fraction

import pytest

from fockcount.core import (
    AlgebraSpec,
    ModeLattice,
    bose,
    build_lattice,
    fermi,
    quon,
)


def test_build_lattice_sites():
    lat = build_lattice(5)
    assert lat.sites == (1, 2, 3, 4, 5)
    assert lat.size == 5
    assert 3 in lat
    assert 6 not in lat
    assert list(lat) == [1, 2, 3, 4, 5]


def test_lattice_requires_increasing_sites():
    with pytest.raises(ValueError):
        ModeLattice(sites=(1, 3, 2))
    with pytest.raises(ValueError):
        ModeLattice(sites=(1, 1, 2))
    with pytest.raises(ValueError):
        build_lattice(0)


def test_custom_lattice_sites():
    lat = ModeLattice(sites=(2, 5, 9))
    assert lat.size == 3
    assert 5 in lat and 3 not in lat
    assert 9 in lat and 10 not in lat and 1 not in lat
    # membership bisects the sites; what does not compare with them is no site
    assert "a" not in lat
    assert float("nan") not in lat


def test_bose_fermi_fixed_parameters():
    assert bose().q == 1
    assert fermi().q == -1
    assert bose().kind == "bose"
    assert fermi().kind == "fermi"


def test_quon_requires_open_interval():
    assert quon(Fraction(1, 2)).q == Fraction(1, 2)
    assert quon(0).q == 0
    assert quon(Fraction(-1, 3)).q == Fraction(-1, 3)
    for bad in (1, -1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            quon(bad)


def test_algebra_spec_consistency_enforced():
    with pytest.raises(ValueError):
        AlgebraSpec(kind="bose", q=Fraction(1, 2))
    with pytest.raises(ValueError):
        AlgebraSpec(kind="fermi", q=Fraction(1))
    with pytest.raises(ValueError):
        AlgebraSpec(kind="quon", q=Fraction(1))


def test_is_quon_zero_flag():
    assert quon(0).is_quon_zero
    assert not quon(Fraction(1, 2)).is_quon_zero
    assert not bose().is_quon_zero
