"""Ring-model pseudomomenta, energies and oscillator bookkeeping."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcount.cs_model import (
    Filling,
    energy,
    ground_energy,
    ground_filling,
    pseudomomenta,
)

TWO_PI = 2 * math.pi


def test_filling_validation():
    Filling((0, 0, 0), Fraction(1), TWO_PI)
    with pytest.raises(ValueError):
        Filling((0, -1), Fraction(1), TWO_PI)
    with pytest.raises(ValueError):
        Filling((0,), Fraction(-1), TWO_PI)
    with pytest.raises(ValueError):
        Filling((0,), Fraction(1), 0.0)


def test_ground_filling_is_all_zero():
    f = ground_filling(3, Fraction(1, 2), TWO_PI)
    assert f.n == (0, 0, 0)
    assert f.n_particles == 3


def test_pseudomomenta_ground_two_particles():
    f = ground_filling(2, Fraction(1), TWO_PI)
    ks = pseudomomenta(f)
    assert ks == pytest.approx([-0.5, 0.5])
    assert energy(ks) == pytest.approx(0.5)


def test_pseudomomenta_excited_state():
    f = Filling((0, 1), Fraction(1), TWO_PI)
    ks = pseudomomenta(f)
    assert ks == pytest.approx([-0.5, 1.5])


def test_pseudomomenta_literal_anchor_differs():
    f = ground_filling(2, Fraction(1), TWO_PI)
    literal = pseudomomenta(f, anchor="literal")
    assert literal == pytest.approx([0.5, 1.5])
    assert energy(literal) != pytest.approx(ground_energy(2, Fraction(1), TWO_PI))


def test_gaps_scale_with_coupling_and_excitations():
    lam = Fraction(3, 2)
    f = Filling((0, 2, 0), lam, TWO_PI)
    ks = pseudomomenta(f)
    assert ks[1] - ks[0] == pytest.approx(float(lam) + 2)
    assert ks[2] - ks[1] == pytest.approx(float(lam) + 0)


def test_ground_energy_closed_form():
    for n in range(1, 8):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
            for length in (1.0, TWO_PI):
                e = energy(pseudomomenta(ground_filling(n, lam, length)))
                e0 = ground_energy(n, lam, length)
                assert e == pytest.approx(e0, rel=1e-12, abs=1e-12)
                expected = math.pi**2 * float(lam) ** 2 * n * (n * n - 1) / (
                    3 * length**2
                )
                assert e0 == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(st.integers(1, 9), st.fractions(min_value=0, max_value=3, max_denominator=4))
def test_ground_energy_formula_property(n, lam):
    e = energy(pseudomomenta(ground_filling(n, lam, TWO_PI)))
    assert e == pytest.approx(ground_energy(n, lam, TWO_PI), rel=1e-12, abs=1e-12)


def test_unit_coupling_ground_gaps_are_fermi_like():
    # lam = 1: consecutive ground pseudomomenta sit exactly kappa apart
    for n in (2, 3, 5):
        for length in (1.0, TWO_PI):
            kappa = 2 * math.pi / length
            ks = pseudomomenta(ground_filling(n, 1, length))
            for a, b in zip(ks, ks[1:]):
                assert b - a == pytest.approx(kappa, rel=1e-12)


def test_zero_coupling_gaps_come_from_excitations_alone():
    ks = pseudomomenta(Filling((0, 2, 0, 1), Fraction(0), TWO_PI))
    diffs = [b - a for a, b in zip(ks, ks[1:])]
    assert diffs == pytest.approx([2.0, 0.0, 1.0])
    assert ks[0] == 0  # symmetric anchor collapses to zero at lam = 0
