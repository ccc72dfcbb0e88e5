"""Exact state counting and exclusion statistics for restricted
multimode oscillator algebras.

The package computes, in exact rational arithmetic, the dimensions of
projected Fock-space sectors built from deformed oscillator algebras
(Bose, Fermi and the interpolating q family), under occupancy
restriction rules such as minimum-gap exclusion, support sets, windows
and per-level caps. Closed-form counting functions are paired with a
definitional route (enumerate states, build the Gram matrix of inner
products, take its exact rank) so every formula can be cross-checked.
"""

from .core import (
    AlgebraSpec,
    ModeLattice,
    bose,
    build_lattice,
    fermi,
    quon,
)
from .counting import (
    avg_g_identity_holds,
    binom,
    binomial_identity_holds,
    count_cs,
    count_cs_bose,
    count_cs_closed,
    count_cs_equal_pq,
    count_enumerated,
    count_gentile,
    count_haldane_wu,
    count_para_restricted,
    count_real,
    count_window_min,
    count_x_bose,
    count_x_fermi,
)
from .cs_model import (
    Filling,
    energy,
    ground_energy,
    ground_filling,
    pseudomomenta,
)
from .algebra_engine import inner_product
from .gram import (
    GramMatrix,
    exact_determinant,
    extended_g,
    gram_matrix,
    one_particle_dimension,
    permutation_orbit,
    rational_rank,
    sector_dimension,
)
from .haldane_params import (
    GReport,
    compare_cs_finite,
    compare_gentile_average,
    compare_para,
    compare_single_gentile,
    g_average_cs,
    g_cs_finite,
    g_gentile_average,
    g_haldane_cs,
    g_para_restricted,
    g_single_gentile,
)
from .restrictions import (
    CSRule,
    CapacityExceededError,
    GentileRule,
    RestrictionRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    count_allowed_states,
    count_allowed_words,
    enumerate_allowed,
    is_allowed,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "CSRule",
    "CapacityExceededError",
    "Filling",
    "GReport",
    "GentileRule",
    "GramMatrix",
    "ModeLattice",
    "RestrictionRule",
    "TotalCapRule",
    "WindowRule",
    "XBoseRule",
    "XFermiRule",
    "avg_g_identity_holds",
    "binom",
    "binomial_identity_holds",
    "bose",
    "build_lattice",
    "compare_cs_finite",
    "compare_gentile_average",
    "compare_para",
    "compare_single_gentile",
    "count_allowed_states",
    "count_allowed_words",
    "count_cs",
    "count_cs_bose",
    "count_cs_closed",
    "count_cs_equal_pq",
    "count_enumerated",
    "count_gentile",
    "count_haldane_wu",
    "count_para_restricted",
    "count_real",
    "count_window_min",
    "count_x_bose",
    "count_x_fermi",
    "energy",
    "enumerate_allowed",
    "exact_determinant",
    "extended_g",
    "fermi",
    "g_average_cs",
    "g_cs_finite",
    "g_gentile_average",
    "g_haldane_cs",
    "g_para_restricted",
    "g_single_gentile",
    "gram_matrix",
    "ground_energy",
    "ground_filling",
    "inner_product",
    "is_allowed",
    "one_particle_dimension",
    "permutation_orbit",
    "pseudomomenta",
    "quon",
    "rational_rank",
    "sector_dimension",
]
