"""Exact Schur polynomials via non-intersecting lattice paths.

Four independent routes to the same symmetric polynomial (tableau sums,
Jacobi-Trudi determinants, alternant quotients, and signed sums over
non-intersecting lattice-path systems), plus machine checks for the
classical identities tying them together: Vandermonde, Cauchy and dual
Cauchy, factorial Schur, and Newton interpolation through divided
differences.  Everything is computed exactly over the integers.
"""

from .combinat import (
    conjugate,
    factorial_schur_tableaux,
    parse_partition,
    partition,
    partition_text,
    partitions_in_box,
    schur_tableaux,
    ssyt_count,
    ssyt_enumerate,
)
from .identities import CheckReport, SuiteConfig, run_suite
from .lgv import (
    LatticePath,
    PathSystem,
    Point,
    Scheme,
    e_weight,
    lgv_det,
    nonintersecting_sum,
    schur_via_lgv,
)
from .ring import (
    DegreeOverflow,
    Family,
    Monomial,
    Polynomial,
    Variable,
    canonical_text,
    exact_div,
    eval_int,
    parse_poly,
    truncate,
)
from .symfun import (
    PolyMatrix,
    bialternant,
    complete_homogeneous,
    det,
    divided_difference,
    jacobi_trudi,
    newton_expand,
    vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DegreeOverflow",
    "Family",
    "LatticePath",
    "Monomial",
    "PathSystem",
    "Point",
    "PolyMatrix",
    "Polynomial",
    "Scheme",
    "SuiteConfig",
    "Variable",
    "bialternant",
    "canonical_text",
    "complete_homogeneous",
    "conjugate",
    "det",
    "divided_difference",
    "e_weight",
    "eval_int",
    "exact_div",
    "factorial_schur_tableaux",
    "jacobi_trudi",
    "lgv_det",
    "newton_expand",
    "nonintersecting_sum",
    "parse_partition",
    "parse_poly",
    "partition",
    "partition_text",
    "partitions_in_box",
    "run_suite",
    "schur_tableaux",
    "schur_via_lgv",
    "ssyt_count",
    "ssyt_enumerate",
    "truncate",
    "vandermonde",
]
