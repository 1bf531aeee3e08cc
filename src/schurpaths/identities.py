"""Executable identity checks, each producing a structured CheckReport.

Every verifier computes its two sides through disjoint code paths: tableau
sums live in `combinat`, determinants and quotients in `symfun`, and the
path-weight dynamic programming and the row-by-row walk over
non-intersecting path systems in `lgv`; the only shared layer is the exact
polynomial ring, besides the input validation of `combinat.partition` and
`combinat.fit_shape`, which computes nothing.  A verifier that fed one side
into the other would be vacuous, so the dependency direction is part of the
design.

Both sides of a symbolic comparison come out of the ring, so a fault in the
ring that both share can leave them equal and wrong.  Each verifier
therefore also anchors every closed form it compares against: `eval_int` of
the ring's value at one fixed integer point must equal the integer that
`intcheck`, which uses no ring code, computes for that closed form.

`IDENTITIES` lists each verifier with its work budget and its suite grid.
A verifier's parameters are its `verify` options, each named and defaulted
once in its signature, and its reports name their params by the same
options.  Each verifier run is one `_Checker`: built from the identity's
name and those options, it owns the run's clock and its checks and gives
the report, so every report writes its params one way, a partition as
`[2,1]`.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, fields
from math import factorial, prod
from typing import Callable, NamedTuple, Sequence

from . import combinat, intcheck, lgv, symfun
from .combinat import fit_shape, partition, partition_text
from .lgv import Point
from .ring import (
    Family,
    Polynomial,
    TooLarge,
    add_mul,
    canonical_text,
    check_degree,
    eval_int,
    substitute_family,
    substitute_zero,
    sum_of_products,
    tpoly,
    work_budget,
    xpoly,
    ypoly,
)

VERIFIED = "VERIFIED"
MISMATCH = "MISMATCH"
ERROR = "ERROR"

_MAX_DIFFERING_TERMS = 50
# The instant bounds below refuse, before anything is built, an input that the work
# budgets (see IDENTITIES) would refuse only after their time, or not at all.
_PARTITION_LIST_LIMIT = 20000
_MAX_LEMMA_M = 18  # main-lemma's closed forms reach 2^(m-1) terms, 131,072 at m = 18
# main-lemma and corollary: a unit of ring work costs more with each variable (20 us at
# main-lemma (3, 3000)) and m = 1 spends none, so (terms + 32 * forms) * (variables + 130),
# a closed form costing as much as 32 terms and a term as 130 variables, bounds them; it
# took 2.8-5.6 ns a unit on 20 main-lemma grids and 3.7-9.2 ns on 10 corollary grids
_MAX_PATH_WORK = 10**9
# dual-determinant's n + m.  Through cli.main, one run each, every split of n + m = 8 takes
# 0.3-0.5 s, and of n + m = 9 4.4-7.1 s and up to 360 MB, (7, 2) the longest; nearly all
# of it is the right side's 9! terms
_MAX_DUAL_ORDER = 8
_MAX_DUAL_SIDE = 20  # dual-cauchy's prod(1 + x_i y_j) has 2^max(n, m) terms: 6.4 s at (1, 20)
_MAX_NEWTON_POWER = 16  # the Newton form's 3^power term products: 23-39 s at 16, 105 s at 17
# the plain alternant det(x_j^(lambda_i + n - i)) that verify vandermonde and paths --preset
# vandermonde expand has n! terms: 0.5-1.9 s at n = 8; at n = 9 (362,880 terms), one run
# each, verify vandermonde 21-26 s and 455 MB, paths 10-11 s
MAX_ALTERNANT_N = 8
_MAX_BIALTERNANT_N = 13  # M_change's entries have up to 2^(n-1) terms: (1) takes 2.5 s at n = 13
_MAX_FACTORIAL_SCHUR_N = 5  # both sides grow with the n x-variables: (4,3,2,1) 4.6 s at n = 6


def check_factorial_size(what: str, n: int, limit: int) -> None:
    """TooLarge past n = limit, for a computation that expands at least n! terms.

    The message names (limit + 1)!, not n!, which a huge n takes long to compute and print.
    """
    if n > limit:
        raise TooLarge(f"{what} at n={n} > {limit} expands n! >= {factorial(limit + 1)} terms")


def _check_path_work(what: str, builds: str, terms: int, forms: int, variables: int) -> None:
    """TooLarge when the work of `terms` built terms and `forms` closed forms passes the bound."""
    if (terms + 32 * forms) * (variables + 130) > _MAX_PATH_WORK:
        raise TooLarge(f"{what} builds {builds}, past its work bound of {_MAX_PATH_WORK}")


@dataclass
class CheckReport:
    """Outcome of one identity check."""

    identity: str
    params: dict[str, str]
    status: str
    lhs_text: str | None = None
    rhs_text: str | None = None
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        out: dict = {"identity": self.identity, "params": dict(self.params), "status": self.status}
        if self.lhs_text is not None:
            out["lhs"] = self.lhs_text
        if self.rhs_text is not None:
            out["rhs"] = self.rhs_text
        out["elapsed_ms"] = self.elapsed_ms
        return out

    def summary_line(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.identity} [{inner}]: {self.status}"


def _mismatch_texts(lhs: Polynomial, rhs: Polynomial) -> tuple[str, str]:
    """Canonical texts restricted to the first 50 differing monomials."""
    keep = {m for m, _ in (lhs - rhs).largest(_MAX_DIFFERING_TERMS)}
    lhs_cut = Polynomial({m: c for m, c in lhs.items() if m in keep})
    rhs_cut = Polynomial({m: c for m, c in rhs.items() if m in keep})
    return canonical_text(lhs_cut), canonical_text(rhs_cut)


# the coordinate of each variable at the fixed point of `intcheck`
_COORDINATE = {
    Family.T: lambda index: intcheck.T,
    Family.X: intcheck.x,
    Family.Y: intcheck.y,
    Family.A: intcheck.a,
}


def _params(**values: object) -> dict[str, str]:
    """Report params: a partition as its `verify` text, `[2,1]`, anything else through str."""
    return {k: partition_text(v) if isinstance(v, tuple) else str(v) for k, v in values.items()}


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


class _Checker:
    """One verifier run: it starts the clock, checks equalities and anchors, and reports.

    The params are the verifier's options, given once on construction.  The
    run remembers its first failure: the failure's `where` labels and the
    texts of the two sides.  `report` ends the run VERIFIED, or MISMATCH
    with those labels after the params.
    """

    def __init__(self, identity: str, **options: object) -> None:
        self.t0 = time.perf_counter()
        self.identity = identity
        self.params = _params(**options)
        self.failure: tuple[dict[str, str], str, str] | None = None

    def eq(self, lhs: Polynomial, rhs: Polynomial, **where: object) -> bool:
        if self.failure is not None:
            return False
        if lhs != rhs:
            self.failure = (_params(**where), *_mismatch_texts(lhs, rhs))
            return False
        return True

    def anchor(self, name: str, value: Polynomial, expected: int, **where: object) -> bool:
        """`value` at the fixed point must be `expected`, an `intcheck` closed form."""
        if self.failure is not None:
            return False
        point = {v: _COORDINATE[v.family](v.index) for v in value.variables()}
        got = eval_int(value, point)
        if got != expected:
            self.failure = (_params(anchor=name, **where), str(got), str(expected))
            return False
        return True

    def report(self, **extra: object) -> CheckReport:
        """The run's report; `extra` params, measured by the run, follow the options."""
        params = {**self.params, **_params(**extra)}
        elapsed = _elapsed_ms(self.t0)
        if self.failure is None:
            return CheckReport(self.identity, params, VERIFIED, elapsed_ms=elapsed)
        where, lhs, rhs = self.failure
        return CheckReport(self.identity, {**params, **where}, MISMATCH, lhs, rhs, elapsed)


def _to_y(p: Polynomial) -> Polynomial:
    return substitute_family(p, Family.X, Family.Y, 0)


# -- individual verifiers ----------------------------------------------------


def verify_main_lemma(m: int = 6, n: int = 6, *, corrupt_weights: bool = False) -> CheckReport:
    """Path-weight DP against the closed product form at every sink of the m x n grid."""
    if m < 1 or n < 1:
        raise ValueError("main-lemma check needs m >= 1 and n >= 1")
    if m > _MAX_LEMMA_M:
        raise TooLarge(
            f"main-lemma at m={m} > {_MAX_LEMMA_M} needs closed forms of 2^{m - 1} terms"
        )
    builds = f"n*m closed forms of up to 2^{m - 1} terms in n + m variables"
    forms = n * m
    _check_path_work(f"main-lemma at m={m}, n={n}", builds, forms * 2 ** (m - 1), forms, n + m)
    checker = _Checker("main-lemma", m=m, n=n)
    scheme = lgv.schur_weighted_scheme(
        n=n, col_bound=m, truncated=False, corrupt_weights=corrupt_weights
    )
    sinks = [Point(col, row) for col in range(1, m + 1) for row in range(1, n + 1)]
    for (col, row), weight in zip(sinks, lgv.path_matrix(scheme, [Point(1, 1)], sinks).row(0)):
        product, sink = lgv.lemma_product(col, row), f"({col},{row})"
        checker.eq(weight, product, side="path-sum-vs-product", sink=sink)
        expected = intcheck.lemma_product(col, row)
        if not checker.anchor("lemma-product", product, expected, sink=sink):
            break
    return checker.report()


def verify_corollary(n: int = 4, m: int = 5) -> CheckReport:
    """Truncated DP from (1, t) to (col, row) equals x_t^(col-1), 1 <= t < row <= n, col <= m."""
    if n < 2 or m < 1:
        raise ValueError("corollary check needs n >= 2 and m >= 1")
    # the sweep from (1, t) for row `row` holds at (c, r) the product of x_t - x_k over
    # r < k < r + c, with x_k = 0 past `row`: 2^min(c - 1, d) terms, d = row - r.  Over
    # c <= m that is at_d, on at most (n - d)(n - d + 1)/2 pairs (row, t) at each d; the
    # count stops once it passes the bound
    terms, stop = 0, _MAX_PATH_WORK // (n + 130)
    for d in range(n):
        at_d = 2**m - 1 if m <= d + 1 else 2 ** (d + 1) - 1 + (m - d - 1) * 2**d
        terms += at_d * (n - d) * (n - d + 1) // 2
        if terms > stop:
            break
    builds = "path sums into n(n-1)m/2 closed forms in n variables"
    _check_path_work(f"corollary at n={n}, m={m}", builds, terms, n * (n - 1) * m // 2, n)
    checker = _Checker("corollary", n=n, m=m)
    for row in range(2, n + 1):
        scheme = lgv.schur_weighted_scheme(n=row, col_bound=m, truncated=True)
        sinks = [Point(col, row) for col in range(1, m + 1)]
        matrix = lgv.path_matrix(scheme, [Point(1, t) for t in range(1, row)], sinks)
        for t in range(1, row):
            for col, entry in enumerate(matrix.row(t - 1), 1):
                power, sink = lgv.corollary_power(t, col, row), f"({col},{row})"
                checker.eq(entry, power, side="path-sum-vs-power", t=t, sink=sink)
                checker.anchor("power", power, intcheck.x(t) ** (col - 1), t=t, sink=sink)
    return checker.report()


def verify_vandermonde(n: int = 3) -> CheckReport:
    """Product vs determinant of powers vs signed sum; the path matrix is read as the powers."""
    if n < 1:
        raise ValueError("vandermonde check needs n >= 1")
    check_factorial_size("vandermonde", n, MAX_ALTERNANT_N)
    checker = _Checker("vandermonde", n=n)
    product = symfun.vandermonde(n)
    scheme = lgv.vandermonde_scheme(n)
    sources, sinks = lgv.vandermonde_endpoints(n)
    matrix = lgv.path_matrix(scheme, sources, sinks)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            power, entry = xpoly(i) ** (n - j), f"({i},{j})"
            checker.eq(matrix.entry(i - 1, j - 1), power, side="entry-vs-power", entry=entry)
            checker.anchor("power", power, intcheck.x(i) ** (n - j), entry=entry)
    checker.eq(symfun.alternant((), n), product, side="alternant-vs-product")
    checker.anchor("vandermonde", product, intcheck.vandermonde(intcheck.xs(n)))
    systems = lgv.nonintersecting_count(scheme, sources, sinks)
    checker.eq(Polynomial.const(systems), Polynomial.const(1), side="unique-system-count")
    signed_sum = lgv.nonintersecting_sum(scheme, sources, sinks)
    checker.eq(signed_sum, product, side="signed-sum-vs-product")
    return checker.report(systems=systems)


def _flipped_jacobi_trudi(shape: Sequence[int], n: int) -> Polynomial:
    """The printed-orientation determinant det(h_{lambda_i + i - j}).

    Kept as a negative control: it already fails against the tableau sum at
    shape (2,1).
    """
    shape = partition(shape)
    r = len(shape)
    if r == 0:
        return Polynomial.one()
    entries = [symfun.complete_homogeneous(shape[i] + i - j, n) for i in range(r) for j in range(r)]
    return symfun.det(symfun.PolyMatrix(r, r, entries))


def verify_jacobi_trudi(
    shape: Sequence[int], n: int = 3, *, flip_orientation: bool = False
) -> CheckReport:
    """Determinant of complete homogeneous polynomials vs the tableau sum."""
    if n < 1:
        raise ValueError("jacobi-trudi check needs n >= 1")
    shape = partition(shape)
    check_degree(sum(shape))  # s_lambda has degree |lambda|: a huge row refuses unbuilt
    checker = _Checker("jacobi-trudi", shape=shape, n=n)
    tableaux_side = combinat.schur_tableaux(shape, n)
    det_side = (
        _flipped_jacobi_trudi(shape, n) if flip_orientation else symfun.jacobi_trudi(shape, n)
    )
    checker.eq(det_side, tableaux_side, side="determinant-vs-tableaux")
    checker.eq(lgv.schur_via_lgv(shape, n), tableaux_side, side="lgv-vs-tableaux")
    checker.anchor("schur", tableaux_side, intcheck.schur(shape, n))
    return checker.report()


def verify_bialternant(shape: Sequence[int], n: int = 3) -> CheckReport:
    """The full reduction chain from path systems to the alternant quotient.

    One path matrix holds M' (a' to b), M'' (a'' to b) and M_change (a'' to
    a'), and the chain reads the paper's facts off single entries.  Every path
    a''_i -> b_j passes exactly one a'_k, so M'' = M_change * M'; no path goes
    down, so M_change is lower triangular; a''_i reaches a'_i along its row r
    alone, so its diagonal entry is prod_{k > r} (x_r - x_k), and the diagonal
    multiplies to the Vandermonde.  M'' holds the alternant's powers, so with
    det M' = s_lambda, alternant = Vdm * s_lambda and the quotient closes it:
    `symfun.bialternant` divides a_(lambda+delta) by a_delta in the
    alternant's normal form.  The alternant is read off M'' entry by entry
    and never expanded, so nothing here has n! terms; the one determinant is
    det M'.
    """
    if n < 1:
        raise ValueError("bialternant check needs n >= 1")
    if n > _MAX_BIALTERNANT_N:
        raise TooLarge(
            f"bialternant at n={n} > {_MAX_BIALTERNANT_N} multiplies M_change entries of up to"
            " 2^(n-1) terms"
        )
    shape = partition(shape)
    padded = fit_shape(shape, n)
    check_degree(sum(shape))  # s_lambda has degree |lambda|: a huge row refuses unbuilt
    checker = _Checker("bialternant", shape=shape, n=n)
    width = (shape[0] if shape else 0) + n
    scheme = lgv.schur_weighted_scheme(n=n, col_bound=width, truncated=True)
    double_primed, primed, sinks = lgv.bialternant_endpoints(shape, n)
    tableaux_side = combinat.schur_tableaux(shape, n)

    # the sweep from each a''_i passes the row of every a'_k on its way to the
    # sinks, so one matrix, with one weight memo, holds M_change (rows a'',
    # columns a'), M'' (rows a'', columns b) and M' (rows a', columns b)
    swept = lgv.path_matrix(scheme, double_primed + primed, primed + sinks)
    rows = [swept.row(i) for i in range(2 * n)]
    primed_rows = [row[n:] for row in rows[n:]]
    det_primed = symfun.det(symfun.PolyMatrix.from_rows(primed_rows))
    checker.eq(det_primed, tableaux_side, step="primed-det-vs-tableaux")
    checker.anchor("schur", tableaux_side, intcheck.schur(shape, n))
    checker.eq(lgv.schur_via_lgv(shape, n), det_primed, step="lgv-sum-vs-primed-det")

    mixed = [row[n:] for row in rows[:n]]
    change = [row[:n] for row in rows[:n]]
    # a''_i starts on row n-i+1 and a'_k lies on row n-k+1: a path reaches a'_k only for k <= i
    for i in range(n):
        for k in range(i + 1, n):
            above, entry = change[i][k], f"({i + 1},{k + 1})"
            checker.eq(above, Polynomial.zero(), step="change-matrix-triangular", entry=entry)
    for i in range(1, n + 1):  # a''_i reaches a'_i along its row r alone
        r, entry, factors = n - i + 1, f"({i},{i})", Polynomial.one()
        for k in range(r + 1, n + 1):
            factors = factors * (xpoly(r) - xpoly(k))
        step = "change-diagonal-vs-vandermonde"
        checker.eq(change[i - 1][i - 1], factors, step=step, entry=entry)
        expected = prod(intcheck.x(r) - intcheck.x(k) for k in range(r + 1, n + 1))
        checker.anchor("vandermonde", factors, expected, entry=entry)
    for i in range(n):
        for j in range(n):
            through = Polynomial.zero()
            for k in range(i + 1):
                through = add_mul(through, change[i][k], primed_rows[k][j])
            entry = f"({i + 1},{j + 1})"
            checker.eq(mixed[i][j], through, step="paths-through-primed", entry=entry)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            exponent, entry = padded[j - 1] + n - j, f"({i},{j})"
            power = xpoly(i) ** exponent
            checker.eq(mixed[n - i][n - j], power, step="power-entry", entry=entry)
            checker.anchor("power", power, intcheck.x(i) ** exponent, entry=entry)
    checker.eq(symfun.bialternant(shape, n), tableaux_side, step="quotient-vs-tableaux")
    return checker.report()


def verify_cauchy(n: int = 2, degree_cap: int = 4) -> CheckReport:
    """Cauchy identity on the doubled graph, as one series truncated at degree 2 * degree_cap.

    Every entry of det(e(a_i, b_j)) is exact up to that degree, so the
    truncated det must equal Vdm(x) * Vdm(y) * sum of S_lambda(x) S_lambda(y)
    over |lambda| <= degree_cap - n(n-1)/2: a larger shape adds only terms
    above the cut, and these reach none.  Below degree_cap = n(n-1)/2 both
    sides truncate to 0, so such a cap is refused as a usage error.
    """
    if n < 1 or degree_cap < 0:
        raise ValueError("cauchy check needs n >= 1 and degree_cap >= 0")
    offset = n * (n - 1) // 2  # the degree of Vdm(x)
    if degree_cap < offset:
        raise ValueError(
            f"cauchy at n={n} needs degree_cap >= n(n-1)/2 = {offset};"
            f" at degree_cap={degree_cap} both truncated sides are 0"
        )
    # from n = 6 on, a cap of at least n(n-1)/2 already makes this list too long.  Its
    # length C(n + cap, r), r = min(n, cap), is built as C(n + cap - r + i, i) for
    # i = 1..r, which grows with i, so a huge input refuses after a few factors
    r, length = min(n, degree_cap), 1
    for i in range(1, r + 1):
        length = length * (n + degree_cap - r + i) // i
        if length > _PARTITION_LIST_LIMIT:
            raise TooLarge("the truncated partition list would explode")
    checker = _Checker("cauchy", n=n, degree_cap=degree_cap)
    # a path that turns at column m has degree 2(m - 1): cap + 1 columns hold degree <= 2 * cap
    scheme = lgv.cauchy_doubled_scheme(n, degree_cap + 1)
    sources, sinks = lgv.cauchy_endpoints(n)
    matrix = lgv.path_matrix(scheme, sources, sinks)
    for i in range(n):
        for j in range(n):
            geometric = Polynomial.zero()
            for k in range(degree_cap + 1):
                geometric = geometric + (xpoly(i + 1) * ypoly(j + 1)) ** k
            entry = f"({i + 1},{j + 1})"
            checker.eq(matrix.entry(i, j), geometric, step="entry-vs-geometric", entry=entry)
            expected = intcheck.geometric(i + 1, j + 1, degree_cap)
            checker.anchor("geometric", geometric, expected, entry=entry)
    lhs = symfun.det(matrix, degree_cap=2 * degree_cap)
    vdm_x = symfun.vandermonde(n)
    vdm_y = _to_y(vdm_x)
    checker.anchor("vandermonde-x", vdm_x, intcheck.vandermonde(intcheck.xs(n)))
    checker.anchor("vandermonde-y", vdm_y, intcheck.vandermonde(intcheck.ys(n)))
    # a larger shape adds only terms of degree 2 * (offset + |lambda|), above the cut
    box = combinat.partitions_in_box(n, degree_cap)
    schurs = (
        combinat.schur_tableaux(shape, n) for shape in box if sum(shape) <= degree_cap - offset
    )
    series = sum_of_products((s_x, _to_y(s_x)) for s_x in schurs)
    checker.eq(lhs, vdm_x * (vdm_y * series), step="truncated-series")
    return checker.report()


def _dual_product(n: int, m: int, product: Polynomial = Polynomial.one()) -> Polynomial:
    """product * prod(1 + x_i y_j) over i <= n, j <= m, one sparse factor at a time."""
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            product = product * (Polynomial.one() + xpoly(i) * ypoly(j))
    return product


def verify_dual_cauchy(n: int = 2, m: int = 2) -> CheckReport:
    """Product of (1 + x_i y_j) vs the conjugate-paired Schur expansion."""
    if n < 1 or m < 1:
        raise ValueError("dual cauchy needs n, m >= 1")
    if max(n, m) > _MAX_DUAL_SIDE:
        raise TooLarge(
            f"dual-cauchy at n={n}, m={m} expands prod(1 + x_i*y_j) of at least"
            f" 2^max(n, m) terms, past max(n, m) = {_MAX_DUAL_SIDE}"
        )
    checker = _Checker("dual-cauchy", n=n, m=m)
    lhs = _dual_product(n, m)
    box = combinat.partitions_in_box(n, m)
    rhs = sum_of_products(
        (
            combinat.schur_tableaux(shape, n),
            _to_y(combinat.schur_tableaux(combinat.conjugate(shape), m)),
        )
        for shape in box
    )
    checker.eq(lhs, rhs, side="product-vs-schur-sum")
    checker.anchor("product", lhs, intcheck.dual_product(n, m))
    return checker.report(partitions=len(box))


def _dual_matrix(n: int, m: int) -> symfun.PolyMatrix:
    """The mixed (m+n) x (m+n) matrix: descending x-powers, ascending (-y)-powers."""
    size = n + m
    entries = []
    for r in range(1, size + 1):
        entries += [xpoly(c) ** (size - r) for c in range(1, n + 1)]
        entries += [(-ypoly(s)) ** (r - 1) for s in range(1, m + 1)]
    return symfun.PolyMatrix(size, size, entries)


def verify_dual_determinant(n: int = 2, m: int = 2) -> CheckReport:
    """det of the mixed power matrix vs the signed triple product.

    The global sign is epsilon(n, m) = (-1)^(n*m), fixed empirically from
    the 1x1 case and required to stay consistent across the grid; the report
    records the epsilon used.
    """
    if n < 1 or m < 1:
        raise ValueError("dual determinant needs n, m >= 1")
    if n + m > _MAX_DUAL_ORDER:
        raise TooLarge(
            f"dual-determinant at n={n}, m={m} needs n + m <= {_MAX_DUAL_ORDER} for its determinant"
        )
    checker = _Checker("dual-determinant", n=n, m=m)
    determinant = symfun.det(_dual_matrix(n, m))
    product = _dual_product(n, m, symfun.vandermonde(n) * _to_y(symfun.vandermonde(m)))
    epsilon = -1 if (n * m) % 2 else 1
    checker.eq(determinant, epsilon * product, side="det-vs-signed-product")
    checker.anchor("signed-product", epsilon * product, intcheck.dual_determinant(n, m))
    return checker.report(epsilon=f"{epsilon:+d}")


def verify_factorial_schur(shape: Sequence[int], n: int = 3) -> CheckReport:
    """Factorial tableau sum vs the falling-power determinant quotient."""
    if n < 1:
        raise ValueError("factorial-schur check needs n >= 1")
    if n > _MAX_FACTORIAL_SCHUR_N:
        raise TooLarge(
            f"factorial-schur at n={n} > {_MAX_FACTORIAL_SCHUR_N} builds factorial Schur"
            " polynomials in n x-variables (4.6 s and 203 MB for [4,3,2,1] at n=6)"
        )
    shape = partition(shape)
    check_degree(sum(shape))  # s_lambda(x | a) has degree |lambda|: a huge row refuses unbuilt
    checker = _Checker("factorial-schur", shape=shape, n=n)
    tableaux_side = combinat.factorial_schur_tableaux(shape, n)
    quotient_side = symfun.factorial_schur_quotient(shape, n)
    checker.eq(tableaux_side, quotient_side, side="tableaux-vs-quotient")
    checker.anchor("factorial-schur", tableaux_side, intcheck.factorial_schur(shape, n))
    plain = combinat.schur_tableaux(shape, n)
    checker.eq(substitute_zero(tableaux_side, Family.A, 1), plain, side="tableaux-at-a0")
    checker.anchor("schur", plain, intcheck.schur(shape, n))
    return checker.report()


def verify_newton(power: int = 8) -> CheckReport:
    """Newton expansion collapses to t^power; table entries match the h oracle."""
    if power < 0:
        raise ValueError("newton check needs power >= 0")
    if power > _MAX_NEWTON_POWER:
        raise TooLarge(
            f"newton at power={power} > {_MAX_NEWTON_POWER} forms 3^{power} term products"
        )
    checker = _Checker("newton", power=power)
    table = symfun.divided_differences(power)
    expansion = tpoly() ** power
    checker.eq(symfun.newton_form(table), expansion, side="expansion")
    checker.anchor("t-power", expansion, intcheck.T**power)
    for k, entry in enumerate(table, 1):
        h = symfun.complete_homogeneous(power - k + 1, k)
        checker.eq(entry, h, side="table-entry", k=k)
        expected = intcheck.complete_homogeneous(power - k + 1, k)
        checker.anchor("complete-homogeneous", h, expected, k=k)
    return checker.report()


# -- the identity table and the suite -------------------------------------------

REQUIRED = object()  # an option without a default (`verify` needs it given)


class Group(NamedTuple):
    """Suite points that yield one report.

    A point names the options it sets, the verifier's defaults giving the
    rest, and a negative-control flag only when the config selects it.
    Without a summary the group is one point and its report is the group's.
    With one, the points run in order until one is not VERIFIED, whose report
    is the group's; if all are, a VERIFIED report carries the summary.
    """

    points: list[dict[str, object]]
    summary: dict[str, str] | None = None


class Identity(NamedTuple):
    """One identity: its verifier, its `verify` options, its work budget and its suite grid.

    `options` is read off the verifier's signature: each parameter that is not
    keyword-only is an option, named as in the verifier's reports, with its
    default or REQUIRED; the keyword-only parameters are negative-control
    flags.  `check` calls the verifier through the module global, so that
    wrappers installed on the module see every call, within a work budget
    of `budget` units of ring work.  `grid` lists a config's groups.
    """

    name: str
    verifier: Callable[..., CheckReport]
    options: dict[str, object]
    budget: int
    grid: Callable[["SuiteConfig"], list[Group]]

    def check(self, **options: object) -> CheckReport:
        given = {k: v for k, v in {**self.options, **options}.items() if v is not REQUIRED}
        what = " ".join(f"{k}={v}" for k, v in _params(**given).items())
        with work_budget(self.budget, f"{self.name} [{what}]"):
            return globals()[self.verifier.__name__](**options)


def _options(verifier: Callable[..., CheckReport]) -> dict[str, object]:
    return {
        p.name: REQUIRED if p.default is p.empty else p.default
        for p in inspect.signature(verifier).parameters.values()
        if p.kind is not p.KEYWORD_ONLY
    }


def _point(**options: object) -> Group:
    return Group([options])


def _shape_row(n: int, max_size: int, **options: object) -> Group:
    """Every shape of size <= max_size in n variables, as one report."""
    shapes = [s for s in combinat.partitions_in_box(n, max_size) if sum(s) <= max_size]
    return Group(
        [{"shape": shape, "n": n, **options} for shape in shapes],
        _params(n=n, max_size=max_size, shapes=len(shapes)),
    )


# Each row's budget of ring work (see `ring`) admits the inputs of most work that its
# instant bounds admit and that run in 5 s or less, and newton's power 16.  A unit took
# 0.2-2 us.  In-process, one run each (CPython 3.11, 2 cores), the admitted inputs of most
# work, then refused ones, in million units and seconds:
#   main-lemma        (m, n) (15, 24) 2.36 in 1.9, (16, 12) 2.36 in 1.8, (12, 141) 1.73 in
#                     2.3; the path-work bound refuses every grid past these
#   corollary         (n, m) (14, 110) 6.60 in 3.1, (16, 36) 6.54 in 2.4, (18, 18) 5.24
#                     in 2.1; refused (19, 19) 10.5 in 4.9 and (20, 20) 21.0 in 13
#   vandermonde       n = 8 1.57 in 0.8; n = 9 is refused at once
#   jacobi-trudi      (4,4,4,4) n = 8 16.6 in 4.6-6.1, (5,4,3,2,1) n = 8 16.5 in 4.5-6.0;
#                     refused (8,8) n = 8 38.1 in 14, (5,4,3,2,1) n = 9 75.6 in 35 and
#                     (6,5,4,3,2,1) n = 8, which ran past 40 s, at 32.4 in 3.0
#   bialternant       (109) n = 4 16.6 in 4.5, (15,15,4,4,1) n = 5 13.4 in 3.5,
#                     (5,4,3,2,1) n = 8 11.8 in 3.6-4.8; refused (2,1) n = 13 21.0 in 6.8
#                     and (26) n = 8, out of memory past 29.7
#   cauchy            (n, cap) (4, 16) 10.3 in 3.5, (5, 14) 8.9 in 4.3, (3, 25) 8.0 in
#                     2.3; refused (4, 17) 17.2 in 6.5 and (5, 15) 19.4 in 8.0
#   dual-cauchy       (4, 6) 7.31 in 4.2, (6, 4) 7.07 in 3.4, (2, 11) 4.86 in 3.9;
#                     refused (3, 8) 9.10 in 6.3
#   dual-determinant  every n + m = 8 at most 0.93 in 0.5
#   factorial-schur   (19) n = 1 4.19 in 5.1, (10) n = 5 2.74 in 3.7, (13) n = 3 2.20 in
#                     3.9; refused (20) n = 1 8.39 in 9.4 (927 MB)
#   newton            power 16 43.4 in 23-39, power 15 14.5 in 5.6
IDENTITIES: dict[str, Identity] = {
    name: Identity(name, verifier, _options(verifier), budget, grid)
    for name, verifier, budget, grid in [
        ("main-lemma", verify_main_lemma, 4_000_000,
         lambda c: [_point(**c.control("corrupt_weights"))]),
        ("corollary", verify_corollary, 7_000_000, lambda c: [_point()]),
        ("vandermonde", verify_vandermonde, 2_000_000,
         lambda c: [_point(n=n) for n in range(1, 6)]),
        ("jacobi-trudi", verify_jacobi_trudi, 20_000_000, lambda c: [
            _shape_row(n, c.max_partition_size, **c.control("flip_orientation"))
            for n in range(1, c.max_n + 1)
        ]),
        ("bialternant", verify_bialternant, 18_000_000, lambda c: [
            _shape_row(n, c.max_partition_size) for n in range(1, c.max_n + 1)
        ]),
        ("cauchy", verify_cauchy, 12_000_000, lambda c: [
            _point(n=n, degree_cap=c.cauchy_cap)
            for n in range(1, min(2, c.max_n) + 1)
            if c.cauchy_cap >= n * (n - 1) // 2  # below it nothing is compared
        ]),
        ("dual-cauchy", verify_dual_cauchy, 8_000_000, lambda c: [
            _point(n=n, m=m) for n in range(1, c.dual_max + 1) for m in range(1, c.dual_max + 1)
        ]),
        ("dual-determinant", verify_dual_determinant, 2_000_000, lambda c: [
            _point(n=n, m=total - n) for total in range(2, c.dual_max + 3) for n in range(1, total)
        ]),
        ("factorial-schur", verify_factorial_schur, 4_500_000, lambda c: [
            _shape_row(n, min(4, c.max_partition_size)) for n in range(1, min(3, c.max_n) + 1)
        ]),
        ("newton", verify_newton, 44_000_000, lambda c: [
            Group([{"power": k} for k in range(c.newton_max + 1)], _params(n_max=c.newton_max))
        ]),
    ]
}

# `SuiteConfig.corrupt` values and the keyword-only verifier flags they set
_CONTROLS = {"weights": "corrupt_weights", "determinant": "flip_orientation"}


@dataclass
class SuiteConfig:
    """Size bounds for the full verification suite, checked on construction.

    Every field but `corrupt` is a key of the suite's JSON config file.
    `corrupt` selects a negative control: "weights" corrupts main-lemma's
    path weights, "determinant" flips the Jacobi-Trudi orientation.
    """

    max_partition_size: int = 6
    max_n: int = 4
    cauchy_cap: int = 4
    dual_max: int = 3
    newton_max: int = 8
    only: list[str] | None = None
    corrupt: str | None = None

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int" and (
                not isinstance(value, int) or isinstance(value, bool) or value < 0
            ):
                raise ValueError(f"config key {field.name} must be a non-negative int")
        if self.only is not None:
            if not isinstance(self.only, (list, tuple)) or not all(
                isinstance(name, str) for name in self.only
            ):
                raise ValueError("config key 'only' must be a list of identity names")
            if not self.only:
                raise ValueError("config key 'only' must name at least one identity")
            bad = [name for name in self.only if name not in IDENTITIES]
            if bad:
                raise ValueError(f"unknown identity names in 'only': {bad}")
        if self.corrupt not in (None, *_CONTROLS):
            raise ValueError(f"unknown negative control {self.corrupt!r}")
        # a selected identity whose grid is empty would pass without a check
        empty = [i.name for i in self.selected() if not any(g.points for g in i.grid(self))]
        if empty and (self.only is not None or len(empty) == len(IDENTITIES)):
            raise ValueError(f"the config gives no point to check for {', '.join(empty)}")

    def selected(self) -> list[Identity]:
        """The identities that `only` selects, in table order."""
        return [i for i in IDENTITIES.values() if self.only is None or i.name in self.only]

    def control(self, flag: str) -> dict[str, bool]:
        """`{flag: True}` if `corrupt` selects that negative control, else `{}`."""
        return {flag: True} if _CONTROLS.get(self.corrupt) == flag else {}

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - ({field.name for field in fields(cls)} - {"corrupt"})
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _run_group(identity: Identity, group: Group) -> CheckReport:
    """One report for a group; an exception in a check becomes an ERROR report."""
    t0 = time.perf_counter()
    try:
        for point in group.points:
            report = identity.check(**point)
            if group.summary is None:
                return report
            if report.status != VERIFIED:
                report.elapsed_ms = _elapsed_ms(t0)
                return report
    except Exception as exc:
        point = {**identity.options, **group.points[0]}
        params = group.summary or _params(**{k: v for k, v in point.items() if v is not REQUIRED})
        params = {**params, "error": f"{type(exc).__name__}: {exc}"}
        return CheckReport(identity.name, params, ERROR, elapsed_ms=_elapsed_ms(t0))
    return CheckReport(identity.name, dict(group.summary), VERIFIED, elapsed_ms=_elapsed_ms(t0))


def run_suite(config: SuiteConfig | None = None) -> list[CheckReport]:
    """Run every selected identity over its grid, in table order."""
    config = config or SuiteConfig()
    return [_run_group(i, group) for i in config.selected() for group in i.grid(config)]


def all_verified(reports: Sequence[CheckReport]) -> bool:
    return all(report.status == VERIFIED for report in reports)


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps([report.to_json_dict() for report in reports], indent=2)
