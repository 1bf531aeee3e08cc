"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All identities are exact, so every comparison is exact polynomial equality;
the stated per-criterion wall-clock budgets are asserted as well.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from schurpaths import identities, lgv, symfun
from schurpaths.combinat import partitions_in_box, schur_tableaux
from schurpaths.identities import (
    MISMATCH,
    VERIFIED,
    verify_bialternant,
    verify_cauchy,
    verify_corollary,
    verify_dual_cauchy,
    verify_dual_determinant,
    verify_factorial_schur,
    verify_jacobi_trudi,
    verify_main_lemma,
    verify_newton,
    verify_vandermonde,
)
from schurpaths.lgv import Point
from schurpaths.ring import (
    Monomial,
    Polynomial,
    exact_div,
    tpoly,
    tvar,
    xpoly,
    xvar,
    yvar,
)


def _report(number: int, description: str, passed: bool, elapsed: float, budget: float):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {description}: {verdict} ({elapsed:.2f}s / {budget:.0f}s)")
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s >= {budget}s"


def _shapes(n: int, max_size: int):
    return [p for p in partitions_in_box(n, max_size) if sum(p) <= max_size]


def test_criterion_01_main_lemma():
    start = time.perf_counter()
    passed = verify_main_lemma(6, 6).status == VERIFIED
    _report(1, "main lemma closed form on the 6x6 grid", passed, time.perf_counter() - start, 5)


def test_criterion_02_corollary():
    start = time.perf_counter()
    passed = verify_corollary(4, 5).status == VERIFIED
    _report(2, "truncated corollary powers, t < n <= 4, m <= 5", passed, time.perf_counter() - start, 5)


def test_criterion_03_vandermonde():
    start = time.perf_counter()
    passed = True
    for n in range(1, 6):
        report = verify_vandermonde(n)
        passed = passed and report.status == VERIFIED
        passed = passed and report.params.get("systems") == "1"
    _report(3, "Vandermonde three ways and one path system, n<=5", passed, time.perf_counter() - start, 30)


def test_criterion_04_four_way_schur():
    start = time.perf_counter()
    passed = True
    for n in range(1, 5):
        for shape in _shapes(n, 6):
            reference = schur_tableaux(shape, n)
            passed = passed and symfun.jacobi_trudi(shape, n) == reference
            passed = passed and symfun.bialternant(shape, n) == reference
            passed = passed and lgv.schur_via_lgv(shape, n) == reference
    _report(4, "four-way Schur agreement, |shape|<=6, n<=4", passed, time.perf_counter() - start, 120)


def test_criterion_05_reduction_chain():
    start = time.perf_counter()
    passed = True
    for n in range(1, 4):
        for shape in _shapes(n, 4):
            passed = passed and verify_bialternant(shape, n).status == VERIFIED
    _report(5, "determinant factorization chain, |shape|<=4, n<=3", passed, time.perf_counter() - start, 30)


def test_criterion_06_cauchy():
    start = time.perf_counter()
    passed = all(verify_cauchy(n, 4).status == VERIFIED for n in (1, 2))
    # optional extension; at cap 6 the series reaches |lambda| = 3
    passed = passed and all(verify_cauchy(3, cap).status == VERIFIED for cap in (3, 6))
    _report(6, "truncated Cauchy identity, n<=2 cap 4 (plus n=3 cap 3 and 6)", passed, time.perf_counter() - start, 60)


def test_criterion_07_dual_cauchy_and_determinant():
    start = time.perf_counter()
    passed = True
    for n in range(1, 4):
        for m in range(1, 4):
            passed = passed and verify_dual_cauchy(n, m).status == VERIFIED
    for n in range(1, 5):
        for m in range(1, 5):
            if n + m <= 5:
                report = verify_dual_determinant(n, m)
                passed = passed and report.status == VERIFIED
                passed = passed and report.params["epsilon"] in ("+1", "-1")
    _report(7, "dual Cauchy (n,m<=3) and mixed determinant (n+m<=5)", passed, time.perf_counter() - start, 60)


def test_criterion_08_factorial_schur():
    start = time.perf_counter()
    passed = True
    for n in range(1, 4):
        for shape in _shapes(n, 4):
            passed = passed and verify_factorial_schur(shape, n).status == VERIFIED
    _report(8, "factorial Schur tableaux vs quotient, |shape|<=4, n<=3", passed, time.perf_counter() - start, 30)


def test_criterion_09_newton():
    start = time.perf_counter()
    passed = all(symfun.newton_expand(n) == tpoly() ** n for n in range(9))
    for n in range(7):
        for k in range(1, n + 2):
            passed = passed and symfun.divided_difference(n, k) == symfun.complete_homogeneous(
                n - k + 1, k
            )
    _report(9, "Newton expansion (n<=8) and table oracle (n<=6)", passed, time.perf_counter() - start, 5)


def _random_polynomial(rng: random.Random) -> Polynomial:
    pool = [tvar(), xvar(1), xvar(2), xvar(3), yvar(1), yvar(2)]
    terms: dict[Monomial, int] = {}
    for _ in range(rng.randint(0, 4)):
        chosen = rng.sample(pool, rng.randint(0, 3))
        monomial = Monomial.of({v: rng.randint(1, 2) for v in chosen})
        terms[monomial] = terms.get(monomial, 0) + rng.randint(-9, 9)
    return Polynomial(terms)


def test_criterion_10_ring_laws_and_random_lgv():
    start = time.perf_counter()
    rng = random.Random(123456)
    passed = True
    for _ in range(1000):
        p, q, r = (_random_polynomial(rng) for _ in range(3))
        passed = passed and p + q == q + p
        passed = passed and (p + q) + r == p + (q + r)
        passed = passed and p * q == q * p
        passed = passed and (p * q) * r == p * (q * r)
        passed = passed and p * (q + r) == p * q + p * r
        if not q.is_zero():
            passed = passed and exact_div(p * q, q) == p

    def monotone_config(builder):
        n = rng.randint(1, 3)
        scheme = builder(rng.randint(max(n, 2), 4))
        sources = [Point(c, 1) for c in sorted(rng.sample(range(1, scheme.col_bound + 1), n))]
        sinks = [
            Point(c, rng.randint(2, 3))
            for c in sorted(rng.sample(range(1, scheme.col_bound + 1), n))
        ]
        sinks = [Point(p.col, sinks[0].row) for p in sinks]  # one sink row
        return scheme, sources, sinks

    builders = [
        lambda bound: lgv.jacobi_trudi_scheme(n=3, col_bound=bound),
        lambda bound: lgv.schur_weighted_scheme(n=3, col_bound=bound),
        lambda bound: lgv.schur_weighted_scheme(n=3, col_bound=bound, truncated=True),
    ]
    for builder in builders:
        for _ in range(20):
            scheme, sources, sinks = monotone_config(builder)
            passed = passed and lgv.lgv_det(scheme, sources, sinks) == lgv.nonintersecting_sum(
                scheme, sources, sinks
            )
    for _ in range(20):
        n = rng.randint(1, 2)
        scheme = lgv.cauchy_doubled_scheme(n, rng.choice((3, 5)))
        size = rng.randint(1, n)
        sources = [Point(1, r) for r in sorted(rng.sample(range(1, n + 1), size))]
        sinks = [Point(1, r) for r in sorted(rng.sample(range(n + 1, 2 * n + 1), size))]
        passed = passed and lgv.lgv_det(scheme, sources, sinks) == lgv.nonintersecting_sum(
            scheme, sources, sinks
        )
    _report(10, "1000 ring-law cases and 20 random LGV configs per scheme", passed, time.perf_counter() - start, 60)


def test_criterion_11_negative_controls():
    start = time.perf_counter()
    corrupted_weights = verify_main_lemma(3, 3, corrupt_weights=True)
    corrupted_orientation = verify_jacobi_trudi((2, 1), 3, flip_orientation=True)
    suite_weights = identities.run_suite(
        identities.SuiteConfig(only=["main-lemma"], corrupt="weights")
    )
    passed = (
        corrupted_weights.status == MISMATCH
        and corrupted_orientation.status == MISMATCH
        and any(r.status == MISMATCH for r in suite_weights)
    )
    _report(11, "corrupted weights and determinant orientation must MISMATCH", passed, time.perf_counter() - start, 30)
