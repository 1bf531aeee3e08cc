"""The packed monomial keys: graded-lex order, the degree limit, long and synthetic division."""

import sys

import pytest
from hypothesis import example, given, strategies as st

import test_ring
from mutants import mutant
from schurpaths import combinat, ring
from schurpaths.cli import main
from schurpaths.identities import all_verified, run_suite
from schurpaths.ring import (
    MAX_DEGREE,
    DegreeOverflow,
    Family,
    Monomial,
    NotDivisible,
    Polynomial,
    Variable,
    apoly,
    avar,
    canonical_text,
    add_mul,
    exact_div,
    mul,
    parse_poly,
    substitute_family,
    tpoly,
    tvar,
    x_shift_sums,
    x_word_sum,
    xpoly,
    xvar,
    ypoly,
    yvar,
)

# Every family, with indices far apart so that their fields interleave in
# every way the packed layout allows.
_POOL = sorted([tvar(), xvar(1), xvar(2), xvar(7), yvar(1), yvar(3), avar(1), avar(2), avar(12)])


def reference_key(monomial: Monomial, pool=_POOL):
    """Graded lex: total degree, then the dense exponent vector in variable order.

    `pool` must hold every variable of the monomials compared, sorted.
    """
    exponents = dict(monomial.exps)
    return sum(exponents.values()), tuple(exponents.get(v, 0) for v in pool)


@st.composite
def monomials(draw):
    chosen = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    return Monomial.of({v: draw(st.integers(1, 3)) for v in chosen})


@st.composite
def polynomials(draw, max_terms=6):
    terms: dict[Monomial, int] = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = draw(monomials())
        terms[m] = terms.get(m, 0) + draw(st.integers(-9, 9))
    return Polynomial(terms)


@st.composite
def wide_monomials(draw):
    """Up to four variables, exponents of one to three digits, degree up to MAX_DEGREE."""
    budget, exponents = MAX_DEGREE, {}
    for v in draw(st.lists(st.sampled_from(_POOL), max_size=4, unique=True)):
        if budget:
            exponents[v] = draw(st.integers(1, min(3, budget)) | st.integers(1, budget))
            budget -= exponents[v]
    return Monomial.of(exponents)


@st.composite
def wide_polynomials(draw, max_terms=40):
    """Up to 40 terms, coefficients of one digit or of many, beyond 64 bits."""
    coefficients = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
    terms: dict[Monomial, int] = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = draw(wide_monomials())
        terms[m] = terms.get(m, 0) + draw(coefficients)
    return Polynomial(terms)


def scan_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Reference division: find each leading term by a max() scan."""
    lead, lead_coeff = max(d.items(), key=lambda mc: reference_key(mc[0]))
    remainder, quotient = p.terms(), {}
    while remainder:
        m = max(remainder, key=reference_key)
        if not lead.divides(m) or remainder[m] % lead_coeff:
            raise NotDivisible(m.text())
        q_monomial, q_coeff = m.quotient(lead), remainder[m] // lead_coeff
        quotient[q_monomial] = q_coeff
        for m2, c2 in d.items():
            product = q_monomial.mul(m2)
            remainder[product] = remainder.get(product, 0) - q_coeff * c2
            if not remainder[product]:
                del remainder[product]
    return Polynomial(quotient)


def expected_text(p: Polynomial) -> str:
    pool = sorted({v for m, _ in p.items() for v, _ in m.exps})
    chunks = []
    for m, c in sorted(p.items(), key=lambda mc: reference_key(mc[0], pool), reverse=True):
        if not m.exps:
            body = str(abs(c))
        else:
            body = m.text() if abs(c) == 1 else f"{abs(c)}*{m.text()}"
        sign = "-" if c < 0 else "+"
        chunks.append(("-" if c < 0 else "") + body if not chunks else f" {sign} {body}")
    return "".join(chunks) or "0"


# -- graded-lex order -----------------------------------------------------------


@given(polynomials() | wide_polynomials())
@example(xpoly(1) ** 2 + xpoly(1))  # x1's column is bounded by 3, above both its exponents
@example(xpoly(7) ** 4 * ypoly(3) ** 9 + xpoly(7) ** 3 * ypoly(3) ** 10)
@example(xpoly(2) ** MAX_DEGREE - apoly(12) ** 100 * tpoly() ** 27)
@example(Polynomial.zero())
@example(Polynomial.const(1))
@example(Polynomial.const(-1))
@example(Polynomial.const(-(2**70)))
@example(xpoly(1) - 1)
@example(1 - xpoly(1) * ypoly(1))
@example(-3 * xpoly(1) + xpoly(2) + 12)
@example(-(2**70) * apoly(2) ** 15 + 2**64 * tpoly() - 2**65)
@example(11 * xpoly(1) - xpoly(2) + 10 * xpoly(3) - 1)  # unit coefficients beside 11 and 10
@example(-xpoly(1) + 1)
@example(ypoly(3) ** 2 * apoly(1) - apoly(2) ** 3 + 7 * ypoly(1))  # no t and no x field
@example(tpoly())
def test_order_matches_the_reference(p):
    assert canonical_text(p) == expected_text(p)
    if p:
        pool = sorted({v for m, _ in p.items() for v, _ in m.exps})
        ordered = sorted(p.items(), key=lambda mc: reference_key(mc[0], pool), reverse=True)
        assert p.leading() == ordered[0]
        assert p.largest(3) == ordered[:3]


@pytest.mark.parametrize("shape", [(7,), (3, 2, 1, 1), (4, 2, 2), (2, 2, 2, 1, 1)])
def test_printed_tableau_sums_match_the_reference(shape):
    # the sizes and variable counts that the CLI prints on its largest tableau sums
    p = combinat.schur_tableaux(shape, 7)
    text = canonical_text(p)
    assert text == expected_text(p)
    assert parse_poly(text) == p


def test_order_examples_across_field_positions():
    assert canonical_text(apoly(12) + xpoly(1)) == "x1 + a12"
    assert canonical_text(apoly(12) ** 2 + xpoly(1)) == "a12^2 + x1"
    assert canonical_text(ypoly(3) * apoly(1) + xpoly(7) * apoly(2)) == "x7*a2 + y3*a1"
    assert canonical_text(tpoly() + xpoly(1) ** 2) == "x1^2 + t"


# -- the degree limit -------------------------------------------------------------


def test_products_and_quotients_at_the_limit():
    below = xpoly(1) ** (MAX_DEGREE - 1)
    top = mul(below, xpoly(1))
    assert canonical_text(top) == f"x1^{MAX_DEGREE}"
    assert top.degree() == MAX_DEGREE
    assert exact_div(top, below) == xpoly(1)
    assert exact_div(top, xpoly(1)) == below

    half = (MAX_DEGREE - 1) // 2  # 63: fields next to each other, both near the limit
    p = xpoly(1) ** half * apoly(12) ** half + tpoly()
    q = xpoly(1) - ypoly(3)
    product = p * q
    assert canonical_text(product) == (
        f"x1^{half + 1}*a12^{half} - x1^{half}*y3*a12^{half} + t*x1 - t*y3"
    )
    assert exact_div(product, q) == p  # synthetic division, next to the limit
    assert exact_div(product, p) == q  # long division
    assert parse_poly(canonical_text(product)) == product

    merged = substitute_family(xpoly(1) ** 100 * apoly(1) ** 27, Family.X, Family.A, 0)
    assert merged == apoly(1) ** MAX_DEGREE


def test_degree_overflow_is_raised_not_carried():
    top = xpoly(1) ** MAX_DEGREE
    with pytest.raises(DegreeOverflow):
        top * xpoly(2)
    with pytest.raises(DegreeOverflow):
        xpoly(1) ** (MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflow):
        Monomial.of({xvar(1): MAX_DEGREE + 1})
    with pytest.raises(DegreeOverflow):
        Monomial.of({xvar(1): 100}).mul(Monomial.of({yvar(1): 28}))
    with pytest.raises(DegreeOverflow):
        parse_poly(f"x1^{MAX_DEGREE + 1}")
    wide = xpoly(1) ** 100 + 1
    with pytest.raises(DegreeOverflow):
        add_mul(Polynomial.zero(), wide, wide, degree_cap=200)
    # a cap within the limit keeps every formed product within it
    assert add_mul(Polynomial.zero(), wide, wide, degree_cap=MAX_DEGREE) == 2 * xpoly(1) ** 100 + 1
    assert add_mul(Polynomial.zero(), top, top, degree_cap=3) == Polynomial.zero()


# -- unit keys ------------------------------------------------------------------------


def test_unit_keys_are_the_keys_of_the_variables():
    for family, poly in [(Family.X, xpoly), (Family.Y, ypoly), (Family.A, apoly)]:
        for index in (1, 2, 7, 42):
            key = Monomial.of({Variable(family, index): 1})._key
            assert ring._unit(family, index) == key
            assert poly(index)._terms == {key: 1}
            if family == Family.X:
                assert x_word_sum([(index,)]) == poly(index)
                assert x_shift_sums({0: [(Polynomial.one(), 1)]}, index)[0] == poly(index)
    assert ring._unit(Family.T, 0) == Monomial.of({tvar(): 1})._key


def test_unit_keys_refuse_an_index_as_variables_do():
    with pytest.raises(ValueError, match="^X indices start at 1, got 0$"):
        xvar(0)
    for refused in (
        lambda: xpoly(0),
        lambda: x_word_sum([(1, 0)]),
        lambda: x_shift_sums({}, 0),
    ):
        with pytest.raises(ValueError, match="^X indices start at 1, got 0$"):
            refused()
    with pytest.raises(ValueError, match="^Y indices start at 1, got -1$"):
        ypoly(-1)
    with pytest.raises(ValueError, match="^A indices start at 1, got 0$"):
        apoly(0)
    with pytest.raises(ValueError, match="^t is a single variable; its index is fixed at 0$"):
        Variable(Family.T, 1)


# -- long division against the max() scan -------------------------------------------


@given(polynomials(), polynomials(max_terms=4))
@example(2 * xpoly(1) - 2, xpoly(1) + 1)  # the product -2*x1 leads before the constant -2
def test_long_division_matches_scan_division(p, d):
    if d.is_zero():
        return
    product = p * d
    assert exact_div(product, d) == scan_div(product, d) == p


@given(polynomials(), polynomials(max_terms=4))
def test_long_division_fails_where_scan_division_fails(p, d):
    if d.is_zero():
        return
    try:
        expected = scan_div(p, d)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            exact_div(p, d)
    else:
        assert exact_div(p, d) == expected


# -- synthetic division by u - v against the max() scan --------------------------------


@st.composite
def linear_divisors(draw):
    """u - v for two distinct variables of any families, in either sign order."""
    u, v = draw(st.lists(st.sampled_from(_POOL), min_size=2, max_size=2, unique=True))
    return Polynomial.variable(u) - Polynomial.variable(v)


@given(polynomials(), linear_divisors())
def test_linear_division_matches_scan_division(p, d):
    product = p * d
    assert exact_div(product, d) == scan_div(product, d) == p


@given(polynomials(), linear_divisors(), polynomials(max_terms=2))
def test_linear_division_fails_where_scan_division_fails(p, d, r):
    for dividend in (p, p * d + r):
        try:
            expected = scan_div(dividend, d)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                exact_div(dividend, d)
        else:
            assert exact_div(dividend, d) == expected


_x1, _x2, _x3 = xpoly(1), xpoly(2), xpoly(3)
_NEAR_LINEAR = [
    _x1 + _x2,
    2 * _x1 - 2 * _x2,
    _x1 - _x2 + 1,
    _x1**2 - _x2,
    _x1 * _x2 - _x3,
    -_x1 - _x2,
    _x1**3 - _x2,
]
_LINEAR = [_x1 - _x2, _x2 - _x1, _x1 - ypoly(3), tpoly() - apoly(12)]


@pytest.mark.parametrize("d", _NEAR_LINEAR + _LINEAR, ids=canonical_text)
def test_only_a_difference_of_two_variables_takes_synthetic_division(monkeypatch, d):
    calls = []
    linear_div = ring._linear_div

    def spy(*args):
        calls.append(args)
        return linear_div(*args)

    monkeypatch.setattr(ring, "_linear_div", spy)
    p = (_x1 + 2 * ypoly(3) * apoly(1) - tpoly()) * (_x3 - 1)
    assert exact_div(p * d, d) == scan_div(p * d, d) == p
    blocked = p * d + _x2**3
    with pytest.raises(NotDivisible):
        scan_div(blocked, d)
    with pytest.raises(NotDivisible):
        exact_div(blocked, d)
    assert bool(calls) == (d in _LINEAR)


def test_every_division_of_the_suite_and_the_cli_is_synthetic(monkeypatch, capsys):
    # long division is slow by design because nothing hot reaches it: if a
    # change sends one of these divisions through it, this fails
    divide, linear_div = ring.exact_div, ring._linear_div
    divisions, synthetic = [], []

    def exact_div_spy(p, d):
        if p:
            divisions.append(d)
        return divide(p, d)

    def linear_div_spy(*args):
        synthetic.append(args)
        return linear_div(*args)

    monkeypatch.setattr(ring, "_linear_div", linear_div_spy)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "schurpaths" and getattr(module, "exact_div", None) is divide:
            monkeypatch.setattr(module, "exact_div", exact_div_spy)
    for run, divides in (
        (lambda: all_verified(run_suite()), True),
        # the quotient divides in the alternant's normal form, with no exact_div
        (lambda: main(["schur", "--shape", "[2,1]", "--n", "3", "--method", "bialternant"]) == 0,
         False),
        (lambda: main(["verify", "newton"]) == 0, True),
    ):
        divisions.clear()
        synthetic.clear()
        assert run()
        assert bool(divisions) == divides and len(synthetic) == len(divisions)


# -- named mutants that the ring tests must catch ------------------------------------
#
# Every exact_div call of the package divides by some x_i - x_j, and no identity
# check reads printed text, so the suite's fault table reaches neither long
# division nor canonical_text.  Each row recompiles a ring function with one fragment
# replaced; a canary shows the fault is live, and the named test must then fail.


def _raises(error, function, *args) -> bool:
    try:
        function(*args)
    except error:
        return True
    return False


def _run_linear_dispatch_tests(monkeypatch):
    for d in _NEAR_LINEAR + _LINEAR:
        test_only_a_difference_of_two_variables_takes_synthetic_division(monkeypatch, d)


def _run_add_mul_tests(monkeypatch):
    monkeypatch.setattr(test_ring, "add_mul", ring.add_mul)
    test_ring.test_add_mul_is_sum_plus_product()


_RING_MUTANTS = {
    "one-term-pass-into-a-nonempty-accumulator": (
        "add_mul", "not acc._terms and len(p._terms) == 1", "len(p._terms) == 1",
        lambda: ring.add_mul(_x1, 2 * _x2, _x3 + 1) == 2 * _x2 * (_x3 + 1),
        _run_add_mul_tests,
    ),
    "long-division-quotient-key-keeps-the-lead": (
        # the remainder still loses its lead, so the loop ends
        "exact_div",
        "quotient.update(term._terms)",
        "quotient[monomial._key] = coeff // lead_coeff",
        lambda: exact_div(2 * _x1**2 - 2, _x1 + 1) == 2 * _x1**2 - 2 * _x1,
        lambda monkeypatch: test_long_division_matches_scan_division(),
    ),
    "dispatch-drops-the-unit-coefficient-condition": (
        "exact_div",
        "len(d._terms) == 2 and sorted(d._terms.values()) == [-1, 1]",
        "len(d._terms) == 2",
        lambda: exact_div(2 * _x1**2 - 2 * _x2**2, 2 * _x1 - 2 * _x2) == -2 * _x1 - 2 * _x2,
        _run_linear_dispatch_tests,
    ),
    "dispatch-drops-the-single-variable-condition": (
        "exact_div", "u & _DEGREE_MASK == v & _DEGREE_MASK == 1", "True",
        lambda: _raises(NotDivisible, exact_div, _x1**4 - _x1 * _x2, _x1**3 - _x2),
        _run_linear_dispatch_tests,
    ),
    "factor-tables-cut-at-exponent-99": (
        "canonical_text", "range(2, top + 1)", "range(2, min(top, 99) + 1)",
        lambda: canonical_text(_x1**99) == "x1^99"
        and _raises(IndexError, canonical_text, _x1**100),
        lambda monkeypatch: test_order_matches_the_reference(),
    ),
    "coefficients-printed-mod-2^64": (
        "canonical_text", "str(abs(c))", "str(abs(c) % 2**64)",
        lambda: canonical_text(2**64 * _x1 + 1) == "0*x1 + 1",
        lambda monkeypatch: test_order_matches_the_reference(),
    ),
}


@pytest.mark.parametrize("name", list(_RING_MUTANTS))
def test_a_ring_mutant_is_caught(monkeypatch, name):
    function, old, new, canary, run_catcher = _RING_MUTANTS[name]
    mutated = mutant(getattr(ring, function), old, new)
    monkeypatch.setattr(ring, function, mutated)
    monkeypatch.setitem(globals(), function, mutated)  # this module's own binding
    assert canary()  # the fault is live
    with pytest.raises(Exception):  # any exception fails the named test
        run_catcher(monkeypatch)
