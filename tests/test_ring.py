import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, strategies as st

from schurpaths.ring import (
    _byte_length,
    _field,
    _variable_at,
    DegreeOverflow,
    Family,
    IndexUnderflow,
    Monomial,
    NotDivisible,
    Polynomial,
    UnassignedVariable,
    Variable,
    add_mul,
    apoly,
    avar,
    canonical_text,
    coefficients,
    eval_int,
    exact_div,
    mul,
    parse_poly,
    substitute_family,
    substitute_zero,
    sum_of_products,
    tpoly,
    tvar,
    x_exponent_sum,
    x_shift_sums,
    xpoly,
    xvar,
    ypoly,
    yvar,
)

_VARIABLE_POOL = [tvar(), xvar(1), xvar(2), xvar(3), yvar(1), yvar(2), avar(1)]


@st.composite
def monomials(draw):
    chosen = draw(st.lists(st.sampled_from(_VARIABLE_POOL), max_size=3, unique=True))
    return Monomial.of({v: draw(st.integers(1, 2)) for v in chosen})


@st.composite
def polynomials(draw, max_terms=5):
    terms: dict[Monomial, int] = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = draw(monomials())
        c = draw(st.integers(-9, 9))
        terms[m] = terms.get(m, 0) + c
    return Polynomial(terms)


def assert_canonical(p: Polynomial):
    for monomial, coeff in p.items():
        assert coeff != 0
        assert all(e >= 1 for _, e in monomial.exps)


# -- variables and monomial order ---------------------------------------------


def test_variable_order_is_family_then_index():
    assert tvar() < xvar(1) < xvar(2) < yvar(1) < yvar(5) < avar(1)


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable(Family.X, 0)
    with pytest.raises(ValueError):
        Variable(Family.T, 1)


def test_graded_lex_order():
    def descending(*ps):  # one-term polynomials, listed from the graded-lex largest
        total = sum(ps, Polynomial.zero())
        return [Polynomial.term(m, c) for m, c in total.largest(len(ps))]

    x1, x2 = xpoly(1), xpoly(2)
    assert descending(x2 * x2, x1 * x1, x1 * x2) == [x1 * x1, x1 * x2, x2 * x2]
    assert descending(x1, x1 * x2) == [x1 * x2, x1]  # higher degree wins
    assert descending(x1, tpoly()) == [tpoly(), x1]  # t precedes x1


def test_monomial_rejects_zero_exponent():
    with pytest.raises(ValueError):
        Monomial(((xvar(1), 0),))


# -- operation examples ---------------------------------------------------------


def test_add_examples():
    assert xpoly(1) + xpoly(2) == parse_poly("x1 + x2")
    assert xpoly(1) + (-1) * xpoly(1) == Polynomial.zero()
    assert (xpoly(1) * xpoly(2) + 2) + xpoly(1) * xpoly(2) == parse_poly("2*x1*x2 + 2")


def test_mul_examples():
    assert (xpoly(1) - xpoly(2)) * (xpoly(1) + xpoly(2)) == parse_poly("x1^2 - x2^2")
    pair = 1 + xpoly(1) * ypoly(1)
    capped = add_mul(Polynomial.zero(), pair, pair, degree_cap=2)
    assert capped == parse_poly("2*x1*y1 + 1")
    assert (xpoly(1) + 3) * Polynomial.zero() == Polynomial.zero()


def test_x_shift_sums_examples():
    one = Polynomial.one()
    moves = {
        "a": [(one, 1), (xpoly(1), 0)],
        "b": [(xpoly(2), 2), (xpoly(2) ** 2, 1)],
        "c": [(xpoly(1) - ypoly(1), 1), (ypoly(1), 1)],
        "d": [(xpoly(1), 1), (-xpoly(1), 1)],
        "e": [],
    }
    assert x_shift_sums(moves, 2) == {
        "a": xpoly(1) + xpoly(2),
        "b": 2 * xpoly(2) ** 3,
        "c": xpoly(1) * xpoly(2),
        "d": Polynomial.zero(),
        "e": Polynomial.zero(),
    }
    assert x_shift_sums({}, 1) == {}
    with pytest.raises(ValueError):
        x_shift_sums({0: [(one, -1)]}, 1)
    with pytest.raises(DegreeOverflow):
        x_shift_sums({0: [(one, 1), (xpoly(1) ** 100, 28)]}, 2)


def test_x_exponent_sum_examples():
    groups = [(Polynomial.const(2), [(1, 0), (0, 1)]), (apoly(1) - 1, [(2,)])]
    assert x_exponent_sum(groups) == parse_poly("x1^2*a1 - x1^2 + 2*x1 + 2*x2")
    assert x_exponent_sum([(xpoly(1), [(1,)]), (-xpoly(1) ** 2, [()])]) == Polynomial.zero()
    assert x_exponent_sum([(apoly(1), [(0, 126)])]) == apoly(1) * xpoly(2) ** 126
    with pytest.raises(DegreeOverflow, match="total degree 128 exceeds"):
        x_exponent_sum([(apoly(1), [(0, 127)])])


def test_coefficients_examples():
    p = parse_poly("x1^2*a1 - x1*a2 + 3*x2 + 1")
    assert coefficients(p, xvar(1)) == [3 * xpoly(2) + 1, -apoly(2), apoly(1)]
    assert coefficients(p, avar(1)) == [parse_poly("-x1*a2 + 3*x2 + 1"), xpoly(1) ** 2]
    assert coefficients(p, tvar()) == [p]
    assert coefficients(Polynomial.zero(), xvar(1)) == []


@given(st.lists(st.tuples(polynomials(), st.integers(0, 3)), max_size=4), st.integers(1, 4))
def test_x_shift_sums_are_sums_of_products(summands, index):
    total = Polynomial.zero()
    for p, exponent in summands:
        total = total + p * xpoly(index) ** exponent
    shifted = x_shift_sums({"target": summands}, index)["target"]
    assert shifted == total
    assert shifted.degree() == max((k.degree() for k, _ in total.items()), default=-1)


def test_exact_div_examples():
    assert exact_div(xpoly(1) ** 2 - xpoly(2) ** 2, xpoly(1) - xpoly(2)) == xpoly(1) + xpoly(2)
    with pytest.raises(NotDivisible):
        exact_div(xpoly(1), xpoly(2))
    # a divisor x_i - x_j is divided out by synthetic division, which names it
    with pytest.raises(NotDivisible, match=r"x1 - x2 leaves the remainder term 1\*x2\^2"):
        exact_div(xpoly(1) ** 2, xpoly(1) - xpoly(2))
    with pytest.raises(NotDivisible, match=r"x2 - x1 leaves the remainder term 1\*x1\^2"):
        exact_div(xpoly(2) ** 2, xpoly(2) - xpoly(1))
    with pytest.raises(NotDivisible):
        exact_div(xpoly(1) + 1, Polynomial.const(2))  # integer coefficient blocks
    # every other divisor goes through long division, which names the blocked leading term
    x1, x2, y2 = xpoly(1), xpoly(2), ypoly(2)
    for p, d, message in [
        (x1**2 + 1, x1 + 2, "leading term 5*1 is not divisible by 1*x1"),
        (2 * x1**2 - 2 * x2**2, 4 * x1 - 4 * x2, "leading term 2*x1^2 is not divisible by 4*x1"),
        (x1**3 * y2 + x2, x1 * y2 + 1, "leading term -1*x1^2 is not divisible by 1*x1*y2"),
    ]:
        with pytest.raises(NotDivisible, match=f"^{re.escape(message)}$"):
            exact_div(p, d)
    with pytest.raises(ZeroDivisionError):
        exact_div(xpoly(1), Polynomial.zero())


def test_substitute_zero_examples():
    assert substitute_zero(xpoly(1) - xpoly(3), Family.X, 3) == xpoly(1)
    assert substitute_zero(xpoly(1) * xpoly(2), Family.X, 3) == xpoly(1) * xpoly(2)
    assert substitute_zero(ypoly(2) + xpoly(5), Family.Y, 2) == xpoly(5)
    with pytest.raises(ValueError):
        substitute_zero(tpoly(), Family.T, 1)


def test_substitute_family_examples():
    assert substitute_family(xpoly(1) - xpoly(3), Family.X, Family.X, 1) == xpoly(2) - xpoly(4)
    assert substitute_family(xpoly(3), Family.X, Family.A, -2) == apoly(1)
    assert substitute_family(ypoly(1), Family.X, Family.A, 0) == ypoly(1)
    with pytest.raises(IndexUnderflow):
        substitute_family(xpoly(1), Family.X, Family.X, -1)


def test_substitute_family_merges_collisions():
    p = xpoly(1) + apoly(1)
    assert substitute_family(p, Family.X, Family.A, 0) == 2 * apoly(1)


def test_eval_int_examples():
    assert eval_int(xpoly(1) - xpoly(2), {xvar(1): 5, xvar(2): 3}) == 2
    assert eval_int(Polynomial.zero(), {}) == 0
    assert eval_int(xpoly(1) ** 2, {xvar(1): -3}) == 9
    with pytest.raises(UnassignedVariable, match="x2"):
        eval_int(xpoly(1) + xpoly(2), {xvar(1): 1})


def _variables_by_scan(p: Polynomial) -> set[Variable]:
    """The variables of p, read off every byte of the OR of its keys: the reference."""
    present = reduce(or_, p._terms, 0)
    b = present.to_bytes(_byte_length(present), "little")
    return {_variable_at(f) for f, e in enumerate(b) if f and e}


def _eval_int_by_scan(p: Polynomial, assignment) -> int:
    """eval_int that checks every field up to the top one: the reference."""
    if not p._terms:
        return 0
    present = reduce(or_, p._terms)
    width = _byte_length(present)
    top = present.to_bytes(width, "little")
    powers: dict[int, list[int]] = {}
    for variable, value in assignment.items():
        field = _field(variable.family, variable.index)
        if field < width and top[field]:
            powers[field] = [value**e for e in range(top[field] + 1)]
    for field in range(1, width):
        if top[field] and field not in powers:
            raise UnassignedVariable(f"no value assigned to {_variable_at(field).text()}")
    total = 0
    for key, coefficient in p._terms.items():
        b = key.to_bytes(width, "little")
        for field, table in powers.items():
            coefficient *= table[b[field]]
        total += coefficient
    return total


_SPREAD_POOL = [tvar(), xvar(1), xvar(40), yvar(7), yvar(300), avar(2), avar(1000)]


@given(
    st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(_SPREAD_POOL), st.integers(1, 3), max_size=3),
            st.integers(-9, 9),
        ),
        max_size=4,
    ),
    st.dictionaries(st.sampled_from(_SPREAD_POOL), st.integers(-4, 4)),
)
def test_set_fields_read_as_the_full_scan(terms, assignment):
    p = sum((Polynomial.term(Monomial.of(exps), c) for exps, c in terms), Polynomial.zero())
    assert p.variables() == _variables_by_scan(p)
    try:
        expected = _eval_int_by_scan(p, assignment)
    except UnassignedVariable as missing:
        with pytest.raises(UnassignedVariable, match=f"^{re.escape(str(missing))}$"):
            eval_int(p, assignment)
    else:
        assert eval_int(p, assignment) == expected
    complete = {v: 2 for v in _variables_by_scan(p)}
    assert eval_int(p, complete) == _eval_int_by_scan(p, complete)


def test_canonical_text_examples():
    assert canonical_text(xpoly(1) + xpoly(2)) == "x1 + x2"
    assert canonical_text(Polynomial.zero()) == "0"
    assert canonical_text(-xpoly(2) + xpoly(1)) == "x1 - x2"
    assert canonical_text(-xpoly(1) + xpoly(2)) == "-x1 + x2"
    assert canonical_text(Polynomial.const(1)) == "1"
    assert canonical_text(Polynomial.const(-7)) == "-7"
    assert canonical_text(3 * xpoly(2) ** 4 - 1) == "3*x2^4 - 1"
    assert canonical_text(tpoly() * xpoly(1) * apoly(2)) == "t*x1*a2"


def test_parse_poly_rejects_garbage():
    for bad in ["", "x0", "x1 +x2", "x1^1", "x1**2", "2x1", " x1", "x1 "]:
        with pytest.raises(ValueError):
            parse_poly(bad)
    # text that parses but is not canonical is refused with its canonical form
    non_canonical = {
        "1*x1": "x1",
        "0*x1": "0",
        "-0": "0",
        "x2 + x1": "x1 + x2",
        "x1 + x1": "2*x1",
        "01*x1": "x1",
        "x1*x1": "x1^2",
    }
    for bad, canonical in non_canonical.items():
        with pytest.raises(ValueError, match=re.escape(repr(canonical))):
            parse_poly(bad)


def test_bool_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial({Monomial(): True})
    with pytest.raises(TypeError):
        Polynomial.const(True)
    with pytest.raises(TypeError):
        Polynomial.term(Monomial.of({xvar(1): 1}), False)
    assert Polynomial.const(1) == 1
    assert Polynomial.const(1) != True  # noqa: E712 - a bool is not a ring element


# -- properties ----------------------------------------------------------------


@given(polynomials(), polynomials())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polynomials(), polynomials(), polynomials())
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polynomials(), polynomials())
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polynomials(max_terms=3), polynomials(max_terms=3), polynomials(max_terms=3))
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polynomials(max_terms=3), polynomials(max_terms=3), polynomials(max_terms=3))
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polynomials(), polynomials())
def test_capped_mul_is_truncated_full_mul(p, q):
    for cap in (0, 1, 2, 4):
        full = p * q
        expected = Polynomial({m: c for m, c in full.items() if m.degree() <= cap})
        assert add_mul(Polynomial.zero(), p, q, degree_cap=cap) == expected


@given(polynomials(), polynomials())
def test_exact_div_round_trip(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


@given(polynomials())
def test_text_round_trip(p):
    assert parse_poly(canonical_text(p)) == p


@given(polynomials(), polynomials())
def test_eval_is_a_ring_homomorphism(p, q):
    assignment = {v: 3 - i for i, v in enumerate(sorted(p.variables() | q.variables()))}
    assert eval_int(p + q, assignment) == eval_int(p, assignment) + eval_int(q, assignment)
    assert eval_int(p * q, assignment) == eval_int(p, assignment) * eval_int(q, assignment)


@given(polynomials(), polynomials())
def test_results_stay_canonical(p, q):
    for value in (p + q, p - q, p * q, -p, add_mul(Polynomial.zero(), p, q, degree_cap=2)):
        assert_canonical(value)


# -- the one-pass kernels against term-by-term oracles ----------------------------

_CAPS = st.sampled_from([None, 0, 1, 2, 3, 5])


@st.composite
def one_terms(draw):
    coefficient = draw(st.integers(-9, 9).filter(bool))
    return Polynomial.term(draw(monomials()), coefficient)


def term_product(p, q, cap=None):
    """p * q summed term by term from Monomial.mul, dropping degrees above cap."""
    total = Polynomial.zero()
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1.mul(m2)
            if cap is None or m.degree() <= cap:
                total = total + Polynomial.term(m, c1 * c2)
    return total


def assert_degree_is_exact(p):
    assert p.degree() == max((m.degree() for m in p.terms()), default=-1)


@given(one_terms(), polynomials(), _CAPS)
def test_one_term_product_is_the_term_by_term_product(term, p, cap):
    expected = term_product(term, p, cap)
    zero = Polynomial.zero()
    for product in (add_mul(zero, term, p, cap), add_mul(zero, p, term, cap)):
        assert product == expected
        assert_canonical(product)
        assert_degree_is_exact(product)
    assert term * p == p * term == term_product(term, p)


@given(one_terms(), st.integers(0, 6))
def test_power_of_a_term_is_repeated_multiplication(term, exponent):
    expected = Polynomial.one()
    for _ in range(exponent):
        expected = term_product(expected, term)
    power = term**exponent
    assert power == expected
    assert_degree_is_exact(power)


@given(polynomials(), polynomials(), polynomials(), _CAPS)
@example(xpoly(1), 2 * xpoly(2), xpoly(3) + 1, None)  # a one-term factor into a non-empty sum
def test_add_mul_is_sum_plus_product(acc, p, q, cap):
    product = add_mul(Polynomial.zero(), p, q, cap)
    for start in (acc, Polynomial.zero(), -product, acc - product):
        fused = add_mul(start, p, q, cap)
        assert fused == start + product
        assert_canonical(fused)
        assert_degree_is_exact(fused)
    assert add_mul(-product, p, q, cap) == Polynomial.zero()  # full cancellation
    assert add_mul(acc - product, p, q, cap) == acc


@given(st.lists(st.tuples(polynomials(), polynomials()), max_size=4))
def test_sum_of_products_is_the_running_sum(pairs):
    expected = Polynomial.zero()
    for p, q in pairs:
        expected = expected + term_product(p, q)
    total = sum_of_products(pairs)
    assert total == expected
    assert_canonical(total)
    assert_degree_is_exact(total)
    assert sum_of_products(pairs + [(-p, q) for p, q in pairs]) == Polynomial.zero()


@given(polynomials(), polynomials())
def test_difference_is_sum_with_the_negation(p, q):
    difference = p - q
    assert difference == p + (-q)
    assert_degree_is_exact(difference)
    assert p - p == Polynomial.zero()


def test_fast_paths_raise_degree_overflow_where_products_do():
    x1, y1 = xpoly(1), ypoly(1)
    for base in (x1, -3 * x1, 2 * x1 * y1):
        with pytest.raises(DegreeOverflow):
            base**128
    assert (-3 * x1) ** 127 == Polynomial.term(Monomial.of({xvar(1): 127}), (-3) ** 127)
    assert Polynomial.const(2) ** 200 == Polynomial.const(2**200)  # degree 0 stays 0
    wide = y1**28 + 1
    for term in (x1**100, -2 * x1**100):
        with pytest.raises(DegreeOverflow):
            mul(term, y1**28)
        with pytest.raises(DegreeOverflow):
            mul(wide, term)
        with pytest.raises(DegreeOverflow):
            add_mul(Polynomial.zero(), term, wide, degree_cap=128)
        with pytest.raises(DegreeOverflow):
            add_mul(x1, term, wide)
        with pytest.raises(DegreeOverflow):
            sum_of_products([(x1, x1), (term, wide)])
        # a cap within the limit keeps every formed product within it
        assert add_mul(Polynomial.zero(), term, wide, degree_cap=100) == term
        assert add_mul(x1, term, wide, degree_cap=100) == x1 + term


def test_degree_conventions():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.one().degree() == 0
    assert (xpoly(1) * ypoly(2) ** 3).degree() == 4


def test_polynomials_are_hashable_values():
    seen = {xpoly(1) + xpoly(2): "sum"}
    assert seen[xpoly(2) + xpoly(1)] == "sum"


def test_equality_is_term_map_equality():
    # the identity checks compare polynomials with ==; it must read every
    # monomial and coefficient, not a summary that distinct polynomials share
    x1, x2 = xpoly(1), xpoly(2)
    pairs = [
        (x1, x2),  # equal lengths and degrees
        (x1, 2 * x1),  # equal monomials, so equal variables() and lengths
        (x1, -x1),
        (x1 + x2, x1 * x2),  # equal variables()
        (x1**2, x1),  # equal values at 0 and at 1
        (x1 - x2, x2 - x1),
        (Polynomial.const(3), Polynomial.const(-3)),
    ]
    for p, q in pairs:
        assert p != q and not p == q and q != p
        assert p == Polynomial(p.terms()) and p.terms() != q.terms()
    # nor may it trust the hash: force one onto both sides of each pair
    for p, q in pairs:
        p, q = Polynomial(p.terms()), Polynomial(q.terms())
        p._hash = q._hash = 12345
        assert hash(p) == hash(q) and p != q
    assert x1 + x2 == x2 + x1
