import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

from lgv_oracle import brute_force_sum, brute_force_systems, dfs_paths, edge_weight
from schurpaths.combinat import partitions_in_box, schur_tableaux
from schurpaths.lgv import (
    OutOfBounds,
    Point,
    bialternant_endpoints,
    cauchy_doubled_scheme,
    cauchy_endpoints,
    corollary_power,
    e_weight,
    enumerate_paths,
    jacobi_trudi_scheme,
    lemma_product,
    lgv_det,
    nonintersecting_count,
    nonintersecting_systems,
    nonintersecting_sum,
    path_count,
    path_matrix,
    path_systems_svg,
    schur_endpoints,
    schur_via_lgv,
    schur_weighted_scheme,
    system_weight,
    vandermonde_endpoints,
    vandermonde_scheme,
)
from schurpaths.ring import Polynomial, parse_poly, xpoly, ypoly
from schurpaths.symfun import vandermonde


# -- schemes, bounds, single-pair weights --------------------------------------


def test_out_of_bounds():
    scheme = schur_weighted_scheme(n=2, col_bound=3)
    with pytest.raises(OutOfBounds):
        e_weight(scheme, Point(0, 1), Point(2, 2))
    with pytest.raises(OutOfBounds):
        e_weight(scheme, Point(1, 1), Point(4, 2))
    doubled = cauchy_doubled_scheme(2, 5)
    with pytest.raises(OutOfBounds):
        e_weight(doubled, Point(1, 1), Point(1, 5))
    with pytest.raises(OutOfBounds):  # every sink of a matrix is checked
        path_matrix(scheme, [Point(1, 1)], [Point(2, 2), Point(4, 2)])


def test_e_weight_schur_examples():
    scheme = schur_weighted_scheme(n=4, col_bound=4)
    assert e_weight(scheme, Point(1, 1), Point(2, 1)) == xpoly(1) - xpoly(2)
    assert e_weight(scheme, Point(1, 1), Point(2, 2)) == xpoly(1) - xpoly(3)
    assert e_weight(scheme, Point(2, 2), Point(2, 2)) == Polynomial.one()
    assert e_weight(scheme, Point(3, 1), Point(1, 2)) == Polynomial.zero()


def test_e_weight_jacobi_trudi_powers():
    scheme = jacobi_trudi_scheme(n=3, col_bound=6)
    # k right steps on row 1 each carry x1
    for k in range(4):
        assert e_weight(scheme, Point(1, 1), Point(1 + k, 1)) == xpoly(1) ** k


def test_e_weight_equals_path_enumeration():
    for builder in (
        lambda: jacobi_trudi_scheme(n=3, col_bound=6),
        lambda: schur_weighted_scheme(n=3, col_bound=6),
        lambda: schur_weighted_scheme(n=3, col_bound=6, truncated=True),
    ):
        scheme = builder()
        for m in range(1, 6):
            for n in range(1, 6):
                paths = list(enumerate_paths(scheme, Point(1, 1), Point(m, n)))
                assert len(paths) == path_count(scheme, Point(1, 1), Point(m, n))
                total = Polynomial.zero()
                for path in paths:
                    total = total + path.weight
                assert total == e_weight(scheme, Point(1, 1), Point(m, n))


_SCHEMES = {
    "jacobi-trudi": lambda n, bound: jacobi_trudi_scheme(n=n, col_bound=bound),
    "schur-weighted": lambda n, bound: schur_weighted_scheme(n=n, col_bound=bound),
    "truncated": lambda n, bound: schur_weighted_scheme(n=n, col_bound=bound, truncated=True),
    "cauchy-doubled": lambda n, bound: cauchy_doubled_scheme(n, bound),
}


@st.composite
def _matrix_configs(draw):
    """A scheme of any kind, 1-3 sources and 1-4 sinks anywhere in its window."""
    n = draw(st.integers(1, 2))
    scheme = _SCHEMES[draw(st.sampled_from(sorted(_SCHEMES)))](n, draw(st.integers(1, 4)))
    rows = st.integers(1, scheme.row_bound() or 4)
    points = st.builds(Point, st.integers(1, scheme.col_bound), rows)
    sources = draw(st.lists(points, min_size=1, max_size=3))
    return scheme, sources, draw(st.lists(points, min_size=1, max_size=4))


@given(_matrix_configs())
# sinks on one row
@example((jacobi_trudi_scheme(n=3, col_bound=4), [Point(1, 1), Point(2, 2)], [
    Point(1, 3), Point(3, 3), Point(4, 3),
]))
# sinks on several rows, the source's own among them
@example((schur_weighted_scheme(n=3, col_bound=4, truncated=True), [Point(1, 1), Point(1, 2)], [
    Point(4, 1), Point(2, 2), Point(3, 4), Point(1, 3),
]))
# sinks left of the source, below it and on it
@example((schur_weighted_scheme(n=3, col_bound=4), [Point(3, 2)], [
    Point(1, 3), Point(2, 2), Point(4, 1), Point(3, 2),
]))
# the doubled graph: sinks in both halves, one below the source, one left of it
@example((cauchy_doubled_scheme(2, 5), [Point(1, 1), Point(3, 2)], [
    Point(1, 4), Point(2, 3), Point(5, 2), Point(2, 1),
]))
def test_path_matrix_entries_are_oracle_sums(config):
    scheme, sources, sinks = config
    matrix = path_matrix(scheme, sources, sinks)
    assert (matrix.n_rows, matrix.n_cols) == (len(sources), len(sinks))
    for i, a in enumerate(sources):
        for j, b in enumerate(sinks):
            paths = list(dfs_paths(scheme, a, b))
            assert matrix.entry(i, j) == sum((path.weight for path in paths), Polynomial.zero())
            assert path_count(scheme, a, b) == len(paths)


def test_an_edge_runs_only_in_its_row_s_direction():
    x1, x2, y1, y2 = xpoly(1), xpoly(2), ypoly(1), ypoly(2)
    cases = [  # scheme, the step on row 1 or the given row with the direction, its weight
        (jacobi_trudi_scheme(n=2, col_bound=3), 1, x1),
        (schur_weighted_scheme(n=2, col_bound=3), 1, x1 - x2),
        (cauchy_doubled_scheme(2, 3), 1, x1 - x2),  # the lower half moves right
    ]
    for scheme, row, weight in cases:
        assert edge_weight(scheme, Point(1, row), Point(2, row)) == weight
        assert edge_weight(scheme, Point(2, row), Point(2, row + 1)) == Polynomial.one()
        with pytest.raises(ValueError, match="is not a lattice edge"):
            edge_weight(scheme, Point(2, row), Point(1, row))
    # the upper half of the doubled graph moves left: row 4 mirrors row 1
    doubled = cauchy_doubled_scheme(2, 3)
    assert edge_weight(doubled, Point(2, 4), Point(1, 4)) == y1 - y2
    with pytest.raises(ValueError, match="is not a lattice edge"):
        edge_weight(doubled, Point(1, 4), Point(2, 4))
    for frm, to in [(Point(1, 1), Point(3, 1)), (Point(1, 2), Point(1, 1)), (Point(1, 1), Point(2, 2))]:
        with pytest.raises(ValueError, match="is not a lattice edge"):
            edge_weight(doubled, frm, to)


@pytest.mark.parametrize("scheme, sources, sinks", [
    (jacobi_trudi_scheme(n=3, col_bound=4), [Point(1, 1), Point(2, 1), Point(3, 2)],
     [Point(col, 3) for col in range(1, 5)]),
    (cauchy_doubled_scheme(2, 5), *cauchy_endpoints(2)),
])
def test_path_matrix_computes_each_edge_weight_once_per_call(monkeypatch, scheme, sources, sinks):
    from schurpaths import lgv

    weigh, calls = lgv._horizontal_weight, []

    def counted(*args):
        calls.append(args)
        return weigh(*args)

    monkeypatch.setattr(lgv, "_horizontal_weight", counted)
    matrix = path_matrix(scheme, sources, sinks)
    rows = scheme.row_bound() or max(b.row for b in sinks)
    assert len(calls) == len(set(calls)) <= rows * (scheme.col_bound - 1)
    # the memo belongs to the call: a second call weighs its edges again
    calls.clear()
    assert path_matrix(scheme, sources, sinks).entries == matrix.entries
    assert len(calls) == len(set(calls)) > 0


def test_counts_weigh_no_edge_and_traced_paths_weigh_each_edge_once(monkeypatch):
    from schurpaths import lgv

    weigh, calls = lgv._horizontal_weight, []

    def counted(*args):
        calls.append(args)
        return weigh(*args)

    monkeypatch.setattr(lgv, "_horizontal_weight", counted)
    scheme = jacobi_trudi_scheme(n=3, col_bound=5)
    sources, sinks = schur_endpoints((2, 1), 3)
    assert nonintersecting_count(scheme, sources, sinks) == 8
    assert path_count(scheme, sources[0], sinks[2]) == 15
    assert calls == []
    # the walk weighs nothing; its 8 traced systems read 7 distinct edges from one memo
    systems = list(nonintersecting_systems(scheme, sources, sinks))
    assert len(systems) == 8
    assert len(calls) == len(set(calls)) == 7


def test_enumerate_paths_basics():
    scheme = schur_weighted_scheme(n=2, col_bound=2)
    trivial = list(enumerate_paths(scheme, Point(2, 2), Point(2, 2)))
    assert len(trivial) == 1
    assert trivial[0].weight == Polynomial.one()
    square = list(enumerate_paths(scheme, Point(1, 1), Point(2, 2)))
    assert len(square) == 2
    assert square == list(enumerate_paths(scheme, Point(1, 1), Point(2, 2)))


# -- main lemma and corollary ----------------------------------------------------


def test_lemma_product_examples():
    assert lemma_product(1, 4) == Polynomial.one()
    assert lemma_product(2, 2) == xpoly(1) - xpoly(3)
    assert lemma_product(3, 1) == (xpoly(1) - xpoly(3)) * (xpoly(1) - xpoly(2))


def test_main_lemma_closed_form():
    scheme = schur_weighted_scheme(n=6, col_bound=6)
    for m in range(1, 7):
        for n in range(1, 7):
            assert e_weight(scheme, Point(1, 1), Point(m, n)) == lemma_product(m, n)


def test_main_lemma_induction_recurrence():
    # the horizontal step into (m, n) carries x_n - x_{m+n-1}
    scheme = schur_weighted_scheme(n=5, col_bound=5)
    for m in range(2, 6):
        for n in range(2, 6):
            whole = e_weight(scheme, Point(1, 1), Point(m, n))
            left = e_weight(scheme, Point(1, 1), Point(m - 1, n))
            below = e_weight(scheme, Point(1, 1), Point(m, n - 1))
            assert whole == left * (xpoly(n) - xpoly(m + n - 1)) + below


def test_corollary_power_examples():
    assert corollary_power(1, 1, 2) == Polynomial.one()
    assert corollary_power(2, 4, 3) == xpoly(2) ** 3
    with pytest.raises(ValueError):
        corollary_power(2, 3, 2)


def test_corollary_against_truncated_dp():
    for n in range(2, 5):
        scheme = schur_weighted_scheme(n=n, col_bound=5, truncated=True)
        for t in range(1, n):
            for m in range(1, 6):
                assert e_weight(scheme, Point(1, t), Point(m, n)) == corollary_power(t, m, n)


# -- Vandermonde configuration -----------------------------------------------------


def test_vandermonde_endpoints_quoted_lists():
    sources, sinks = vandermonde_endpoints(1)
    assert sources == [Point(1, 1)] and sinks == [Point(1, 1)]
    sources, sinks = vandermonde_endpoints(2)
    assert sources == [Point(1, 1), Point(1, 2)]
    assert sinks == [Point(2, 2), Point(1, 2)]
    _, sinks = vandermonde_endpoints(3)
    assert sinks == [Point(3, 3), Point(2, 3), Point(1, 3)]


def test_vandermonde_entries_are_powers():
    for n in (1, 2, 3, 4):
        scheme = vandermonde_scheme(n)
        sources, sinks = vandermonde_endpoints(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert e_weight(scheme, sources[i - 1], sinks[j - 1]) == xpoly(i) ** (n - j)


def test_vandermonde_unique_system_and_sum():
    for n in (1, 2, 3):
        scheme = vandermonde_scheme(n)
        sources, sinks = vandermonde_endpoints(n)
        systems = list(nonintersecting_systems(scheme, sources, sinks))
        assert len(systems) == 1
        assert systems[0].sigma == tuple(range(n))
        assert system_weight(systems[0]) == vandermonde(n)
        assert nonintersecting_sum(scheme, sources, sinks) == vandermonde(n)
        assert lgv_det(scheme, sources, sinks) == vandermonde(n)


# -- Schur configuration -------------------------------------------------------------


def test_schur_endpoints_quoted():
    sources, sinks = schur_endpoints((2, 1), 3)
    assert sources == [Point(1, 1), Point(2, 1), Point(3, 1)]
    # b_1 = (1 + lambda_3, 3), b_2 = (2 + lambda_2, 3), b_3 = (3 + lambda_1, 3)
    assert sinks == [Point(1, 3), Point(3, 3), Point(5, 3)]


def test_schur_via_lgv_examples():
    assert schur_via_lgv((), 2) == Polynomial.one()
    assert schur_via_lgv((1,), 2) == xpoly(1) + xpoly(2)
    assert schur_via_lgv((1, 1, 1), 2) == Polynomial.zero()


def test_schur_via_lgv_matches_tableaux():
    for n in (1, 2, 3):
        for shape in partitions_in_box(n, 4):
            assert schur_via_lgv(shape, n) == schur_tableaux(shape, n)
    # about 100 s by brute-force enumeration of the path systems
    assert schur_via_lgv((2, 2, 1, 1, 1), 7) == schur_tableaux((2, 2, 1, 1, 1), 7)


def test_schur_via_lgv_matches_brute_force_systems():
    # every shape in the n x 3 box against the brute-force oracle on the same
    # scheme and endpoints; the oracle also confirms the crossing argument,
    # under which every system pairs source k with sink k
    for n in (1, 2, 3, 4):
        for shape in partitions_in_box(n, 3):
            scheme = jacobi_trudi_scheme(n=n, col_bound=(shape[0] if shape else 0) + n)
            sources, sinks = schur_endpoints(shape, n)
            systems = _matches_oracle(scheme, sources, sinks)
            assert all(system.sigma == tuple(range(n)) for system in systems), shape
            assert schur_via_lgv(shape, n) == brute_force_sum(systems), (shape, n)


def test_bialternant_endpoints_quoted():
    double_primed, primed, _ = bialternant_endpoints((1,), 2)
    assert primed == [Point(1, 2), Point(2, 1)]
    assert double_primed == [Point(1, 2), Point(1, 1)]
    double_primed, primed, _ = bialternant_endpoints((), 1)
    assert primed == [Point(1, 1)] and double_primed == [Point(1, 1)]


# -- Cauchy doubled graph --------------------------------------------------------------


def test_cauchy_entry_frozen_example():
    scheme = cauchy_doubled_scheme(1, 3)
    sources, sinks = cauchy_endpoints(1)
    assert e_weight(scheme, sources[0], sinks[0]) == parse_poly(
        "x1^2*y1^2 + x1*y1 + 1"
    )


def test_cauchy_entries_are_geometric_sums():
    # a path that turns at column m has degree 2(m - 1): cap + 1 columns keep the powers k <= cap
    for n in (1, 2, 3):
        for cap in (0, 2, 4):
            matrix = path_matrix(cauchy_doubled_scheme(n, cap + 1), *cauchy_endpoints(n))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    geometric = Polynomial.zero()
                    for k in range(cap + 1):
                        geometric = geometric + (xpoly(i) * ypoly(j)) ** k
                    assert matrix.entry(i - 1, j - 1) == geometric


def test_cauchy_window_is_exact():
    # one more column adds exactly the paths that turn there: (x_i * y_j)^(cap + 1)
    for n in (1, 2):
        sources, sinks = cauchy_endpoints(n)
        for cap in (0, 1, 3):
            narrow, wide = cauchy_doubled_scheme(n, cap + 1), cauchy_doubled_scheme(n, cap + 2)
            for i, a in enumerate(sources, 1):
                for j, b in enumerate(sinks, 1):
                    added = (xpoly(i) * ypoly(j)) ** (cap + 1)
                    assert e_weight(wide, a, b) - e_weight(narrow, a, b) == added


def test_cauchy_dp_matches_enumeration():
    scheme = cauchy_doubled_scheme(2, 4)
    sources, sinks = cauchy_endpoints(2)
    for a in sources:
        for b in sinks:
            total = Polynomial.zero()
            for path in enumerate_paths(scheme, a, b):
                total = total + path.weight
            assert total == e_weight(scheme, a, b)


# -- the LGV lemma itself ----------------------------------------------------------------


def test_lgv_single_pair_degenerates():
    scheme = jacobi_trudi_scheme(n=2, col_bound=4)
    a, b = Point(1, 1), Point(3, 2)
    assert nonintersecting_sum(scheme, [a], [b]) == e_weight(scheme, a, b)


def _random_monotone_config(rng, scheme_builder):
    n = rng.randint(1, 3)
    scheme = scheme_builder(rng.randint(max(n, 2), 4))
    cols = rng.sample(range(1, scheme.col_bound + 1), n)
    sources = [Point(c, 1) for c in sorted(cols)]
    top = rng.randint(2, 3)
    cols = rng.sample(range(1, scheme.col_bound + 1), n)
    sinks = [Point(c, top) for c in sorted(cols)]
    return scheme, sources, sinks


def test_lgv_lemma_on_random_configurations():
    rng = random.Random(2024)
    builders = [
        lambda bound: jacobi_trudi_scheme(n=3, col_bound=bound),
        lambda bound: schur_weighted_scheme(n=3, col_bound=bound),
        lambda bound: schur_weighted_scheme(n=3, col_bound=bound, truncated=True),
    ]
    for builder in builders:
        for _ in range(20):
            scheme, sources, sinks = _random_monotone_config(rng, builder)
            assert lgv_det(scheme, sources, sinks) == nonintersecting_sum(
                scheme, sources, sinks
            )


def test_lgv_lemma_on_random_doubled_configurations():
    rng = random.Random(515)
    for _ in range(20):
        n = rng.randint(1, 2)
        scheme = cauchy_doubled_scheme(n, rng.choice((3, 5)))
        size = rng.randint(1, n)
        source_rows = sorted(rng.sample(range(1, n + 1), size))
        sink_rows = sorted(rng.sample(range(n + 1, 2 * n + 1), size))
        sources = [Point(1, r) for r in source_rows]
        sinks = [Point(1, r) for r in sink_rows]
        assert lgv_det(scheme, sources, sinks) == nonintersecting_sum(
            scheme, sources, sinks
        )


def test_lgv_lemma_on_schur_configurations():
    for n in (1, 2, 3):
        for shape in partitions_in_box(n, 4):
            if sum(shape) > 4:
                continue
            width = (shape[0] if shape else 0) + n
            scheme = jacobi_trudi_scheme(n=n, col_bound=width)
            sources, sinks = schur_endpoints(shape, n)
            assert lgv_det(scheme, sources, sinks) == nonintersecting_sum(
                scheme, sources, sinks
            )


# -- the row-by-row machine against the brute-force oracle ---------------------------


def _matches_oracle(scheme, sources, sinks) -> list:
    """Assert that systems, count and signed sum equal the oracle's; return the systems."""
    expected = brute_force_systems(scheme, sources, sinks)
    assert list(nonintersecting_systems(scheme, sources, sinks)) == expected
    assert nonintersecting_count(scheme, sources, sinks) == len(expected)
    assert nonintersecting_sum(scheme, sources, sinks) == brute_force_sum(expected)
    return expected


def test_systems_match_oracle_on_vandermonde():
    for n in (1, 2, 3, 4):
        assert len(_matches_oracle(vandermonde_scheme(n), *vandermonde_endpoints(n))) == 1


def test_systems_match_oracle_on_random_monotone_configurations():
    # unsorted sources on rows 1-2 and sinks on rows 2-3, so that systems with
    # several permutations and negative signs occur
    rng = random.Random(606)
    builders = [
        lambda bound: jacobi_trudi_scheme(n=3, col_bound=bound),
        lambda bound: schur_weighted_scheme(n=3, col_bound=bound),
        lambda bound: schur_weighted_scheme(n=3, col_bound=bound, truncated=True),
    ]
    signs, sigmas = set(), 0
    for _ in range(200):
        n = rng.randint(1, 3)
        scheme = rng.choice(builders)(rng.randint(max(n, 2), 4))
        columns = range(1, scheme.col_bound + 1)
        sources = rng.sample([Point(c, r) for c in columns for r in (1, 2)], n)
        sinks = rng.sample([Point(c, r) for c in columns for r in (2, 3)], n)
        systems = _matches_oracle(scheme, sources, sinks)
        signs |= {system.sign for system in systems}
        sigmas += len({system.sigma for system in systems}) > 1
    assert signs == {1, -1} and sigmas > 0


def test_systems_match_oracle_when_later_sources_join_to_the_left():
    # sources on rows 1-4, each row's columns at or left of the rows below
    # (as on the Vandermonde and bialternant endpoints), sinks on one row:
    # the exit floors of the joining paths hold here
    rng = random.Random(707)
    found = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        bound = rng.randint(max(n, 2), 5)
        scheme = schur_weighted_scheme(n=4, col_bound=bound, truncated=rng.random() < 0.5)
        top = rng.randint(2, 5)
        sources, col = [], scheme.col_bound
        for row in sorted(rng.randint(1, top) for _ in range(n)):
            col = rng.randint(1, col)
            sources.append(Point(col, row))
        if len(set(sources)) < n:
            continue
        rng.shuffle(sources)
        sinks = rng.sample([Point(c, top) for c in range(1, scheme.col_bound + 1)], n)
        found += bool(_matches_oracle(scheme, sources, sinks))
    assert found > 20


def test_vandermonde_walk_carries_one_state_per_row():
    # later sources join left of every active path, so each row has one live state
    from schurpaths.lgv import _exit_floors, _sweep_systems, _unweighted_step

    for n in range(1, 8):
        scheme = vandermonde_scheme(n)
        sources, sinks = vandermonde_endpoints(n)
        seen = []

        def mark(value, cols, srcs):
            seen.append(cols)
            return value

        _sweep_systems(scheme, sources, sinks, 1, _unweighted_step, mark=mark)
        assert seen == [tuple(range(n + 1 - row, n + 1)) for row in range(1, n + 1)]
    joins = {row: [(1, row - 1)] for row in range(1, 4)}
    assert _exit_floors(joins, {3: {3: 0, 2: 1, 1: 2}}) == {3: [1, 2, 3], 2: [2, 3], 1: [3]}
    # a source joining right of an earlier one leaves the rows below it unbounded
    joins = {1: [(1, 0)], 2: [(3, 1)]}
    assert _exit_floors(joins, {3: {4: 0, 5: 1}}) == {3: [4, 5], 2: [0, 5]}


def test_systems_match_oracle_on_random_doubled_configurations():
    rng = random.Random(909)
    for _ in range(50):
        n = rng.randint(1, 2)
        scheme = cauchy_doubled_scheme(n, rng.choice((3, 5)))
        size = rng.randint(1, n)
        sources = [Point(1, r) for r in rng.sample(range(1, n + 1), size)]
        sinks = [Point(1, r) for r in rng.sample(range(n + 1, 2 * n + 1), size)]
        _matches_oracle(scheme, sources, sinks)


def test_path_weights_are_edge_products():
    scheme = schur_weighted_scheme(n=3, col_bound=4, truncated=True)
    for path in enumerate_paths(scheme, Point(1, 1), Point(3, 3)):
        product = Polynomial.one()
        for frm, to in zip(path.vertices, path.vertices[1:]):
            product = product * edge_weight(scheme, frm, to)
        assert product == path.weight


# -- SVG export -----------------------------------------------------------------------


def test_svg_is_wellformed_with_one_polyline_per_path():
    scheme = vandermonde_scheme(2)
    sources, sinks = vandermonde_endpoints(2)
    systems = list(nonintersecting_systems(scheme, sources, sinks))
    svg = path_systems_svg(sources, sinks, systems)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == sum(len(s.paths) for s in systems)
    labels = {e.text for e in root.iter() if e.tag.endswith("text")}
    assert {"a1", "a2", "b1", "b2"} <= labels


def test_svg_renders_empty_system_list():
    sources, sinks = vandermonde_endpoints(2)
    svg = path_systems_svg(sources, sinks, [])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
