import json
import re
from math import comb

import pytest

from mutants import mutant
from schurpaths import cli, combinat, identities, lgv, ring, symfun
from schurpaths.identities import (
    ERROR,
    IDENTITIES,
    MISMATCH,
    REQUIRED,
    VERIFIED,
    CheckReport,
    SuiteConfig,
    _mismatch_texts,
    all_verified,
    reports_to_json,
    run_suite,
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
from schurpaths.ring import Polynomial, TooLarge, apoly, xpoly, xvar


def test_main_lemma_verifier():
    assert verify_main_lemma(1, 1).status == VERIFIED
    assert verify_main_lemma(4, 4).status == VERIFIED


def test_verifiers_reject_sizes_below_one_by_their_own_options():
    # the check names the verifier's option, not a scheme's or a shape's bound
    for check, message in [
        (lambda: verify_main_lemma(0, 6), "main-lemma check needs m >= 1 and n >= 1"),
        (lambda: verify_main_lemma(6, 0), "main-lemma check needs m >= 1 and n >= 1"),
        (lambda: verify_jacobi_trudi((), 0), "jacobi-trudi check needs n >= 1"),
        (lambda: verify_jacobi_trudi((), -1), "jacobi-trudi check needs n >= 1"),
        (lambda: verify_bialternant((), 0), "bialternant check needs n >= 1"),
        (lambda: verify_bialternant((), -1), "bialternant check needs n >= 1"),
        (lambda: verify_factorial_schur((), 0), "factorial-schur check needs n >= 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()


class Built(Exception):
    """Raised by a patched construction step: the check got past its refusals."""


def _build(*args, **kwargs):
    raise Built


def test_main_lemma_refuses_an_oversized_grid_before_building_it(monkeypatch):
    # the closed form at sink (m, 1) has 2^(m-1) terms; a refusal that came
    # late would grow until the process runs out of memory
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(lgv, "lemma_product", _build)
    message = r"^main-lemma at m=19 > 18 needs closed forms of 2\^18 terms$"
    with pytest.raises(TooLarge, match=message):
        verify_main_lemma(19, 1)
    for m in (130, 20000):  # 2^19999 has more digits than str() of an int may print
        with pytest.raises(TooLarge, match=rf"m={m} > 18 needs closed forms of 2\^{m - 1} terms"):
            verify_main_lemma(m, 1)
    with pytest.raises(Built):  # m = 18 (131,072 terms) is still checked
        verify_main_lemma(18, 1)


def test_main_lemma_and_corollary_refuse_past_their_work_bound_before_building(monkeypatch):
    # (terms + 32 * closed forms) * (variables + 130) past 10^9: measured at 3-9 ns a unit
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(lgv, "schur_weighted_scheme", _build)
    for check, args in [
        (verify_main_lemma, (3, 100000)), (verify_main_lemma, (18, 4)),
        (verify_main_lemma, (2, 10**4000)), (verify_corollary, (300, 3)),
        (verify_corollary, (20, 20)), (verify_corollary, (10**4000, 3)),
    ]:
        with pytest.raises(TooLarge, match="past its work bound of 1000000000$"):
            check(*args)
    # the suite and acceptance points, and the largest grids measured under the bound
    for check, args in [
        (verify_main_lemma, (6, 6)), (verify_main_lemma, (18, 2)), (verify_main_lemma, (3, 2000)),
        (verify_corollary, (4, 5)), (verify_corollary, (100, 3)), (verify_corollary, (18, 18)),
    ]:
        with pytest.raises(Built):
            check(*args)


def test_vandermonde_refuses_n_past_9_before_expanding(monkeypatch):
    # the Vandermonde has n! terms; n = 9 took 21-26 s and 455 MB, and each
    # step of n multiplies time and memory by n
    monkeypatch.setattr(symfun, "vandermonde", _build)
    for n in (9, 3000):  # the message names 9!, never n!
        message = rf"^vandermonde at n={n} > 8 expands n! >= 362880 terms$"
        with pytest.raises(TooLarge, match=message):
            verify_vandermonde(n)
    with pytest.raises(Built):  # n = 8 (40,320 terms) is still checked
        verify_vandermonde(8)


def test_main_lemma_negative_control():
    report = verify_main_lemma(3, 3, corrupt_weights=True)
    assert report.status == MISMATCH
    assert report.lhs_text is not None and report.rhs_text is not None


def test_corollary_verifier():
    assert verify_corollary(4, 5).status == VERIFIED
    # n < 2 or m < 1 leaves no equality to check
    for n, m in [(1, 5), (0, 5), (4, 0)]:
        with pytest.raises(ValueError):
            verify_corollary(n, m)
    assert verify_corollary(2, 1).status == VERIFIED


def test_vandermonde_verifier():
    for n in (1, 2, 3, 4):
        report = verify_vandermonde(n)
        assert report.status == VERIFIED
        assert report.params == {"n": str(n), "systems": "1"}


def test_jacobi_trudi_verifier():
    for shape, n in [((3,), 2), ((1, 1), 2), ((2, 2), 4)]:
        assert verify_jacobi_trudi(shape, n).status == VERIFIED


def test_jacobi_trudi_negative_control():
    # the printed orientation h_{l_i + i - j} collapses to 0 at (2,1)
    report = verify_jacobi_trudi((2, 1), 3, flip_orientation=True)
    assert report.status == MISMATCH


def test_bialternant_verifier():
    for shape, n in [((), 1), ((), 3), ((2, 1), 3), ((3, 2, 1), 3), ((2, 2), 2)]:
        assert verify_bialternant(shape, n).status == VERIFIED


def test_cauchy_verifier():
    assert verify_cauchy(1, 3).status == VERIFIED
    assert verify_cauchy(2, 4).status == VERIFIED


def test_cauchy_refuses_exploding_grids(monkeypatch):
    # checked in order: a cap below n(n-1)/2 is a usage error; then at most
    # C(n + cap, n) = 20000 partitions, which every n >= 6 exceeds from its least
    # cap on (C(21, 6) = 54264).  A long series is left to the work budget
    monkeypatch.setattr(lgv, "path_matrix", _build)
    for n, cap in [(5, 15), (5, 10), (4, 18), (4, 16), (3, 45), (2, 63), (2, 1), (1, 0)]:
        with pytest.raises(Built):
            verify_cauchy(n, cap)
    for n, cap in [(12, 12), (10, 1), (10, 0), (8, 4), (6, 6)]:
        with pytest.raises(ValueError, match=f"^cauchy at n={n} needs degree_cap >= n"):
            verify_cauchy(n, cap)
    for n, cap in [(5, 16), (6, 15)]:
        with pytest.raises(TooLarge, match="^the truncated partition list would explode$"):
            verify_cauchy(n, cap)


def test_cauchy_refuses_a_cap_below_n_choose_2_before_building(monkeypatch):
    # every term of det(e(a_i, b_j)) and of Vdm(x) * Vdm(y) has degree >= n(n-1),
    # so below degree_cap = n(n-1)/2 both truncated sides are 0
    assert verify_cauchy(2, 1).status == verify_cauchy(3, 3).status == VERIFIED
    monkeypatch.setattr(lgv, "path_matrix", _build)
    for n, cap in [(2, 0), (3, 2), (5, 4), (5, 9), (6, 5), (7, 4), (8, 3), (9, 2)]:
        least = n * (n - 1) // 2
        message = f"cauchy at n={n} needs degree_cap >= n(n-1)/2 = {least};"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_cauchy(n, cap)


def test_cauchy_grid_leaves_out_caps_below_n_choose_2():
    def points(**config):
        return [g.points for g in IDENTITIES["cauchy"].grid(SuiteConfig(**config))]

    assert points() == [[{"n": 1, "degree_cap": 4}], [{"n": 2, "degree_cap": 4}]]
    assert points(cauchy_cap=0) == [[{"n": 1, "degree_cap": 0}]]
    assert points(cauchy_cap=1) == [[{"n": 1, "degree_cap": 1}], [{"n": 2, "degree_cap": 1}]]
    [report] = run_suite(SuiteConfig(cauchy_cap=0, only=["cauchy"]))
    assert (report.params, report.status) == ({"n": "1", "degree_cap": "0"}, VERIFIED)


def test_newton_refuses_past_power_16_before_building(monkeypatch):
    # the Newton form forms 3^power term products: power 16 takes 29 s, 17 105 s
    for name in ("divided_differences", "newton_form", "newton_expand", "complete_homogeneous"):
        monkeypatch.setattr(symfun, name, _build)
    with pytest.raises(Built):
        verify_newton(16)
    for power in (17, 40, 10**9):
        with pytest.raises(TooLarge, match=f"^newton at power={power} > 16 forms 3\\^{power} "):
            verify_newton(power)


def _strip_sum_zero_from_size_3(monkeypatch):
    schur = combinat.schur_tableaux
    monkeypatch.setattr(
        combinat,
        "schur_tableaux",
        lambda shape, n: Polynomial.zero() if sum(shape) >= 3 else schur(shape, n),
    )


def test_cauchy_compares_every_shape_below_the_cut(monkeypatch):
    # at n = 2, cap 4 the series reaches |lambda| = 3; a comparison that stops
    # short of the top degrees misses a fault there
    _strip_sum_zero_from_size_3(monkeypatch)
    report = verify_cauchy(2, 4)
    assert report.status == MISMATCH
    assert report.params == {"n": "2", "degree_cap": "4", "step": "truncated-series"}


def test_cauchy_fails_when_the_series_is_only_the_empty_shape(monkeypatch):
    schur = combinat.schur_tableaux
    monkeypatch.setattr(
        combinat, "schur_tableaux", lambda shape, n: Polynomial.zero() if shape else schur(shape, n)
    )
    report = verify_cauchy(3, 5)
    assert report.status == MISMATCH
    assert report.params == {"n": "3", "degree_cap": "5", "step": "truncated-series"}


def test_dual_cauchy_refuses_past_its_product_bound_before_multiplying(monkeypatch):
    # prod(1 + x_i y_j) has at least 2^max(n, m) terms: (1, 20) spends 4.3 million units
    # of ring work in 6.4 s, so a longer side is refused at once
    monkeypatch.setattr(identities, "xpoly", _build)
    for n, m in [(5, 5), (4, 6), (6, 4), (3, 8), (2, 12), (1, 20), (20, 1)]:
        with pytest.raises(Built):
            verify_dual_cauchy(n, m)
    for n, m in [(1, 21), (21, 1), (1000, 1000)]:
        message = (
            rf"^dual-cauchy at n={n}, m={m} expands prod\(1 \+ x_i\*y_j\) of at least"
            rf" 2\^max\(n, m\) terms, past max\(n, m\) = 20$"
        )
        with pytest.raises(TooLarge, match=message):
            verify_dual_cauchy(n, m)


def test_dual_determinant_refuses_past_n_plus_m_8_before_building(monkeypatch):
    # n + m = 8 takes 0.5 s at (1, 7) and 4.5 s at (4, 4); n + m = 9 takes 11 s
    # at (1, 8), about 70 s at (2, 7) and past 150 s at (3, 6); (1, 9) outgrew 2 GB
    monkeypatch.setattr(identities, "xpoly", _build)
    for n in range(1, 8):
        for m in range(1, 9 - n):
            with pytest.raises(Built):
                verify_dual_determinant(n, m)
    for n, m in [(1, 8), (4, 5), (8, 1), (1, 9), (5, 5), (30, 30)]:
        message = rf"^dual-determinant at n={n}, m={m} needs n \+ m <= 8 for its determinant$"
        with pytest.raises(TooLarge, match=message):
            verify_dual_determinant(n, m)


def test_dual_cauchy_verifier():
    report = verify_dual_cauchy(1, 1)
    assert report.status == VERIFIED
    assert report.params["partitions"] == "2"
    assert verify_dual_cauchy(2, 2).params["partitions"] == "6"
    assert verify_dual_cauchy(3, 2).params["partitions"] == "10"


def test_dual_determinant_epsilon_values():
    assert verify_dual_determinant(1, 1).params["epsilon"] == "-1"
    assert verify_dual_determinant(2, 1).params["epsilon"] == "+1"
    assert verify_dual_determinant(1, 2).params["epsilon"] == "+1"
    assert verify_dual_determinant(2, 2).params["epsilon"] == "+1"
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 3), (3, 4)]:
        assert verify_dual_determinant(n, m).status == VERIFIED


def test_factorial_schur_verifier():
    for shape, n in [((1,), 1), ((1,), 2), ((2, 1), 3)]:
        assert verify_factorial_schur(shape, n).status == VERIFIED


def test_newton_verifier():
    for n in (0, 2, 6):
        assert verify_newton(n).status == VERIFIED


# params that the checks measure, after the options
_EXTRA_PARAMS = {
    "vandermonde": ["systems"], "dual-cauchy": ["partitions"], "dual-determinant": ["epsilon"]
}


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_report_params_are_the_options_then_the_extras(capsys, name):
    identity = IDENTITIES[name]
    options = {k: (2, 1) if v is REQUIRED else v for k, v in identity.options.items()}
    report = identity.check(**options)
    assert report.status == VERIFIED
    assert list(report.params) == [*identity.options, *_EXTRA_PARAMS.get(name, [])]
    texts = {k: "[2,1]" if k == "shape" else str(v) for k, v in options.items()}
    assert {k: report.params[k] for k in identity.options} == texts
    # the text that `verify` prints
    shape = ["--shape", "[2,1]"] if "shape" in options else []
    assert cli.main(["verify", name, *shape, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["params"] == report.params


def test_mismatch_params_are_the_options_then_the_where_labels():
    report = verify_main_lemma(corrupt_weights=True)
    assert report.status == MISMATCH
    assert list(report.params.items()) == [
        ("m", "6"), ("n", "6"), ("side", "path-sum-vs-product"), ("sink", "(2,1)")
    ]


def test_mismatch_texts_restrict_to_differing_terms():
    lhs = Polynomial.zero()
    for i in range(1, 7):
        lhs = lhs + xpoly(1) ** i
    rhs = lhs + 5 * xpoly(2)  # single differing monomial
    lhs_text, rhs_text = _mismatch_texts(lhs, rhs)
    assert lhs_text == "0"
    assert rhs_text == "5*x2"
    # a wide difference is clipped to 50 monomials
    wide = Polynomial.zero()
    for i in range(1, 80):
        wide = wide + xpoly(1) ** i
    clipped, _ = _mismatch_texts(wide, Polynomial.zero())
    assert clipped.count("+") == 49
    assert clipped == " + ".join(f"x1^{i}" for i in range(79, 29, -1))


def test_report_json_shape():
    report = CheckReport(
        "newton", {"n_power": "2"}, VERIFIED, elapsed_ms=3
    )
    data = report.to_json_dict()
    assert list(data.keys()) == ["identity", "params", "status", "elapsed_ms"]
    mismatch = CheckReport("x", {}, MISMATCH, lhs_text="1", rhs_text="0", elapsed_ms=0)
    assert list(mismatch.to_json_dict().keys()) == [
        "identity",
        "params",
        "status",
        "lhs",
        "rhs",
        "elapsed_ms",
    ]


def test_suite_config_validation():
    config = SuiteConfig.from_dict({"max_n": 2, "only": ["newton"]})
    assert config.max_n == 2 and config.only == ["newton"]
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"max_n": -1})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"only": ["nosuch"]})
    # bools are ints to Python, but not sizes
    for data in ({"max_n": True}, {"dual_max": False}, {"max_n": True, "dual_max": False}):
        with pytest.raises(ValueError):
            SuiteConfig.from_dict(data)
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"only": "newton"})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"corrupt": "weights"})  # negative controls are not config keys
    with pytest.raises(ValueError):
        SuiteConfig(corrupt="wieghts")  # a mistyped control must not run the positive suite
    for corrupt in (None, "weights", "determinant"):
        assert SuiteConfig(corrupt=corrupt).corrupt == corrupt


def test_suite_small_run_is_deterministic():
    config = SuiteConfig(
        max_partition_size=2, max_n=2, cauchy_cap=2, dual_max=1, newton_max=2
    )
    reports = run_suite(config)
    assert all_verified(reports)
    names = [r.identity for r in reports]
    assert names == [r.identity for r in run_suite(config)]
    assert names[0] == "main-lemma"
    assert "vandermonde" in names and "dual-determinant" in names
    parsed = json.loads(reports_to_json(reports))
    assert all(entry["status"] == "VERIFIED" for entry in parsed)
    assert [(r.identity, r.params) for r in reports] == [
        ("main-lemma", {"m": "6", "n": "6"}),
        ("corollary", {"n": "4", "m": "5"}),
        ("vandermonde", {"n": "1", "systems": "1"}),
        ("vandermonde", {"n": "2", "systems": "1"}),
        ("vandermonde", {"n": "3", "systems": "1"}),
        ("vandermonde", {"n": "4", "systems": "1"}),
        ("vandermonde", {"n": "5", "systems": "1"}),
        ("jacobi-trudi", {"n": "1", "max_size": "2", "shapes": "3"}),
        ("jacobi-trudi", {"n": "2", "max_size": "2", "shapes": "4"}),
        ("bialternant", {"n": "1", "max_size": "2", "shapes": "3"}),
        ("bialternant", {"n": "2", "max_size": "2", "shapes": "4"}),
        ("cauchy", {"n": "1", "degree_cap": "2"}),
        ("cauchy", {"n": "2", "degree_cap": "2"}),
        ("dual-cauchy", {"n": "1", "m": "1", "partitions": "2"}),
        ("dual-determinant", {"n": "1", "m": "1", "epsilon": "-1"}),
        ("dual-determinant", {"n": "1", "m": "2", "epsilon": "+1"}),
        ("dual-determinant", {"n": "2", "m": "1", "epsilon": "+1"}),
        ("factorial-schur", {"n": "1", "max_size": "2", "shapes": "3"}),
        ("factorial-schur", {"n": "2", "max_size": "2", "shapes": "4"}),
        ("newton", {"n_max": "2"}),
    ]


def test_suite_only_filter_and_empty_grid(monkeypatch):
    config = SuiteConfig(only=["newton"], newton_max=2)
    reports = run_suite(config)
    assert [r.identity for r in reports] == ["newton"]
    # a selection of no identity would verify nothing and still pass
    with pytest.raises(ValueError, match="must name at least one identity"):
        SuiteConfig(only=[])
    # so would a selected identity whose grid is empty
    for config, names in [
        ({"max_n": 0, "only": ["jacobi-trudi"]}, "jacobi-trudi"),
        ({"max_n": 0, "only": ["jacobi-trudi", "newton", "bialternant"]},
         "jacobi-trudi, bialternant"),
        ({"dual_max": 0, "only": ["dual-cauchy"]}, "dual-cauchy"),
        ({"max_n": 0, "only": ["cauchy", "factorial-schur"]}, "cauchy, factorial-schur"),
    ]:
        with pytest.raises(ValueError, match=f"^the config gives no point to check for {names}$"):
            SuiteConfig.from_dict(config)
    # without `only`, the identities with a point still run
    assert [r.identity for r in run_suite(SuiteConfig(max_n=0, dual_max=0, newton_max=0))] == [
        "main-lemma", "corollary", *["vandermonde"] * 5, "dual-determinant", "newton"
    ]
    # and a run with no point at all is rejected too
    newton = IDENTITIES["newton"]._replace(grid=lambda c: [])
    monkeypatch.setattr(identities, "IDENTITIES", {"newton": newton})
    with pytest.raises(ValueError, match="^the config gives no point to check for newton$"):
        SuiteConfig()


def test_suite_turns_exceptions_into_error_reports():
    # n=1 needs degree 2 * 300 > 127; n=2 refuses its partition list
    reports = run_suite(SuiteConfig(only=["cauchy"], cauchy_cap=300))
    assert [r.status for r in reports] == [ERROR, ERROR]
    assert [r.params["n"] for r in reports] == ["1", "2"]
    assert all(r.params["degree_cap"] == "300" for r in reports)
    assert reports[0].params["error"].startswith("DegreeOverflow: ")
    assert reports[1].params["error"] == "TooLarge: the truncated partition list would explode"
    assert not all_verified(reports)
    data = json.loads(reports_to_json(reports))
    assert list(data[0]) == ["identity", "params", "status", "elapsed_ms"]


def test_suite_error_in_an_aggregated_row_carries_its_summary(monkeypatch):
    def broken(shape, n):
        raise RuntimeError("boom")

    # the table looks its verifier up when it runs, so the patch (like the
    # bench tracer's wrappers) sees every call
    monkeypatch.setattr(identities, "verify_bialternant", broken)
    reports = run_suite(SuiteConfig(max_partition_size=1, max_n=2, only=["bialternant"]))
    assert [(r.identity, r.status) for r in reports] == [("bialternant", ERROR)] * 2
    assert [r.params for r in reports] == [
        {"n": str(n), "max_size": "1", "shapes": "2", "error": "RuntimeError: boom"}
        for n in (1, 2)
    ]


@pytest.mark.parametrize(
    "name, verifier",
    [
        ("main-lemma", "verify_main_lemma"),
        ("corollary", "verify_corollary"),
        ("vandermonde", "verify_vandermonde"),
        ("cauchy", "verify_cauchy"),
        ("dual-cauchy", "verify_dual_cauchy"),
        ("dual-determinant", "verify_dual_determinant"),
    ],
)
def test_error_and_verified_reports_name_params_alike(monkeypatch, name, verifier):
    config = SuiteConfig(max_n=2, cauchy_cap=2, dual_max=2, only=[name])
    verified = run_suite(config)
    assert all_verified(verified)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(identities, verifier, broken)
    errors = run_suite(config)
    assert [r.status for r in errors] == [ERROR] * len(verified)
    for error, report in zip(errors, verified):
        assert error.params.pop("error") == "RuntimeError: boom"
        assert error.params.items() <= report.params.items()


def test_suite_negative_controls_produce_mismatch():
    weights = SuiteConfig(
        max_partition_size=2, max_n=2, cauchy_cap=0, dual_max=1, newton_max=0,
        only=["main-lemma"], corrupt="weights",
    )
    assert any(r.status == MISMATCH for r in run_suite(weights))
    determinant = SuiteConfig(
        max_partition_size=3, max_n=3, only=["jacobi-trudi"], corrupt="determinant",
    )
    assert any(r.status == MISMATCH for r in run_suite(determinant))


# -- faults in the shared ring -------------------------------------------------------
#
# Both sides of a symbolic comparison come out of the ring, so a ring fault can
# leave them equal and wrong; the integer anchors of `intcheck` must still see it.
# No function of the package memoises its results, so each patch takes effect at
# once.


def _group_report(identity: str, group: identities.Group) -> CheckReport:
    return identities._run_group(identities.IDENTITIES[identity], group)


def test_fold_of_x5_onto_x4_is_caught(monkeypatch):
    from schurpaths import combinat, ring
    from schurpaths.ring import Family

    field = ring._field

    def fold(family, index):
        return field(family, 4 if (family, index) == (Family.X, 5) else index)

    monkeypatch.setattr(ring, "_field", fold)
    assert str(combinat.schur_tableaux((1,), 5)) == "x1 + x2 + x3 + 2*x4"  # the fault is live
    # every route to s_lambda agrees on the folded polynomial; only the anchor sees it
    for shape in combinat.partitions_in_box(5, 3):
        if 0 < sum(shape) <= 3:
            report = verify_jacobi_trudi(shape, 5)
            assert report.status == MISMATCH, shape
            assert report.params["anchor"] == "schur"
            assert report.lhs_text != report.rhs_text
    # both sides of every vandermonde comparison are the folded ones, the product 0
    report = verify_vandermonde(5)
    assert report.status == MISMATCH and report.params["anchor"] == "power"
    for identity in ("jacobi-trudi", "bialternant", "factorial-schur"):
        report = _group_report(identity, identities._shape_row(5, 2))
        assert report.status in (MISMATCH, ERROR), identity
    assert verify_main_lemma().status == MISMATCH  # its sinks reach x5 too
    assert verify_jacobi_trudi((), 5).status == VERIFIED  # s_() = 1 does not see x5


@pytest.mark.parametrize("fault", ["drop", "double"])
def test_a_lost_or_doubled_word_in_x_word_sum_is_caught(monkeypatch, fault):
    # h_k sums words through x_word_sum; the tableau sum adds shifted strips
    # through x_shift_sums.  The same off-by-one goes into both.
    from schurpaths import combinat, ring, symfun

    def off_by_one(summands):
        # on sums of two or more, the last summand is lost or counted twice
        summands = list(summands)
        if len(summands) >= 2:
            summands = summands[:-1] if fault == "drop" else summands + summands[-1:]
        return summands

    word_sum, shift_sums = ring.x_word_sum, ring.x_shift_sums

    def faulty_word_sum(words):
        return word_sum(off_by_one(words))

    def faulty_shift_sums(moves, index):
        return shift_sums({target: off_by_one(s) for target, s in moves.items()}, index)

    for module in (ring, combinat, symfun):
        monkeypatch.setattr(module, "x_word_sum", faulty_word_sum)
    for module in (ring, combinat):
        monkeypatch.setattr(module, "x_shift_sums", faulty_shift_sums)
    config = SuiteConfig(max_partition_size=2, max_n=3, cauchy_cap=3, dual_max=2, newton_max=3)
    reports = run_suite(config)
    users = {"jacobi-trudi", "bialternant", "cauchy", "dual-cauchy", "factorial-schur", "newton"}
    assert {r.identity for r in reports if r.status != VERIFIED} == users
    assert all(r.status in (MISMATCH, ERROR) for r in reports if r.status != VERIFIED)
    # a row at n >= 2 sums at least two tableaux or monomials somewhere
    for r in reports:
        if r.identity in users and int(r.params.get("n", "2")) >= 2:
            assert r.status != VERIFIED, r


def test_negative_controls_end_mismatch_on_the_symbolic_comparison():
    # the anchors come after the comparisons they back, so a control still
    # reports the polynomials that differ, not an anchor
    reports = run_suite(SuiteConfig(only=["main-lemma"], corrupt="weights"))
    assert [r.status for r in reports] == [MISMATCH]
    assert reports[0].params == {
        "m": "6", "n": "6", "side": "path-sum-vs-product", "sink": "(2,1)"
    }
    assert (reports[0].lhs_text, reports[0].rhs_text) == ("x2", "-x2")
    reports = run_suite(SuiteConfig(max_n=3, only=["jacobi-trudi"], corrupt="determinant"))
    assert MISMATCH in {r.status for r in reports}
    assert all("anchor" not in r.params for r in reports)


def test_a_failing_anchor_reports_both_integers(monkeypatch):
    from schurpaths import intcheck

    h = intcheck.complete_homogeneous
    monkeypatch.setattr(intcheck, "complete_homogeneous", lambda k, n: h(k, n) + 1)
    report = verify_newton(3)
    assert report.status == MISMATCH
    assert report.params == {"power": "3", "anchor": "complete-homogeneous", "k": "1"}
    assert (report.lhs_text, report.rhs_text) == ("-27", "-26")  # x1^3 at x1 = -3


# -- the path matrix that each LGV verifier reads ------------------------------------


def test_each_lgv_verifier_reads_the_path_matrix(monkeypatch):
    # entry (0, 0) of every matrix with two or more sinks is off by x1: each
    # verifier must take its entries and determinants from lgv.path_matrix.
    # bialternant's one matrix starts with M_change, so its diagonal is off.
    from schurpaths import lgv, symfun

    build = lgv.path_matrix

    def faulty(scheme, sources, sinks):
        matrix = build(scheme, sources, sinks)
        if len(sinks) < 2:
            return matrix
        entries = (matrix.entries[0] + xpoly(1), *matrix.entries[1:])
        return symfun.PolyMatrix(matrix.n_rows, matrix.n_cols, entries)

    monkeypatch.setattr(lgv, "path_matrix", faulty)
    reports = [
        verify_main_lemma(3, 3),
        verify_corollary(3, 3),
        verify_vandermonde(3),
        verify_bialternant((2, 1), 3),
        verify_cauchy(2, 4),
    ]
    assert [r.status for r in reports] == [MISMATCH] * 5
    assert [r.params for r in reports] == [
        {"m": "3", "n": "3", "side": "path-sum-vs-product", "sink": "(1,1)"},
        {"n": "3", "m": "3", "side": "path-sum-vs-power", "t": "1", "sink": "(1,2)"},
        {"n": "3", "systems": "1", "side": "entry-vs-power", "entry": "(1,1)"},
        {"shape": "[2,1]", "n": "3", "step": "change-diagonal-vs-vandermonde", "entry": "(1,1)"},
        {"n": "2", "degree_cap": "4", "step": "entry-vs-geometric", "entry": "(1,1)"},
    ]

    # negating the first two rows of every matrix keeps each determinant, so
    # only bialternant's entry reads see it: its first diagonal entry is -1
    def negated(scheme, sources, sinks):
        matrix = build(scheme, sources, sinks)
        cut = 2 * matrix.n_cols if len(sources) >= 2 else 0
        entries = [-entry for entry in matrix.entries[:cut]] + list(matrix.entries[cut:])
        return symfun.PolyMatrix(matrix.n_rows, matrix.n_cols, entries)

    monkeypatch.setattr(lgv, "path_matrix", negated)
    report = verify_bialternant((2, 1), 3)
    assert report.status == MISMATCH
    diagonal = {"step": "change-diagonal-vs-vandermonde", "entry": "(1,1)"}
    assert report.params == {"shape": "[2,1]", "n": "3", **diagonal}

    # negating the last two columns keeps det M', M_change and M'' = M_change * M',
    # so only the power entries, which read M'' itself, see it
    def negated_columns(scheme, sources, sinks):
        matrix = build(scheme, sources, sinks)
        last = range(matrix.n_cols - 2, matrix.n_cols)
        entries = [-e if k % matrix.n_cols in last else e for k, e in enumerate(matrix.entries)]
        return symfun.PolyMatrix(matrix.n_rows, matrix.n_cols, entries)

    monkeypatch.setattr(lgv, "path_matrix", negated_columns)
    report = verify_bialternant((2, 1), 3)
    assert report.status == MISMATCH
    assert report.params == {"shape": "[2,1]", "n": "3", "step": "power-entry", "entry": "(1,1)"}


@pytest.mark.parametrize(
    "entry, step",
    [
        ((0, 1), {"step": "change-matrix-triangular", "entry": "(1,2)"}),  # above the diagonal
        # on the diagonal of M_change
        ((1, 1), {"step": "change-diagonal-vs-vandermonde", "entry": "(2,2)"}),
        ((1, 4), {"step": "paths-through-primed", "entry": "(2,2)"}),  # in M'' alone
    ],
)
def test_bialternant_reads_the_reduction_off_the_change_matrix(monkeypatch, entry, step):
    # one entry of the swept matrix off by x1 is caught by the step that reads it
    from schurpaths import lgv

    build = lgv.path_matrix

    def faulty(scheme, sources, sinks):
        matrix = build(scheme, sources, sinks)
        entries = list(matrix.entries)
        entries[entry[0] * matrix.n_cols + entry[1]] += xpoly(1)
        return symfun.PolyMatrix(matrix.n_rows, matrix.n_cols, entries)

    monkeypatch.setattr(lgv, "path_matrix", faulty)
    report = verify_bialternant((2, 1), 3)
    assert (report.status, report.params) == (MISMATCH, {"shape": "[2,1]", "n": "3", **step})


def test_bialternant_weighs_each_edge_of_its_scheme_once(monkeypatch):
    # M', M_change and M'' are blocks of one path matrix, so one weight memo
    # serves them.  The one determinant is that of M': each diagonal entry of
    # M_change is read as its row's factors of the Vandermonde, which is never
    # expanded, M'' = M_change * M' entry by entry, and M'' as the alternant's
    # powers, which is never expanded either.  The Vandermonde check takes one
    # determinant, of the powers: its path matrix is read entry by entry
    from schurpaths import lgv

    weigh, det, calls, orders = lgv._horizontal_weight, symfun.det, [], []
    vandermonde, expanded = symfun.vandermonde, []

    def counted(*args):
        calls.append(args)
        return weigh(*args)

    def counted_det(matrix, **cap):
        orders.append(matrix.n_rows)
        return det(matrix, **cap)

    def counted_vandermonde(n):
        expanded.append(n)
        return vandermonde(n)

    monkeypatch.setattr(lgv, "_horizontal_weight", counted)
    monkeypatch.setattr(symfun, "det", counted_det)
    monkeypatch.setattr(symfun, "vandermonde", counted_vandermonde)
    for shape, n in [((2, 1), 3), ((3, 1, 1), 4), ((), 2)]:
        calls.clear()
        orders.clear()
        assert verify_bialternant(shape, n).status == VERIFIED
        assert len(calls) == len(set(calls)) > 0
        assert (orders, expanded) == ([n], [])
        orders.clear()
        assert verify_vandermonde(n).status == VERIFIED
        assert (orders, expanded) == ([n], [n])
        expanded.clear()


def test_bialternant_builds_no_alternant(monkeypatch):
    monkeypatch.setattr(symfun, "alternant", _build)
    for shape, n in [((), 1), ((2, 1), 3), ((3, 1, 1), 4), ((2, 2, 1), 5)]:
        assert verify_bialternant(shape, n).status == VERIFIED


def test_bialternant_work_counts_the_terms_of_the_matrices_it_multiplies():
    # M_change's entry (i, k), k <= i, has 2^k terms and M' entry (k, j) C(end_j, k),
    # end_j = padded[n-1-j] + j
    for shape, n in [((), 3), ((3, 1), 4), ((5, 2, 2), 5), ((2, 2, 1, 1), 6)]:
        padded = shape + (0,) * (n - len(shape))
        scheme = lgv.schur_weighted_scheme(n=n, col_bound=padded[0] + n, truncated=True)
        double_primed, primed, sinks = lgv.bialternant_endpoints(shape, n)
        swept = lgv.path_matrix(scheme, double_primed + primed, primed + sinks)
        for k in range(n):
            for i in range(n):
                assert len(swept.entry(i, k)) == (2**k if k <= i else 0)
            for j in range(n):
                assert len(swept.entry(n + k, n + j)) == comb(padded[n - 1 - j] + j, k)


def test_bialternant_refuses_past_n_13_before_building(monkeypatch):
    # (1) at n = 13 spends 8.6 million units of ring work in 2.5 s, and every M_change
    # entry doubles with n; past n = 13 the check is refused on n alone
    for name in ("schur_weighted_scheme", "path_matrix", "schur_via_lgv"):
        monkeypatch.setattr(lgv, name, _build)
    monkeypatch.setattr(combinat, "schur_tableaux", _build)
    for shape, n in [((5, 4, 3, 2, 1), 8), ((5, 4, 3, 2, 1), 9), ((26,), 8), ((1,), 13)]:
        with pytest.raises(Built):
            verify_bialternant(shape, n)
    for n in (14, 10**9):
        with pytest.raises(TooLarge, match=f"^bialternant at n={n} > 13 multiplies "):
            verify_bialternant((1,), n)


def test_a_shape_past_the_ring_degree_is_refused_before_building(monkeypatch):
    # the strip walk would first list every state of a huge row
    for name in ("schur_tableaux", "factorial_schur_tableaux"):
        monkeypatch.setattr(combinat, name, _build)
    for verify in (verify_jacobi_trudi, verify_bialternant, verify_factorial_schur):
        with pytest.raises(Built):
            verify((127,), 2)
        for shape in [(128,), (64, 64), (10**12,)]:
            with pytest.raises(ring.DegreeOverflow, match=f"^total degree {sum(shape)} exceeds"):
                verify(shape, 2)


def _tight(monkeypatch, name: str, budget: int) -> identities.Identity:
    """The identity `name` with its work budget cut to `budget` units, installed in the table."""
    tight = IDENTITIES[name]._replace(budget=budget)
    monkeypatch.setitem(IDENTITIES, name, tight)
    return tight


def test_a_check_past_its_budget_is_refused_by_name_and_options(monkeypatch):
    # each real budget is measured behind its identity's row; here each is cut so
    # that a small input runs into it
    for name, options in [
        ("factorial-schur", {"shape": (20,), "n": 1}),
        ("cauchy", {"n": 3, "degree_cap": 26}),
        ("jacobi-trudi", {"shape": (5, 4, 3, 2, 1), "n": 9}),
        ("bialternant", {"shape": (5, 4, 3, 2, 1), "n": 9}),
        ("dual-cauchy", {"n": 5, "m": 5}),
    ]:
        check = _tight(monkeypatch, name, 5000).check
        what = " ".join(f"{k}={v}" for k, v in identities._params(**options).items())
        message = rf"^{re.escape(name)} \[{re.escape(what)}\] spent \d+ units of ring work,"
        with pytest.raises(TooLarge, match=message + " past its budget of 5000$"):
            check(**options)


def test_a_check_spends_the_same_units_each_run():
    for name, options in [
        ("jacobi-trudi", {"shape": (3, 1), "n": 3}),
        ("bialternant", {"shape": (2, 2, 1), "n": 4}),
        ("factorial-schur", {"shape": (2, 1), "n": 3}),
        ("newton", {"power": 5}),
        ("cauchy", {}),
    ]:
        spent = []
        for _ in range(2):
            start = ring._spent
            assert IDENTITIES[name].check(**options).status == VERIFIED
            spent.append(ring._spent - start)
        assert spent[0] == spent[1] > 0, name


def test_a_refused_check_leaves_the_next_check_its_whole_budget(monkeypatch):
    # the suite and the benchmark run many checks in one process
    # jacobi-trudi's checks of size <= 3 spend at most 30 units at n = 2 and 76 at n = 3
    _tight(monkeypatch, "jacobi-trudi", 50)
    config = SuiteConfig(max_partition_size=3, max_n=3, only=["jacobi-trudi", "bialternant"])
    reports = run_suite(config)
    assert [r.status for r in reports] == [VERIFIED, VERIFIED, ERROR] + [VERIFIED] * 3
    assert reports[2].params["error"] == (
        "TooLarge: jacobi-trudi [shape=[3] n=3] spent 57 units of ring work,"
        " past its budget of 50"
    )


def test_the_suite_at_max_n_5_verifies_under_the_real_budgets():
    assert all_verified(run_suite(SuiteConfig(max_n=5)))


# -- the fault table -------------------------------------------------------------------
#
# One row per injected fault: a patch, a canary that shows the fault is live,
# and the identities that must not end VERIFIED on a small suite.  A fault that
# no check catches is a finding to mend, never a row that expects a pass.


def _det_sign_slip(monkeypatch):
    det = symfun.det
    monkeypatch.setattr(
        symfun, "det", lambda m, **cap: -det(m, **cap) if m.n_rows >= 3 else det(m, **cap)
    )


def _falling_power_off_by_one(monkeypatch):
    def shifted(v, k):  # (v - a_2)...(v - a_(k+1))
        product = Polynomial.one()
        for index in range(2, k + 2):
            product = product * (Polynomial.variable(v) - apoly(index))
        return product

    monkeypatch.setattr(symfun, "falling_power", shifted)


def _exit_floors_one_too_high(monkeypatch):
    floors = lgv._exit_floors

    def raised(joins, ends):
        return {row: [col + 1 for col in cols] for row, cols in floors(joins, ends).items()}

    monkeypatch.setattr(lgv, "_exit_floors", raised)


def _weight_memo_keyed_by_column(monkeypatch):
    def by_column(weight):  # the memo of a sweep forgets the row
        memo = {}

        def cached(row, col):
            if col not in memo:
                memo[col] = weight(row, col)
            return memo[col]

        return cached

    monkeypatch.setattr(lgv, "cache", by_column)


def _cauchy_window_one_column_short(monkeypatch):  # the paths that turn last are lost
    scheme = lgv.cauchy_doubled_scheme
    monkeypatch.setattr(lgv, "cauchy_doubled_scheme", lambda n, col_bound: scheme(n, col_bound - 1))


def _linear_div_swapped(monkeypatch):
    divide = ring._linear_div
    monkeypatch.setattr(ring, "_linear_div", lambda p, u, v: divide(p, v, u))


def _one_term_product_drops_its_coefficient(monkeypatch):  # it multiplies as its monomial
    dropped = mutant(
        ring.add_mul, "scale * c for k, c in q._terms.items()}", "c for k, c in q._terms.items()}"
    )
    for module in (ring, lgv, symfun):
        monkeypatch.setattr(module, "add_mul", dropped)


def _h_table_reads_the_row_below(monkeypatch):  # x_m * T_(m-1)(a - 1) for x_m * T_m(a - 1)
    below = mutant(symfun.jacobi_trudi, "x_m, row[a - 1])", "x_m, last[a - 1])")
    monkeypatch.setattr(symfun, "jacobi_trudi", below)


def _term_power_leaves_its_coefficient(monkeypatch):
    power = Polynomial.__pow__

    def unpowered(p, exponent):
        result = power(p, exponent)
        if len(p) != 1:
            return result
        ((_, coefficient),), ((monomial, _),) = p.items(), result.items()
        return Polynomial.term(monomial, coefficient)

    monkeypatch.setattr(Polynomial, "__pow__", unpowered)


def _add_mul_loses_its_accumulator(monkeypatch):
    kernel = ring.add_mul

    def product_only(acc, p, q, degree_cap=None):
        return kernel(Polynomial.zero(), p, q, degree_cap)

    for module in (ring, lgv, symfun):
        monkeypatch.setattr(module, "add_mul", product_only)


def _path_sweep_loses_a_summand(monkeypatch):
    sweep = lgv._path_sums

    def lossy(scheme, sources, sinks, one, step):
        def forgetful(acc, value, row, col):  # what reached the edge's end before is lost
            return step(None, value, row, col)

        return sweep(scheme, sources, sinks, one, forgetful)

    monkeypatch.setattr(lgv, "_path_sums", lossy)


def _difference_merges_as_a_sum(monkeypatch):
    merged = Polynomial._merged
    monkeypatch.setattr(Polynomial, "_merged", lambda p, q, sign: merged(p, q, 1))


def _linear_div_drops_c0(monkeypatch):  # a group's sum c_s + ... + c_1 is checked, not c_0
    dropped = mutant(ring._linear_div, "        running += column.get(0, 0)\n", "")
    monkeypatch.setattr(ring, "_linear_div", dropped)


def _strip_sum_without_the_cap(monkeypatch):  # nu_i may pass mu_(i-1): no longer a strip
    uncapped = mutant(combinat._strip_sums, "min(top, above)", "top")
    monkeypatch.setattr(combinat, "_strip_sums", uncapped)


def _strip_sum_exponent_off_at_letter_2(monkeypatch):  # a strip size only the plain sum reads
    shifted = mutant(
        combinat._strip_sums, "abs(sum(nu) - size)", "abs(sum(nu) - size) + (letter == 2)"
    )
    monkeypatch.setattr(combinat, "_strip_sums", shifted)


def _strip_walk_keeps_one_strip_per_subshape(monkeypatch):  # the first mu to reach nu alone
    forgetful = mutant(
        combinat._strip_sums,
        "moves.setdefault(nu, []).append((value, abs(sum(nu) - size)))",
        "moves.setdefault(nu, [(value, abs(sum(nu) - size))])",
    )
    monkeypatch.setattr(combinat, "_strip_sums", forgetful)


def _strip_join_drops_a_state(monkeypatch):  # the first state where the halves meet is lost
    dropped = mutant(
        combinat._strip_sums, "for mu, terms in low.items()", "for mu, terms in list(low.items())[1:]"
    )
    monkeypatch.setattr(combinat, "_strip_sums", dropped)


def _peel_floor_one_row_off(monkeypatch):  # the letters k..n held to n - k cells of a column
    raised = mutant(combinat._strip_sums, "shape[n - held :]", "shape[n - held - down :]")
    monkeypatch.setattr(combinat, "_strip_sums", raised)


def _the_join_misses_a_state():
    # the peeled letter 3 of (1,) at n = 3 keeps no cell below the raised floor,
    # so the states () and (1) of the lower half have no upper half to join
    try:
        combinat.schur_tableaux((1,), 3)
    except KeyError:
        return True
    return False


def _factorial_segment_a_index_plus_one(monkeypatch):  # x_v - a_(v + j - i + 1)
    shifted = mutant(combinat.factorial_schur_tableaux, "v + high - i", "v + high - i + 1")
    monkeypatch.setattr(combinat, "factorial_schur_tableaux", shifted)


def _strip_sum_unit_read_once(monkeypatch):
    # every strip sum starts at the letter 1, whose unit then serves every later letter
    shift_sums = ring.x_shift_sums
    monkeypatch.setattr(combinat, "x_shift_sums", lambda moves, index: shift_sums(moves, 1))


def _schur_weights_as_jacobi_trudi(monkeypatch):  # x_j - x_(i+j) read as x_j
    weights_as = mutant(
        lgv._horizontal_weight,
        "if scheme.kind == SchemeKind.JACOBI_TRUDI:",
        "if scheme.kind != SchemeKind.CAUCHY_DOUBLED:",
    )
    monkeypatch.setattr(lgv, "_horizontal_weight", weights_as)


def _quotient_sort_sign_forced_plus(monkeypatch):  # every a_sort(beta + delta) enters as +1
    forced = mutant(symfun.alternant_quotient, "(c if ascents & 1 else negated)", "negated")
    monkeypatch.setattr(symfun, "alternant_quotient", forced)


def _quotient_nu_read_off_gamma(monkeypatch):  # nu = gamma, delta not subtracted
    unshifted = mutant(symfun.alternant_quotient, "tuple(map(sub, gamma, delta))", "gamma")
    monkeypatch.setattr(symfun, "alternant_quotient", unshifted)


def _quotient_runs_past_the_packed_degree():
    # at n = 1, delta = (0) and nu = gamma holds; from n = 2 on, each step adds
    # a vector above the one it removes, until a quotient term passes degree 127
    with pytest.raises(ring.DegreeOverflow):
        symfun.bialternant((1,), 2)
    return symfun.bialternant((1,), 1) == xpoly(1)


def _square_path_sum():
    return lgv.e_weight(lgv.jacobi_trudi_scheme(n=2, col_bound=2), (1, 1), (2, 2))


# every identity that reads the tableau sum
_STRIP_SUM_USERS = {"bialternant", "cauchy", "dual-cauchy", "factorial-schur", "jacobi-trudi"}

_FAULTS = {
    "det-sign-slip-from-order-3": (
        _det_sign_slip,
        lambda: symfun.alternant((), 3) == -symfun.vandermonde(3)
        and symfun.alternant((), 2) == symfun.vandermonde(2),
        # the factorial quotient takes its maximal minors without calling det
        {"bialternant", "dual-determinant", "jacobi-trudi", "vandermonde"},
    ),
    "falling-power-a-index-plus-one": (
        _falling_power_off_by_one,
        lambda: str(symfun.falling_power(xvar(1), 1)) == "x1 - a2",
        {"factorial-schur"},
    ),
    "exit-floors-one-column-too-high": (
        _exit_floors_one_too_high,
        lambda: lgv.nonintersecting_count(
            lgv.vandermonde_scheme(2), *lgv.vandermonde_endpoints(2)
        ) == 0,
        {"bialternant", "jacobi-trudi", "vandermonde"},
    ),
    "weight-memo-keyed-by-column-only": (
        _weight_memo_keyed_by_column,
        lambda: lgv.e_weight(lgv.jacobi_trudi_scheme(n=2, col_bound=2), (1, 1), (2, 2))
        == 2 * xpoly(1),
        {"bialternant", "cauchy", "corollary", "jacobi-trudi", "main-lemma", "vandermonde"},
    ),
    "cauchy-window-one-column-short": (
        _cauchy_window_one_column_short,
        lambda: lgv.e_weight(lgv.cauchy_doubled_scheme(1, 2), (1, 1), (1, 2)) == Polynomial.one(),
        {"cauchy"},
    ),
    "linear-div-u-and-v-swapped": (
        _linear_div_swapped,
        lambda: ring.exact_div(xpoly(1) ** 2 - xpoly(2) ** 2, xpoly(1) - xpoly(2))
        == -xpoly(1) - xpoly(2),
        {"newton"},  # the only synthetic divisions left are the divided differences
    ),
    "one-term-product-drops-its-coefficient": (
        _one_term_product_drops_its_coefficient,
        lambda: (-xpoly(1)) * (xpoly(2) + xpoly(3)) == xpoly(1) * xpoly(2) + xpoly(1) * xpoly(3),
        # a minor of the factorial coefficient matrix starts from an entry such as -a1, and
        # one of the flagged Jacobi-Trudi matrix at r = n from -x1^k, its last column's h_k(x1)
        {"bialternant", "dual-determinant", "factorial-schur", "jacobi-trudi", "vandermonde"},
    ),
    "h-table-reads-the-row-below": (
        _h_table_reads_the_row_below,
        lambda: symfun.jacobi_trudi((2,), 2) == xpoly(1) * xpoly(2),
        {"jacobi-trudi"},
    ),
    "term-power-leaves-its-coefficient": (
        _term_power_leaves_its_coefficient,
        lambda: (-xpoly(1)) ** 2 == -xpoly(1) ** 2,
        {"dual-determinant"},
    ),
    "add-mul-loses-its-accumulator": (
        _add_mul_loses_its_accumulator,
        lambda: _square_path_sum() == xpoly(2),
        {
            "bialternant", "cauchy", "corollary", "dual-determinant", "factorial-schur",
            "jacobi-trudi", "main-lemma", "newton", "vandermonde",
        },
    ),
    "schur-weights-read-as-jacobi-trudi": (
        _schur_weights_as_jacobi_trudi,
        lambda: lgv._horizontal_weight(lgv.schur_weighted_scheme(2, 2), 1, 1) == xpoly(1),
        {"bialternant", "corollary", "main-lemma", "vandermonde"},
    ),
    "path-sweep-loses-a-summand": (
        _path_sweep_loses_a_summand,
        lambda: _square_path_sum() == xpoly(2),
        {"bialternant", "cauchy", "corollary", "main-lemma", "vandermonde"},
    ),
    "difference-merges-as-a-sum": (
        _difference_merges_as_a_sum,
        lambda: xpoly(1) - xpoly(2) == xpoly(1) + xpoly(2),
        {
            "bialternant", "cauchy", "corollary", "dual-determinant", "factorial-schur",
            "main-lemma", "newton", "vandermonde",
        },
    ),
    "linear-div-drops-c0-from-its-remainder-check": (
        _linear_div_drops_c0,
        lambda: ring.exact_div(xpoly(2), xpoly(1) - xpoly(2)) == 0,
        {"newton"},
    ),
    "quotient-sort-sign-forced-to-plus": (
        _quotient_sort_sign_forced_plus,
        lambda: str(symfun.bialternant((2,), 2)) == "x1^2 - x1*x2 + x2^2",
        {"bialternant", "factorial-schur"},
    ),
    "quotient-nu-read-off-gamma": (
        _quotient_nu_read_off_gamma,
        _quotient_runs_past_the_packed_degree,
        {"bialternant", "factorial-schur"},
    ),
    "strip-sum-drops-the-strip-cap": (
        _strip_sum_without_the_cap,
        lambda: combinat.schur_tableaux((1, 1), 2) == xpoly(1) ** 2 + xpoly(1) * xpoly(2),
        _STRIP_SUM_USERS,
    ),
    "strip-walk-keeps-one-strip-per-subshape": (
        _strip_walk_keeps_one_strip_per_subshape,
        # 4 of 8 tableaux: at n = 3 the walk meets at the letter 2
        lambda: str(combinat.schur_tableaux((2, 1), 3))
        == "x1*x2^2 + x1*x2*x3 + x2^2*x3 + x2*x3^2",
        _STRIP_SUM_USERS,
    ),
    "strip-sum-exponent-one-too-high-at-letter-2": (
        _strip_sum_exponent_off_at_letter_2,
        lambda: str(combinat.schur_tableaux((1,), 2)) == "x1*x2 + x2^2",
        _STRIP_SUM_USERS,
    ),
    # the halves meet from n = 3 on, and the suite runs cauchy and dual-cauchy at n <= 2
    "strip-join-drops-a-state": (
        _strip_join_drops_a_state,
        lambda: str(combinat.schur_tableaux((1,), 3)) == "x1 + x2",
        {"bialternant", "factorial-schur", "jacobi-trudi"},
    ),
    "peel-floor-one-row-off": (
        _peel_floor_one_row_off,
        _the_join_misses_a_state,
        {"bialternant", "factorial-schur", "jacobi-trudi"},
    ),
    "factorial-segment-a-index-plus-one": (
        _factorial_segment_a_index_plus_one,
        lambda: str(combinat.factorial_schur_tableaux((1,), 1)) == "x1 - a2",
        {"factorial-schur"},
    ),
    "strip-sum-reads-the-unit-of-letter-1-only": (
        _strip_sum_unit_read_once,
        lambda: combinat.schur_tableaux((1,), 2) == 2 * xpoly(1),
        _STRIP_SUM_USERS,
    ),
    "strip-sum-zero-from-size-3": (
        _strip_sum_zero_from_size_3,
        lambda: combinat.schur_tableaux((2, 1), 2) == 0 and combinat.schur_tableaux((2,), 1) != 0,
        _STRIP_SUM_USERS,
    ),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_an_injected_fault_is_caught(monkeypatch, fault):
    install, canary, caught = _FAULTS[fault]
    install(monkeypatch)
    assert canary()  # the fault is live
    config = SuiteConfig(max_n=3, max_partition_size=4, dual_max=2, newton_max=3)
    failed = [r for r in run_suite(config) if r.status != VERIFIED]
    assert {r.identity for r in failed} == caught
    assert all(r.status in (MISMATCH, ERROR) for r in failed)
    for r in failed:  # a MISMATCH names the check that failed
        assert r.status == ERROR or r.params.keys() & {"step", "side", "anchor"}, r


def test_a_fault_in_the_shared_strip_walk_fails_the_factorial_quotient_side(monkeypatch):
    # both tableau sums walk the same lost strips, so they agree at a = 0; only the
    # quotient and the Jacobi-Trudi determinant, which list no tableau, see the fault
    _strip_walk_keeps_one_strip_per_subshape(monkeypatch)
    only = ["factorial-schur", "jacobi-trudi"]
    reports = run_suite(SuiteConfig(max_n=3, max_partition_size=4, only=only))
    failed = [r for r in reports if r.status != VERIFIED]
    assert {r.identity for r in failed} == set(only)
    assert all(r.status == MISMATCH for r in failed)
    sides = {r.params["side"] for r in failed if r.identity == "factorial-schur"}
    assert sides == {"tableaux-vs-quotient"}
    # without its strip cap the walk puts a letter v below row v, whose a-index the ring refuses
    _strip_sum_without_the_cap(monkeypatch)
    reports = run_suite(SuiteConfig(max_n=3, max_partition_size=4, only=["factorial-schur"]))
    errors = {r.params["error"] for r in reports if r.status != VERIFIED}
    assert errors == {"ValueError: A indices start at 1, got 0"}


def test_a_fault_below_the_primed_points_is_caught_on_the_change_diagonal(monkeypatch):
    # x_(i+j) survives the truncation only where i + j <= n, which paths from a'
    # never reach: M' still agrees with the tableau sum, and the diagonal of
    # M_change is no longer the Vandermonde
    _schur_weights_as_jacobi_trudi(monkeypatch)
    for shape, n in [((), 2), ((2, 1), 3), ((3, 1), 4)]:
        report = verify_bialternant(shape, n)
        assert report.status == MISMATCH
        assert report.params["step"] == "change-diagonal-vs-vandermonde"
