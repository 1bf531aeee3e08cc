import json
import pstats
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from schurpaths import cli, combinat, identities, lgv, symfun
from schurpaths.cli import build_parser, main
from schurpaths.identities import IDENTITIES, REQUIRED, SuiteConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _build(*args, **kwargs):
    raise AssertionError("the refusal must come before anything is built")


# -- schur ------------------------------------------------------------------------


def test_schur_tableaux_route(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "[1]", "--n", "2")
    assert code == 0
    assert out == "x1 + x2\n"


def test_schur_methods_agree(capsys):
    outputs = set()
    for method in ("tableaux", "jacobitrudi", "bialternant", "lgv"):
        code, out, _ = run_cli(
            capsys, "schur", "--shape", "[2,1]", "--n", "3", "--method", method
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_schur_too_many_rows_is_zero(capsys):
    for method in ("tableaux", "jacobitrudi", "bialternant", "lgv"):
        code, out, _ = run_cli(
            capsys, "schur", "--shape", "[1,1,1]", "--n", "2", "--method", method
        )
        assert code == 0
        assert out == "0\n"


def test_shape_with_too_many_rows_is_refused_with_one_message(capsys):
    message = "shape (1, 1, 1) has more than 2 rows"
    for site in (
        symfun.jacobi_trudi,
        symfun.alternant,
        symfun.bialternant,
        symfun.factorial_schur_quotient,
        lgv.schur_endpoints,
        lgv.bialternant_endpoints,
        identities.verify_bialternant,
        identities.verify_factorial_schur,
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            site((1, 1, 1), 2)
    code, out, err = run_cli(capsys, "paths", "--preset", "schur", "--shape", "[1,1,1]", "--n", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # `schur` still prints 0 there by every method: test_schur_too_many_rows_is_zero


def test_schur_json(capsys):
    code, out, _ = run_cli(capsys, "schur", "--shape", "[1]", "--n", "2", "--json")
    assert code == 0
    assert out == '{"schur": "x1 + x2"}\n'


def test_schur_bad_shape_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "schur", "--shape", "2,1", "--n", "2")
    assert code == 2
    assert "error" in err


# -- verify -----------------------------------------------------------------------


def test_verify_vandermonde_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde", "--n", "3")
    assert code == 0
    assert out == "vandermonde [n=3 systems=1]: VERIFIED\n"


def test_verify_cauchy_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "cauchy", "--n", "2", "--degree-cap", "4")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_unknown_identity_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_verify_missing_shape_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "jacobi-trudi", "--n", "3")
    assert code == 2
    assert "--shape" in err


def test_verify_rejects_sizes_below_one_naming_the_option(capsys):
    for argv, message in [
        (["main-lemma", "--m", "0"], "main-lemma check needs m >= 1 and n >= 1"),
        (["jacobi-trudi", "--shape", "[]", "--n", "0"], "jacobi-trudi check needs n >= 1"),
        (["bialternant", "--shape", "[]", "--n", "0"], "bialternant check needs n >= 1"),
        (["bialternant", "--shape", "[]", "--n", "-1"], "bialternant check needs n >= 1"),
        (["factorial-schur", "--shape", "[]", "--n", "0"], "factorial-schur check needs n >= 1"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_verify_refuses_options_the_identity_does_not_take(capsys):
    code, out, err = run_cli(capsys, "verify", "newton", "--n", "3", "--shape", "[9,9]")
    assert code == 2
    assert out == ""
    assert "verify newton does not take --n, --shape" in err
    code, out, err = run_cli(capsys, "verify", "vandermonde", "--degree-cap", "4")
    assert code == 2
    assert out == ""
    assert "verify vandermonde does not take --degree-cap" in err


def test_verify_flags_come_from_the_identity_table(monkeypatch, capsys):
    def with_rows(power: int = 8, rows: int = 1) -> identities.CheckReport:
        params = {"power": str(power), "rows": str(rows)}
        return identities.CheckReport("newton", params, identities.VERIFIED)

    monkeypatch.setattr(identities, "verify_newton", with_rows)  # Identity.check looks it up
    newton = IDENTITIES["newton"]
    rows = newton._replace(options={**newton.options, "rows": 1})
    monkeypatch.setitem(IDENTITIES, "newton", rows)
    assert build_parser().parse_args(["verify", "newton", "--rows", "5"]).rows == 5
    assert run_cli(capsys, "verify", "newton", "--rows", "5") == (
        0, "newton [power=8 rows=5]: VERIFIED\n", ""
    )
    code, out, err = run_cli(capsys, "verify", "newton", "--n", "3")
    assert (code, out) == (2, "") and "--n" in err
    args = build_parser().parse_args(["verify", "jacobi-trudi", "--shape", "[2,1]", "--n", "3"])
    assert (args.shape, args.n) == ("[2,1]", 3)


def test_verify_json_golden(capsys):
    code, out, _ = run_cli(capsys, "verify", "newton", "--power", "2", "--json")
    assert code == 0
    normalized = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert normalized == (
        "{\n"
        '  "identity": "newton",\n'
        '  "params": {\n'
        '    "power": "2"\n'
        "  },\n"
        '  "status": "VERIFIED",\n'
        '  "elapsed_ms": 0\n'
        "}\n"
    )


def test_suite_json_golden(capsys):
    # every report of the default suite, byte for byte apart from its timing;
    # the golden predates the integer anchors, which must change no VERIFIED output
    code, out, _ = run_cli(capsys, "suite")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "suite_default.json"
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == golden.read_text()


def test_verify_main_lemma_refuses_an_oversized_grid(monkeypatch, capsys):
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(lgv, "lemma_product", _build)
    for m in ("130", "20000"):  # the message names 2^(m-1) without computing it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "main-lemma", "--m", m, "--n", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        terms = f"2^{int(m) - 1}"
        assert err == f"refused: main-lemma at m={m} > 18 needs closed forms of {terms} terms\n"


def test_verify_main_lemma_and_corollary_refuse_past_their_work_bound_at_once(
    monkeypatch, capsys
):
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(lgv, "schur_weighted_scheme", _build)
    lemma = "n*m closed forms of up to 2^2 terms in n + m variables"
    corollary = "path sums into n(n-1)m/2 closed forms in n variables"
    for argv, what, builds in [
        (["main-lemma", "--m", "3", "--n", "100000"], "main-lemma at m=3, n=100000", lemma),
        (["main-lemma", "--m", "3", "--n", "3000"], "main-lemma at m=3, n=3000", lemma),
        (["corollary", "--n", "300", "--m", "3"], "corollary at n=300, m=3", corollary),
        (["corollary", "--n", "4", "--m", "10000000"], "corollary at n=4, m=10000000", corollary),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"refused: {what} builds {builds}, past its work bound of 1000000000\n"


def test_verify_vandermonde_refuses_n_past_9_at_once(monkeypatch, capsys):
    monkeypatch.setattr(symfun, "vandermonde", _build)
    monkeypatch.setattr(lgv, "path_matrix", _build)
    for n in ("9", "3000"):  # 3000! has more digits than str() of an int may print
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "vandermonde", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"refused: vandermonde at n={n} > 8 expands n! >= 362880 terms\n"


def test_verify_cauchy_at_n_5_is_quick(monkeypatch, capsys):
    # n(n-1)/2 = 10 > cap 4: both truncated sides would be 0, so the cap is refused unbuilt
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(symfun, "vandermonde", _build)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "cauchy", "--n", "5", "--degree-cap", "4")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: cauchy at n=5 needs degree_cap >= n(n-1)/2 = 10;"
        " at degree_cap=4 both truncated sides are 0\n"
    )


def test_verify_newton_refuses_past_power_16_at_once(monkeypatch, capsys):
    for name in ("divided_differences", "newton_form", "newton_expand", "complete_homogeneous"):
        monkeypatch.setattr(symfun, name, _build)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "newton", "--power", "17")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "refused: newton at power=17 > 16 forms 3^17 term products\n"


def test_verify_cauchy_refuses_past_its_measured_bounds_at_once(monkeypatch, capsys):
    monkeypatch.setattr(lgv, "path_matrix", _build)
    monkeypatch.setattr(symfun, "vandermonde", _build)
    for n, cap in [("5", "10"), ("5", "15"), ("4", "17")]:  # the largest caps at n = 5 and 4
        with pytest.raises(AssertionError, match="the refusal must come before"):
            main(["verify", "cauchy", "--n", n, "--degree-cap", cap])
    below = (
        "error: cauchy at n={} needs degree_cap >= n(n-1)/2 = {};"
        " at degree_cap={} both truncated sides are 0"
    )
    for n, cap, expected, message in [
        (12, 12, 2, below.format(12, 66, 12)),
        (10, 1, 2, below.format(10, 45, 1)),
        (8, 4, 2, below.format(8, 28, 4)),
        (6, 6, 2, below.format(6, 15, 6)),
        (5, 16, 1, "refused: the truncated partition list would explode"),
        (1000000, 500000000000, 1, "refused: the truncated partition list would explode"),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "cauchy", "--n", str(n), "--degree-cap", str(cap)
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (expected, "", message + "\n")


def test_verify_cauchy_runs_at_n_5(capsys):
    code, out, err = run_cli(capsys, "verify", "cauchy", "--n", "5", "--degree-cap", "10")
    assert (code, out, err) == (0, "cauchy [n=5 degree_cap=10]: VERIFIED\n", "")


def test_verify_dual_cauchy_refuses_past_its_product_bound_at_once(monkeypatch, capsys):
    monkeypatch.setattr(identities, "xpoly", _build)
    for n, m in [("1", "21"), ("40", "40")]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "dual-cauchy", "--n", n, "--m", m)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"refused: dual-cauchy at n={n}, m={m} expands prod(1 + x_i*y_j) of at least"
            " 2^max(n, m) terms, past max(n, m) = 20\n"
        )


def test_verify_dual_determinant_refuses_n_plus_m_past_8_at_once(monkeypatch, capsys):
    monkeypatch.setattr(identities, "xpoly", _build)
    monkeypatch.setattr(symfun, "det", _build)
    for n, m in [("1", "8"), ("8", "1"), ("1", "10")]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "dual-determinant", "--n", n, "--m", m)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"refused: dual-determinant at n={n}, m={m} needs n + m <= 8 for its determinant\n"
        )


def test_the_bialternant_route_answers_past_the_alternant_bound(capsys):
    # it divides in the alternant's normal form and never expands n! terms
    for shape in ("[1]", "[2,1]"):
        argv = ("schur", "--shape", shape, "--n", "9")
        start = time.perf_counter()
        quotient = run_cli(capsys, *argv, "--method", "bialternant")
        assert time.perf_counter() - start < 1.0
        assert quotient[0] == 0 and quotient == run_cli(capsys, *argv, "--method", "tableaux")


_BIALTERNANT_PAST_N = "bialternant at n={} > 13 multiplies M_change entries of up to 2^(n-1) terms"

_ALTERNANT_EXPANSIONS = [
    # (argv at the largest n that runs, that n, the refusal one past it, the refusal at
    # n = 3000).  verify bialternant no longer expands the alternant: under n = 13 its
    # work budget bounds it, and past n = 13 it refuses on n alone, whatever the shape;
    # (1) at n = 13 takes 2.5 s.  vandermonde and paths expand the plain n!-term alternant
    # and share one bound; factorial-schur bounds n, the number of x-variables
    (("verify", "bialternant", "--shape", "[5,4,3,2,1]"), 13, _BIALTERNANT_PAST_N,
     _BIALTERNANT_PAST_N),
    (("verify", "bialternant", "--shape", "[1]"), 13, _BIALTERNANT_PAST_N, _BIALTERNANT_PAST_N),
    (("verify", "factorial-schur", "--shape", "[3,2,1]"), 5,
     "factorial-schur at n={} > 5 builds factorial Schur polynomials in n x-variables"
     " (4.6 s and 203 MB for [4,3,2,1] at n=6)",
     None),
    (("verify", "vandermonde"), 8, "vandermonde at n={} > 8 expands n! >= 362880 terms", None),
    (("paths", "--preset", "vandermonde"), 8, "vandermonde at n={} > 8 expands n! >= 362880 terms",
     None),
]


@pytest.mark.parametrize("argv, largest, message, far", _ALTERNANT_EXPANSIONS)
def test_an_alternant_expansion_refuses_past_its_measured_bound_at_once(
    monkeypatch, capsys, argv, largest, message, far
):
    for name in ("bialternant", "alternant", "factorial_schur_quotient", "det", "vandermonde"):
        monkeypatch.setattr(symfun, name, _build)
    for name in ("schur_tableaux", "factorial_schur_tableaux"):
        monkeypatch.setattr(combinat, name, _build)
    for name in ("path_matrix", "vandermonde_scheme"):
        monkeypatch.setattr(lgv, name, _build)
    # 3000! has more digits than str() of an int may print
    for n, refusal in [(largest + 1, message), (3000, far or message)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"refused: {refusal.format(n)}\n")
    with pytest.raises(AssertionError, match="the refusal must come before"):
        main([*argv, "--n", str(largest)])  # the bound itself starts building


def test_verify_factorial_schur_refuses_a_large_shape_on_its_budget(monkeypatch, capsys):
    # (64) at n = 2 ran past 60 s, and (6,5,4,3,2) at n = 5 ran out of memory; the real
    # budget refuses them after seconds, so a cut one keeps the test quick
    tight = IDENTITIES["factorial-schur"]._replace(budget=20000)
    monkeypatch.setitem(IDENTITIES, "factorial-schur", tight)
    for shape, n in [("[64]", "2"), ("[6,5,4,3,2]", "5")]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "factorial-schur", "--shape", shape, "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert re.fullmatch(
            rf"refused: factorial-schur \[shape={re.escape(shape)} n={n}\] spent \d+ units"
            r" of ring work, past its budget of 20000\n",
            err,
        )


def test_schur_refuses_past_its_budget_for_every_method(monkeypatch, capsys):
    # jacobitrudi at (6,5,4,3,2,1), n = 8 ran 84-92 s; a cut budget stands in for the real one
    monkeypatch.setattr(cli, "_SCHUR_BUDGET", 30)
    for method in ("jacobitrudi", "tableaux", "bialternant", "lgv"):
        code, out, err = run_cli(
            capsys, "schur", "--shape", "[3,2,1]", "--n", "4", "--method", method
        )
        assert (code, out) == (1, "")
        assert re.fullmatch(
            rf"refused: schur \[shape=\[3,2,1\] n=4 method={method}\] spent \d+ units of ring"
            r" work, past its budget of 30\n",
            err,
        )
    code, out, err = run_cli(capsys, "schur", "--shape", "[1]", "--n", "2", "--method", "lgv")
    assert (code, out, err) == (0, "x1 + x2\n", "")


def test_schur_jacobitrudi_meets_its_budget_while_building_h(monkeypatch, capsys):
    # h_12 in 12 variables has 1,352,078 terms; the table charges each entry as it is
    # built, so the refusal passes the budget by at most one entry, C(18, 7) = 31,824
    monkeypatch.setattr(cli, "_SCHUR_BUDGET", 100_000)
    argv = ("schur", "--method", "jacobitrudi", "--shape", "[12]", "--n", "12")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    found = re.fullmatch(
        r"refused: schur \[shape=\[12\] n=12 method=jacobitrudi\] spent (\d+) units of ring"
        r" work, past its budget of 100000\n",
        err,
    )
    assert found and int(found[1]) < 200_000


def test_schur_refuses_a_row_past_the_ring_degree_at_once(monkeypatch, capsys):
    # the tableau walk would first list every state of the row
    monkeypatch.setattr(combinat, "schur_tableaux", _build)
    for method in ("tableaux", "jacobitrudi", "bialternant", "lgv"):
        argv = ("schur", "--shape", "[1000000000000]", "--n", "2", "--method", method)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "refused: total degree 1000000000000 exceeds the packed-monomial limit 127\n"
    assert run_cli(capsys, "schur", "--shape", "[200,1]", "--n", "1")[:2] == (0, "0\n")


def test_verify_jacobi_trudi_anchor_follows_the_shape_not_n(capsys):
    # the integer s_lambda is an r x r determinant, r the number of rows
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "jacobi-trudi", "--shape", "[1]", "--n", "100")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "jacobi-trudi [shape=[1] n=100]: VERIFIED\n", "")


def test_verify_bialternant_answers_past_the_alternant_bound(capsys):
    # the check builds no n!-term alternant, so n = 9 runs at once for small shapes
    for shape in ("[1]", "[2,1]"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "bialternant", "--shape", shape, "--n", "9")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, f"bialternant [shape={shape} n=9]: VERIFIED\n", "")


def test_verify_corollary_empty_grid_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "corollary", "--n", "1")
    assert code == 2
    assert out == ""
    assert "n >= 2" in err


def test_every_table_identity_is_accepted_everywhere(tmp_path, capsys):
    small = {"max_partition_size": 1, "max_n": 1, "cauchy_cap": 1, "dual_max": 1, "newton_max": 1}
    config = tmp_path / "small.json"
    config.write_text(json.dumps(small))
    for name, identity in IDENTITIES.items():
        shape = ["--shape", "[1]"] if REQUIRED in identity.options.values() else []
        code, out, _ = run_cli(capsys, "verify", name, *shape)
        assert code == 0, name
        assert out.startswith(f"{name} [") and out.endswith("]: VERIFIED\n")
        code, out, _ = run_cli(capsys, "suite", "--config", str(config), "--only", name)
        assert code == 0, name
        assert {report["identity"] for report in json.loads(out)} == {name}
        assert SuiteConfig.from_dict({"only": [name]}).only == [name]


# -- suite ------------------------------------------------------------------------


def test_suite_only_newton(capsys):
    code, out, _ = run_cli(capsys, "suite", "--only", "newton")
    assert code == 0
    reports = json.loads(out)
    assert [r["identity"] for r in reports] == ["newton"]
    assert reports[0]["status"] == "VERIFIED"


def test_suite_with_config_file(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "max_partition_size": 2,
                "max_n": 2,
                "cauchy_cap": 2,
                "dual_max": 1,
                "newton_max": 2,
            }
        )
    )
    code, out, _ = run_cli(capsys, "suite", "--config", str(config))
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "VERIFIED" for r in reports)


def test_suite_rejects_corrupted_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "suite", "--config", str(config))
    assert code == 2
    assert "config" in err
    config.write_text(json.dumps({"bogus": 1}))
    code, _, _ = run_cli(capsys, "suite", "--config", str(config))
    assert code == 2
    config.write_text(json.dumps({"max_n": True, "dual_max": False}))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config), "--only", "dual-cauchy")
    assert (code, out) == (2, "")


def test_suite_error_report_keeps_the_whole_array(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"cauchy_cap": 300}))
    code, out, _ = run_cli(
        capsys, "suite", "--config", str(config), "--only", "cauchy", "--only", "newton"
    )
    assert code == 1
    reports = json.loads(out)
    assert [(r["identity"], r["status"]) for r in reports] == [
        ("cauchy", "ERROR"),
        ("cauchy", "ERROR"),
        ("newton", "VERIFIED"),
    ]
    assert reports[1]["params"] == {
        "n": "2",
        "degree_cap": "300",
        "error": "TooLarge: the truncated partition list would explode",
    }


def test_suite_rejects_an_empty_selection(tmp_path, capsys):
    config = tmp_path / "none.json"
    config.write_text(json.dumps({"only": []}))
    code, out, err = run_cli(capsys, "suite", "--config", str(config))
    assert (code, out) == (2, "")
    assert "config key 'only' must name at least one identity" in err
    config.write_text(json.dumps({"max_n": 0, "only": ["jacobi-trudi"]}))
    code, out, err = run_cli(capsys, "suite", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == "error: bad config file: the config gives no point to check for jacobi-trudi\n"
    config.write_text(json.dumps({"dual_max": 0}))
    code, out, err = run_cli(capsys, "suite", "--config", str(config), "--only", "dual-cauchy")
    assert (code, out) == (2, "")
    assert err == "error: the config gives no point to check for dual-cauchy\n"


def test_suite_unknown_only_exits_two(capsys):
    code, _, err = run_cli(capsys, "suite", "--only", "nosuch")
    assert code == 2
    assert "nosuch" in err


# -- paths / render ------------------------------------------------------------------


def test_paths_vandermonde_preset(capsys):
    code, out, _ = run_cli(capsys, "paths", "--preset", "vandermonde", "--n", "2")
    assert code == 0
    assert out == "systems: 1\nsigned sum: x1 - x2\n"


def test_paths_schur_preset(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--preset", "schur", "--shape", "[1]", "--n", "2"
    )
    assert code == 0
    assert out == "systems: 2\nsigned sum: x1 + x2\n"
    # one system, though 1,184,040 paths join its outermost source and sink;
    # the path-system walk drops the dead states that would fill memory
    code, out, _ = run_cli(
        capsys, "paths", "--preset", "schur", "--shape", "[14,14,14,14,14,14,14,14]", "--n", "8"
    )
    assert code == 0
    assert out == "systems: 1\nsigned sum: " + "*".join(f"x{i}^14" for i in range(1, 9)) + "\n"


def test_vandermonde_preset_refuses_a_shape(tmp_path, capsys):
    for argv in (["paths"], ["render", "--out", str(tmp_path / "figure.svg")]):
        code, out, err = run_cli(
            capsys, *argv, "--preset", "vandermonde", "--n", "2", "--shape", "[5]"
        )
        assert code == 2
        assert out == ""
        assert "the vandermonde preset takes no --shape" in err
    assert not (tmp_path / "figure.svg").exists()


def test_paths_json(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--preset", "vandermonde", "--n", "2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"systems": 1, "signed_sum": "x1 - x2"}


def test_render_writes_wellformed_svg(monkeypatch, tmp_path, capsys):
    # render lists the systems it draws; only paths prints the walk's count
    monkeypatch.setattr(lgv, "nonintersecting_count", _build)
    out_file = tmp_path / "figure.svg"
    code, out, _ = run_cli(
        capsys,
        "render",
        "--preset",
        "schur",
        "--shape",
        "[1]",
        "--n",
        "2",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "wrote" in out and "2 systems" in out
    root = ET.parse(out_file).getroot()
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 4  # 2 systems x 2 paths


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_render_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, where):
    out_file = tmp_path / "missing" / "x.svg" if where == "missing" else tmp_path
    code, out, err = run_cli(
        capsys, "render", "--preset", "vandermonde", "--n", "2", "--out", str(out_file)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_file}: ")
    assert "Traceback" not in err


def test_paths_vandermonde_refuses_n_past_9_at_once_but_render_lists_it(
    monkeypatch, tmp_path, capsys
):
    # one system, whose signed sum is the Vandermonde's n! terms; render does not sum it
    for n in ("9", "11"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "paths", "--preset", "vandermonde", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"refused: vandermonde at n={n} > 8 expands n! >= 362880 terms\n"
    out_file = tmp_path / "v11.svg"
    code, out, _ = run_cli(
        capsys, "render", "--preset", "vandermonde", "--n", "11", "--out", str(out_file)
    )
    assert (code, out) == (0, f"wrote {out_file} (1 systems)\n")
    # render weighs each path, the longest one of 2^(n-1) terms, and refuses past n = 20
    out_file = tmp_path / "v50.svg"
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "render", "--preset", "vandermonde", "--n", "50", "--out", str(out_file)
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "refused: render of the vandermonde preset at n=50 > 20 weighs a path of 2^49 terms\n"
    )
    assert not out_file.exists()
    monkeypatch.setattr(lgv, "nonintersecting_systems", _build)
    with pytest.raises(AssertionError, match="the refusal must come before"):
        main(["render", "--preset", "vandermonde", "--n", "20", "--out", str(out_file)])


def test_paths_refuses_explosive_configuration(capsys):
    code, _, err = run_cli(
        capsys, "paths", "--preset", "schur", "--shape", "[50]", "--n", "12"
    )
    assert code == 1
    assert "refused" in err


@pytest.mark.parametrize("command", ["paths", "render"])
def test_schur_preset_refuses_by_the_hook_content_count_before_the_walk(
    monkeypatch, tmp_path, capsys, command
):
    # [300] at n = 300 has C(599, 300) systems, more than the walk could count; the
    # count stops past 10^18 and names no larger number
    for name in ("nonintersecting_count", "nonintersecting_systems", "nonintersecting_sum"):
        monkeypatch.setattr(lgv, name, _build)
    out_file = tmp_path / "figure.svg"
    argv = [command, "--preset", "schur"]
    if command == "render":
        argv += ["--out", str(out_file)]
    for shape, n, count in [
        ("[300]", "300", "over 1000000000000000000"),
        ("[10000000]", "2", "10000001"),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--shape", shape, "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"refused: {count} non-intersecting path systems, more than the limit of 1000000\n"
        )
    assert not out_file.exists()
    with pytest.raises(AssertionError, match="the refusal must come before"):
        main([*argv, "--shape", "[35]", "--n", "6"])  # 658,008 systems: admitted


def test_render_refuses_explosive_configuration(tmp_path, capsys):
    # [50] at n=12 has 418,094,152,866 systems; the refusal names the count
    # and the limit, and writes no file
    out_file = tmp_path / "figure.svg"
    code, out, err = run_cli(
        capsys, "render", "--preset", "schur", "--shape", "[50]", "--n", "12",
        "--out", str(out_file),
    )
    assert code == 1
    assert out == ""
    assert "refused" in err and "418094152866" in err and "1000000" in err
    assert not out_file.exists()


def test_no_command_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 2
    assert "usage" in out


def test_outputs_are_reproducible(capsys):
    first = run_cli(capsys, "schur", "--shape", "[2,2]", "--n", "3")
    second = run_cli(capsys, "schur", "--shape", "[2,2]", "--n", "3")
    assert first == second
    v1 = run_cli(capsys, "verify", "dual-cauchy", "--n", "2", "--m", "2")
    v2 = run_cli(capsys, "verify", "dual-cauchy", "--n", "2", "--m", "2")
    assert v1 == v2  # text mode carries no timings


def test_profile_writes_stats_and_keeps_output(tmp_path, capsys):
    argv = ["schur", "--shape", "[2,1]", "--n", "3", "--method", "bialternant"]
    plain = run_cli(capsys, *argv)
    profile = tmp_path / "schur.prof"
    profiled = run_cli(capsys, "--profile", str(profile), *argv)
    assert profiled == plain
    names = {function for _, _, function in pstats.Stats(str(profile)).stats}
    assert "alternant_quotient" in names


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_profile_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, where):
    argv = ["schur", "--shape", "[2,1]", "--n", "3"]
    _, plain, _ = run_cli(capsys, *argv)
    profile = tmp_path / "missing" / "x.prof" if where == "missing" else tmp_path
    code, out, err = run_cli(capsys, "--profile", str(profile), *argv)
    assert (code, out) == (2, plain)  # the command ran; only its profile was lost
    assert err.startswith(f"error: cannot write {profile}: ")


def test_degree_beyond_the_packed_limit_is_a_refusal(capsys):
    code, out, err = run_cli(capsys, "schur", "--shape", "[128]", "--n", "1")
    assert code == 1
    assert out == ""
    assert "refused" in err and "127" in err
