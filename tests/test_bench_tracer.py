"""The bench harness's tracer must still find every function it wraps."""

import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = [(module, attribute) for module, attribute, _, _ in tracing.TARGETS]
    targets += [(module, attribute) for module, attribute, _, _ in tracing.GENERATORS]

    def lookup(module, attribute):
        owner = importlib.import_module(f"schurpaths.{module}")
        *path, last = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[last]

    originals = {target: lookup(*target) for target in targets}
    # the tracer wraps these as generators, whose yields it counts
    for module, attribute, _, _ in tracing.GENERATORS:
        assert inspect.isgeneratorfunction(originals[module, attribute])
    tracer = tracing.Tracer()
    tracer.install()  # raises KeyError if a traced function is missing
    try:
        assert all(lookup(*target) is not originals[target] for target in targets)
    finally:
        tracer.uninstall()
    assert all(lookup(*target) is originals[target] for target in targets)


def test_tracer_sees_every_verifier_call(monkeypatch):
    # `verify` and `suite` reach the verifiers through the module globals the tracer wraps
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from schurpaths import cli
    from schurpaths.identities import SuiteConfig, run_suite

    tracer = tracing.Tracer()
    tracer.install()
    try:
        stat = tracer.stats["identities.verify_main_lemma"]
        assert cli.main(["verify", "main-lemma", "--m", "2", "--n", "2"]) == 0
        assert stat["calls"] == 1
        run_suite(SuiteConfig(only=["main-lemma"]))
        assert stat["calls"] == 2
    finally:
        tracer.uninstall()


def test_tracer_sees_each_divided_difference_factor_divided(monkeypatch):
    # `symfun` divides through its `exact_div` alias, once per factor x_1 - x_k of
    # a divided-difference table; verify newton builds one table of 3 at power 3
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from schurpaths import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        stat = tracer.stats["ring.exact_div"]
        before = stat["calls"]
        assert cli.main(["verify", "newton", "--power", "3"]) == 0
        assert stat["calls"] - before == 3
    finally:
        tracer.uninstall()
