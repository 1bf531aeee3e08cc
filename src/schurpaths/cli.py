"""Command-line front end.

Commands: schur (compute a Schur polynomial by any of the four routes),
verify (run one identity check), suite (run the whole grid, JSON report),
paths (count non-intersecting path systems and their signed sum), render
(write the systems as an SVG figure).

Exit codes: 0 = success/verified, 1 = mismatch or bounded-resource refusal,
2 = usage or config error.  The refusals:
- paths or render on more than 10^6 path systems, counted by the hook-content
  formula before the walk
- render --preset vandermonde past n = 20 (its longest path weighs 2^(n-1) terms)
- main-lemma past m = 18, and main-lemma and corollary past 10^9 units of work
  (terms and closed forms times variables)
- newton past power 16
- verify vandermonde and paths --preset vandermonde past n = 8 (both expand
  the plain alternant of n! terms)
- verify bialternant past n = 13, or past 17,500,000 units of work (term
  pairs and terms of its products and sweeps) counted from the shape
- verify factorial-schur past n = 5 (both sides grow with the n x-variables),
  or past 2^20 terms, 2^|lambda| for each tableau, counted from the shape
- cauchy past a partition list of 20000 or a series of 400000 terms (a
  degree_cap below n(n-1)/2, where both truncated sides are 0, is a usage
  error)
- dual-cauchy past 4,000,000 candidate terms of prod(1 + x_i y_j), and
  dual-determinant past n + m = 8
- a degree beyond the ring's packed-monomial limit

`--profile FILE`, given before the command, writes cProfile statistics of
the command to FILE (read them with `python -m pstats FILE`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import combinat, identities, lgv, symfun
from .combinat import parse_partition
from .ring import Polynomial, TooLarge, canonical_text


_MAX_SYSTEMS = 1_000_000
_PRINTED_SYSTEMS = 10**18  # a refusal names the system count up to here; the count stops past it
# render weighs every path of the one Vandermonde system, the longest 2^(n-1) terms:
# 1.6 s and 162 MB at n = 20, 3.0 s and 308 MB at 21, 8.7 s and 615 MB at 22
_MAX_VANDERMONDE_RENDER_N = 20


def _schur_by_method(shape, n: int, method: str) -> Polynomial:
    if len(shape) > n:
        return Polynomial.zero()
    if method == "tableaux":
        return combinat.schur_tableaux(shape, n)
    if method == "jacobitrudi":
        return symfun.jacobi_trudi(shape, n)
    if method == "bialternant":
        return symfun.bialternant(shape, n)
    if method == "lgv":
        return lgv.schur_via_lgv(shape, n)
    raise ValueError(f"unknown method {method!r}")


def cmd_schur(args) -> int:
    shape = parse_partition(args.shape)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    text = canonical_text(_schur_by_method(shape, args.n, args.method))
    if args.json:
        print(json.dumps({"schur": text}))
    else:
        print(text)
    return 0


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _verify_options() -> list[str]:
    """Every identity's `verify` options, each once, in table order."""
    return list(dict.fromkeys(o for i in identities.IDENTITIES.values() for o in i.options))


def _run_verifier(args) -> identities.CheckReport:
    identity = identities.IDENTITIES[args.identity]
    unused = sorted(
        option
        for option in set(_verify_options()) - identity.options.keys()
        if getattr(args, option) is not None
    )
    if unused:
        flags = ", ".join(map(_flag, unused))
        raise ValueError(f"verify {identity.name} does not take {flags}")

    def value(option: str, default):
        given = getattr(args, option)
        if given is not None:
            return parse_partition(given) if option == "shape" else given
        if default is identities.REQUIRED:
            raise ValueError(f"verify {identity.name} needs {_flag(option)}")
        return default

    return identity.check(**{option: value(option, d) for option, d in identity.options.items()})


def cmd_verify(args) -> int:
    report = _run_verifier(args)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.summary_line())
        if report.status == identities.MISMATCH:
            print(f"  lhs: {report.lhs_text}")
            print(f"  rhs: {report.rhs_text}")
    return 0 if report.status == identities.VERIFIED else 1


def cmd_suite(args) -> int:
    config = identities.SuiteConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("config must be a JSON object")
            config = identities.SuiteConfig.from_dict(data)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad config file: {exc}") from None
    if args.only is not None:
        config = dataclasses.replace(config, only=args.only)
    reports = identities.run_suite(config)
    print(identities.reports_to_json(reports))
    return 0 if identities.all_verified(reports) else 1


def _preset_configuration(args, check_size):
    """The preset's scheme, sources and sinks.

    The vandermonde preset has one system, whose size `check_size(n)`
    bounds; the schur preset refuses more than _MAX_SYSTEMS, counted by the
    hook-content formula.  Both refuse before any walk.
    """
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    if args.preset == "vandermonde":
        if args.shape is not None:
            raise ValueError("the vandermonde preset takes no --shape")
        check_size(n)
        scheme, (sources, sinks) = lgv.vandermonde_scheme(n), lgv.vandermonde_endpoints(n)
    else:
        if args.shape is None:
            raise ValueError("the schur preset needs --shape")
        shape = combinat.fit_shape(parse_partition(args.shape), n)
        systems = combinat.ssyt_count(shape, n, stop=_PRINTED_SYSTEMS)
        if systems > _MAX_SYSTEMS:
            many = systems if systems <= _PRINTED_SYSTEMS else f"over {_PRINTED_SYSTEMS}"
            raise TooLarge(
                f"{many} non-intersecting path systems, more than the limit of {_MAX_SYSTEMS}"
            )
        scheme = lgv.jacobi_trudi_scheme(n=n, col_bound=shape[0] + n)
        sources, sinks = lgv.schur_endpoints(shape, n)
    return scheme, sources, sinks


def _check_render_size(n: int) -> None:
    if n > _MAX_VANDERMONDE_RENDER_N:
        raise TooLarge(
            f"render of the vandermonde preset at n={n} > {_MAX_VANDERMONDE_RENDER_N}"
            f" weighs a path of 2^{n - 1} terms"
        )


def cmd_paths(args) -> int:
    # one system, but its signed sum is the Vandermonde's n! terms
    scheme, sources, sinks = _preset_configuration(
        args,
        lambda n: identities.check_factorial_size("vandermonde", n, identities.MAX_ALTERNANT_N),
    )
    count = lgv.nonintersecting_count(scheme, sources, sinks)
    text = canonical_text(lgv.nonintersecting_sum(scheme, sources, sinks))
    if args.json:
        print(json.dumps({"systems": count, "signed_sum": text}))
    else:
        print(f"systems: {count}")
        print(f"signed sum: {text}")
    return 0


def cmd_render(args) -> int:
    scheme, sources, sinks = _preset_configuration(args, _check_render_size)
    systems = list(lgv.nonintersecting_systems(scheme, sources, sinks))
    svg = lgv.path_systems_svg(sources, sinks, systems)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    if args.json:
        print(json.dumps({"file": args.out, "systems": len(systems)}))
    else:
        print(f"wrote {args.out} ({len(systems)} systems)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurpaths",
        description="Exact Schur polynomials via lattice paths, with identity checks.",
    )
    parser.add_argument(
        "--profile", metavar="FILE", help="write cProfile statistics of the command to FILE"
    )
    sub = parser.add_subparsers(dest="command")

    p_schur = sub.add_parser("schur", help="compute a Schur polynomial")
    p_schur.add_argument("--shape", required=True, help='partition, e.g. "[2,1]"')
    p_schur.add_argument("--n", type=int, required=True, help="number of variables")
    p_schur.add_argument(
        "--method",
        choices=["tableaux", "jacobitrudi", "bialternant", "lgv"],
        default="tableaux",
    )
    p_schur.add_argument("--json", action="store_true")
    p_schur.set_defaults(func=cmd_schur)

    p_verify = sub.add_parser("verify", help="verify one identity")
    p_verify.add_argument("identity", choices=list(identities.IDENTITIES))
    for option in _verify_options():  # shape stays text until _run_verifier parses it
        kind = {"help": 'partition, e.g. "[2,1]"'} if option == "shape" else {"type": int}
        p_verify.add_argument(_flag(option), **kind)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="run the full verification suite")
    p_suite.add_argument("--config", help="JSON config file")
    p_suite.add_argument(
        "--only",
        action="append",
        metavar="IDENTITY",
        help="restrict to one identity (repeatable)",
    )
    p_suite.set_defaults(func=cmd_suite)

    p_paths = sub.add_parser("paths", help="count non-intersecting path systems and sum them")
    p_render = sub.add_parser("render", help="render path systems as SVG")
    for p in (p_paths, p_render):
        p.add_argument("--preset", choices=["vandermonde", "schur"], required=True)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--shape", help="partition (schur preset)")
        p.add_argument("--json", action="store_true")
    p_paths.set_defaults(func=cmd_paths)
    p_render.add_argument("--out", required=True, help="output SVG file")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    if args.profile is None:
        return _run(args)
    import cProfile  # only profiled runs pay for loading the profiler

    profiler = cProfile.Profile()
    try:
        code = profiler.runcall(_run, args)
    finally:
        try:
            profiler.dump_stats(args.profile)
        except OSError as exc:
            print(f"error: cannot write {args.profile}: {exc.strerror}", file=sys.stderr)
            code = 2
    return code


def _run(args) -> int:
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
