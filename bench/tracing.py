"""Span tracing around the package's public functions, installed from outside.

`Tracer.install` replaces each target function by a timing wrapper wherever
the package binds it: module globals (so `symfun.exact_div`, `lgv.mul` and
the re-exports in `schurpaths/__init__.py` are all seen) and class attributes
(`Polynomial.__add__` and its alias `__radd__`).  `uninstall` restores the
originals.  `Monomial.of` and `Monomial.mul` stay unwrapped: they run hundreds
of thousands of times per pass and a wrapper would dominate their cost.

Self time is attributed with a stack: while a wrapped call (or one resume of
a wrapped generator) runs, its elapsed time is charged to it and subtracted
from whichever span was on top of the stack when it started.  Self times
therefore never overlap, and their sum stays within the traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

PACKAGE = "schurpaths"
MODULES = ("ring", "combinat", "symfun", "lgv", "identities", "cli")
VERIFIERS = (
    "main_lemma",
    "corollary",
    "vandermonde",
    "jacobi_trudi",
    "bialternant",
    "cauchy",
    "dual_cauchy",
    "dual_determinant",
    "factorial_schur",
    "newton",
)


def _mul_counts(stat, args, result):
    stat["term_pairs"] += len(args[0]) * len(args[1])
    stat["out_terms"] += len(result)


def _div_counts(stat, args, result):
    stat["dividend_terms"] += len(args[0])
    stat["quotient_terms"] += len(result)


def _text_counts(stat, args, result):
    stat["terms"] += len(args[0])


def _det_counts(stat, args, result):
    matrix = args[0]
    stat["order_max"] = max(stat["order_max"], matrix.n_rows)
    stat["entry_terms"] += sum(len(entry) for entry in matrix.entries)


def _h_counts(stat, args, result):
    stat.setdefault("seen", set()).add(tuple(args[:2]))
    stat["distinct"] = len(stat["seen"])


# (module, attribute, span name, counter hook); generators are listed in GENERATORS.
TARGETS = [
    ("ring", "mul", "ring.mul", _mul_counts),
    ("ring", "exact_div", "ring.exact_div", _div_counts),
    ("ring", "Polynomial.__add__", "ring.add", None),
    ("ring", "eval_int", "ring.eval_int", None),
    ("ring", "canonical_text", "ring.canonical_text", _text_counts),
    ("ring", "substitute_family", "ring.substitute_family", None),
    ("combinat", "schur_tableaux", "combinat.schur_tableaux", None),
    ("combinat", "factorial_schur_tableaux", "combinat.factorial_schur_tableaux", None),
    ("symfun", "det", "symfun.det", _det_counts),
    ("symfun", "complete_homogeneous", "symfun.complete_homogeneous", _h_counts),
    ("symfun", "vandermonde", "symfun.vandermonde", None),
    ("symfun", "jacobi_trudi", "symfun.jacobi_trudi", None),
    ("symfun", "bialternant", "symfun.bialternant", None),
    ("symfun", "alternant", "symfun.alternant", None),
    ("symfun", "divided_difference", "symfun.divided_difference", None),
    ("lgv", "e_weight", "lgv.e_weight", None),
    ("lgv", "lgv_det", "lgv.lgv_det", None),
    ("lgv", "path_count", "lgv.path_count", None),
    ("lgv", "schur_via_lgv", "lgv.schur_via_lgv", None),
    ("lgv", "system_weight", "lgv.system_weight", None),
    ("cli", "main", "cli.main", None),
] + [("identities", f"verify_{name}", f"identities.verify_{name}", None) for name in VERIFIERS]

# (module, attribute, span name, name of the yield counter)
GENERATORS = [
    ("combinat", "ssyt_enumerate", "combinat.ssyt_enumerate", "tableaux"),
    ("lgv", "enumerate_paths", "lgv.enumerate_paths", "paths"),
    ("lgv", "nonintersecting_systems", "lgv.nonintersecting_systems", "systems"),
]

class _Stat(dict):
    """Counters of one span name; missing counters read as 0."""

    def __init__(self):
        super().__init__(calls=0, self_s=0.0, busy_s=0.0)
        self.active = 0

    def __missing__(self, key):
        return 0


class Tracer:
    """Wraps the package's public functions and keeps every span in memory."""

    def __init__(self):
        self.op_id = -1
        self.stats: dict[str, _Stat] = {}
        self.names: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds] per active span
        self._next_id = 0
        self._columns = {
            "id": array("q"),
            "name": array("i"),
            "parent": array("q"),
            "op": array("i"),
            "start": array("d"),
            "end": array("d"),
            "busy": array("d"),
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        root = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        containers = [root, *modules.values()]
        containers += [
            value
            for module in modules.values()
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        plan = [(mod, attr, name, self._wrap_function, hook) for mod, attr, name, hook in TARGETS]
        plan += [(mod, attr, name, self._wrap_generator, field) for mod, attr, name, field in GENERATORS]
        for module_name, attribute, name, wrap, extra in plan:
            owner = modules[module_name]
            *path, last = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[last]
            wrapper = wrap(name, original, extra)
            for container in containers:
                self._rebind(container, original, wrapper)

    def _rebind(self, container, original, wrapper) -> None:
        for key, value in list(vars(container).items()):
            if value is original:
                self._restore.append((container, key, value))
                setattr(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, value in reversed(self._restore):
            setattr(container, key, value)
        self._restore.clear()

    # -- spans -----------------------------------------------------------------

    def _stat(self, name: str) -> tuple[_Stat, int]:
        if name not in self.stats:
            self.stats[name] = _Stat()
            self.names.append(name)
        return self.stats[name], self.names.index(name)

    def _record(self, span_id, name_index, parent, start, end, busy) -> None:
        c = self._columns
        c["id"].append(span_id)
        c["name"].append(name_index)
        c["parent"].append(parent)
        c["op"].append(self.op_id)
        c["start"].append(start)
        c["end"].append(end)
        c["busy"].append(busy)

    def _wrap_function(self, name, fn, hook):
        stat, name_index = self._stat(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            stat.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat.active -= 1
                if not stat.active:
                    stat["busy_s"] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[1]
                self._record(frame[0], name_index, parent, start, end, elapsed)
            if hook is not None:
                hook(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn, yield_field):
        """One span per generator call; its busy time is the sum of its resumes."""
        stat, name_index = self._stat(name)
        stack = self._stack

        def resume(inner, frame, parent):
            start = perf_counter()
            busy = 0.0
            try:
                while True:
                    stack.append(frame)
                    stat.active += 1
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - t0
                        stack.pop()
                        busy += elapsed
                        if stack:
                            stack[-1][1] += elapsed
                        stat.active -= 1
                        if not stat.active:
                            stat["busy_s"] += elapsed
                    stat[yield_field] += 1
                    yield item
            finally:
                inner.close()
                stat["calls"] += 1
                stat["self_s"] += busy - frame[1]
                self._record(frame[0], name_index, parent, start, perf_counter(), busy)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            return resume(fn(*args, **kwargs), frame, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._columns["id"])

    def self_sum(self) -> float:
        return sum(stat["self_s"] for stat in self.stats.values())

    def layer_metrics(self, names, wall_s: float, overhead_s: float, out_bytes: int) -> dict[str, float]:
        """The value of each named per-layer metric, from the counters gathered so far.

        A name is `<span name>.<counter>` or one of the derived figures below.
        """
        flat = {}
        for name in names:
            label, field = name.rsplit(".", 1)
            if label in self.stats:
                flat[name] = self.stats[label][field]
        mul = self.stats["ring.mul"]
        flat["ring.mul.yield"] = mul["out_terms"] / mul["term_pairs"] if mul["term_pairs"] else 0.0
        paths = self.stats["lgv.enumerate_paths"]["paths"]
        systems = self.stats["lgv.nonintersecting_systems"]["systems"]
        flat["lgv.systems_per_path"] = systems / paths if paths else 0.0
        verifiers = [self.stats[f"identities.verify_{name}"] for name in VERIFIERS]
        flat["identities.verify.calls"] = sum(stat["calls"] for stat in verifiers)
        flat["identities.verify.self_s"] = sum(stat["self_s"] for stat in verifiers)
        flat["cli.main.out_bytes"] = out_bytes
        flat["trace.wall_s"] = wall_s
        flat["trace.overhead_s"] = overhead_s
        flat["trace.self_sum_s"] = self.self_sum()
        flat["trace.spans"] = self.span_count
        return {name: flat[name] for name in names}

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed, one per line."""
        c = self._columns
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("id\tname\tparent\top\tstart\tend\tbusy\n")
            for row in zip(c["id"], c["name"], c["parent"], c["op"], c["start"], c["end"], c["busy"]):
                handle.write(
                    f"{row[0]}\t{self.names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]:.9f}\t{row[5]:.9f}\t{row[6]:.9f}\n"
                )
