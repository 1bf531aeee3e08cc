"""Source-level mutants of package functions, for the fault tables.

A fault inside a function body cannot be reached by wrapping the function,
so `mutant` recompiles the function from its source with one fragment
replaced.  The mutant shares the module's globals; a test installs it on the
module attribute that callers look up.
"""

from __future__ import annotations

import inspect
import textwrap


def mutant(function, old: str, new: str):
    """`function` with the one occurrence of `old` in its source replaced by `new`."""
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"{old!r} must occur once in {function.__qualname__}"
    namespace: dict = {}
    padded = "\n" * (first - 1) + source.replace(old, new)  # tracebacks keep the file's lines
    code = compile(padded, inspect.getsourcefile(function), "exec")
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]
