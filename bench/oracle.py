"""Independent output oracle.

Shares nothing with the package under test: the text evaluator, the integer
bialternant and the hook-content count below use only the standard library.
A `schur` output, and the signed sum from `paths`, must evaluate at seeded
integer points to det(x_i^(lambda_j + n - j)) / prod_{i<j} (x_i - x_j); the
system count from `paths` must equal s_lambda(1^n); a `verify` call must
report VERIFIED.
"""

from __future__ import annotations

import json
import random
import re

POINTS_PER_N = 2
_TERM_SPLIT_RE = re.compile(r" ([+-]) ")
_FACTOR_RE = re.compile(r"x([1-9][0-9]*)(?:\^([2-9]|[1-9][0-9]+))?\Z")


class OracleError(ValueError):
    """An output is malformed or has the wrong value."""


def parse_terms(text: str) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Parse canonical polynomial text in x-variables into (coeff, ((index, exp), ...))."""
    s = text.strip()
    if s == "0":
        return []
    sign = 1
    if s.startswith("-"):
        sign, s = -1, s[1:]
    pieces = _TERM_SPLIT_RE.split(s)
    signed = [(sign, pieces[0])] + [
        (1 if op == "+" else -1, chunk) for op, chunk in zip(pieces[1::2], pieces[2::2])
    ]
    terms = []
    for term_sign, chunk in signed:
        factors = chunk.split("*")
        coefficient = 1
        if factors[0].isdigit():
            coefficient = int(factors[0])
            factors = factors[1:]
        monomial = []
        for factor in factors:
            match = _FACTOR_RE.match(factor)
            if match is None:
                raise OracleError(f"unexpected factor {factor!r} in {chunk!r}")
            monomial.append((int(match.group(1)), int(match.group(2) or 1)))
        terms.append((term_sign * coefficient, tuple(monomial)))
    return terms


def evaluate(terms, point: tuple[int, ...]) -> int:
    total = 0
    for coefficient, monomial in terms:
        value = coefficient
        for index, exponent in monomial:
            if index > len(point):
                raise OracleError(f"x{index} outside x1..x{len(point)}")
            value *= point[index - 1] ** exponent
        total += value
    return total


def int_det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) integer determinant."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, previous = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[n - 1][n - 1]


def schur_value(shape: tuple[int, ...], n: int, point: tuple[int, ...]) -> int:
    """s_lambda at an integer point with distinct coordinates, as a bialternant quotient."""
    if len(shape) > n:
        return 0
    padded = tuple(shape) + (0,) * (n - len(shape))
    alternant = int_det([[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in point])
    vandermonde = 1
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde *= point[i] - point[j]
    quotient, remainder = divmod(alternant, vandermonde)
    if remainder:
        raise ArithmeticError("bialternant quotient is not exact")
    return quotient


def hook_content(shape: tuple[int, ...], n: int) -> int:
    """s_lambda(1^n): the number of SSYT of the shape with entries 1..n."""
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0] if shape else 0)]
    numerator = denominator = 1
    for r, part in enumerate(shape):
        for c in range(part):
            numerator *= n + c - r
            denominator *= (part - c - 1) + (conjugate[c] - r - 1) + 1
    return numerator // denominator


class Oracle:
    """Expected values for one workload, precomputed at seeded points."""

    def __init__(self, ops, rng: random.Random):
        self.points: dict[int, list[tuple[int, ...]]] = {}
        self.expected: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for op in ops:
            if op.kind == "verify" or (op.shape, op.n) in self.expected:
                continue
            if op.n not in self.points:
                self.points[op.n] = [
                    tuple(rng.sample([v for v in range(-12, 13) if v], op.n))
                    for _ in range(POINTS_PER_N)
                ]
            self.expected[(op.shape, op.n)] = [
                schur_value(op.shape, op.n, point) for point in self.points[op.n]
            ]

    def _check_poly(self, op, text: str) -> int:
        terms = parse_terms(text)
        for point, want in zip(self.points[op.n], self.expected[(op.shape, op.n)]):
            if evaluate(terms, point) != want:
                raise OracleError(f"value at {point} differs from the bialternant quotient {want}")
        return len(terms)

    def check(self, op, code: int, out: str) -> int | None:
        """Raise OracleError unless the output is right; return its term count."""
        if code != 0:
            raise OracleError(f"exit code {code}")
        if op.kind == "schur":
            return self._check_poly(op, out)
        data = json.loads(out)
        if op.kind == "verify":
            if data.get("status") != "VERIFIED":
                raise OracleError(f"status {data.get('status')!r}")
            return None
        if data["systems"] != hook_content(op.shape, op.n):
            raise OracleError(f"{data['systems']} systems, expected {hook_content(op.shape, op.n)}")
        return self._check_poly(op, data["signed_sum"])
