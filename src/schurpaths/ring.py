"""Exact sparse multivariate polynomial arithmetic over the integers.

The ring is Z[t, x1, x2, ..., y1, y2, ..., a1, a2, ...]: four variable
families with the fixed total order t < x1 < x2 < ... < y1 < y2 < ...
< a1 < a2 < ... (family first, then index ascending).  Monomials are
compared in graded-lexicographic order: higher total degree wins, and ties
are broken by the exponent of the earliest variable in the family order,
so e.g. x1^2 > x1*x2 > x2^2.

Representation.  A polynomial is a dict from a packed monomial key to a
nonzero int coefficient.  The key is one non-negative int made of 8-bit
fields: field 0 holds the total degree, field 1 the exponent of t, and
x_i, y_i, a_i sit in fields 3i-1, 3i and 3i+1, so the layout never depends
on how many variables exist.  The top bit of every field is a guard bit that
stays clear, so a monomial product is one integer addition and divisibility
is one borrow-free subtraction.  Since the degree field bounds every other
field, no field can carry as long as the total degree stays at or below
MAX_DEGREE (127); a product that could exceed it raises DegreeOverflow
before any arithmetic is done.  The packed order is not the graded-lex
order: where order matters (the largest terms and canonical text) the
fields of all keys are regrouped at once, family by family, into byte
records whose order is the graded-lex order (_grlex_records).

Coefficients are Python ints, so nothing else ever overflows.  Canonical
form is maintained everywhere: no zero coefficient is ever stored, and two
polynomials are equal iff their term maps are equal.

One inner loop forms every product (_mul_into).  add_mul(acc, p, q,
degree_cap) is acc + p*q with the products written straight into a copy of
acc's terms, the step of every running sum of products (the lgv sweeps, det,
the Newton form), and mul(p, q) is add_mul into zero; only det passes a
degree_cap (the Cauchy check's truncated series).  sum_of_products writes a
whole sum of products into one term map, with no copy per step (the Cauchy
series and the dual-Cauchy Schur sum).  Small operands take one pass.  A
one-term operand c*m multiplied uncapped into zero shifts the other
operand's keys by m and scales its coefficients by c, and nothing in it can
cancel; the power of one term multiplies its key by the exponent and powers
its coefficient; a sum and a difference, in either operand order, are one
merge (_merged) that subtracts without negating first.  The tests check each
of these against a term-by-term oracle.  Canonical text is printed with no step per term:
each column of the sorted records, and the column of coefficients, is
mapped through a table of strings into one piece list, joined once.

The work meter counts ring work: |p|*|q| units before each product (add_mul,
sum_of_products), one for each dividend term of _linear_div, and one for
each term that x_shift_sums and x_exponent_sum write.  It follows the
operands, never the clock.  work_budget(units, what) refuses, with TooLarge,
the first charge that passes `units` within its body.  The meter is
per-process state, neither per-thread nor locked; the values stay immutable
and every operation but the charge is pure, so values can be shared freely
across threads.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from functools import cache, reduce
from heapq import nlargest
from itertools import repeat
from operator import mul as _times, or_
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence


class NotDivisible(ArithmeticError):
    """exact_div was asked for a quotient that does not exist in the ring."""


class IndexUnderflow(ValueError):
    """A variable index would be shifted below 1."""


class UnassignedVariable(LookupError):
    """eval_int met a variable with no value in the assignment."""


class TooLarge(RuntimeError):
    """A computation was refused to keep desk-scale runs bounded (CLI exit code 1)."""


class DegreeOverflow(TooLarge, OverflowError):
    """A monomial of total degree above MAX_DEGREE was requested."""


# -- the work meter -------------------------------------------------------------

_spent = 0  # units charged in this process so far; it only grows
# the count past which the innermost budget refuses; with no budget, a count that no
# process reaches (an int, which compares faster than inf)
_limit = 1 << 64
_budget = ("", 0, 0)  # the innermost budget: what it bounds, the count at entry, its units


def _over_budget() -> NoReturn:
    what, start, units = _budget
    raise TooLarge(f"{what} spent {_spent - start} units of ring work, past its budget of {units}")


@contextmanager
def work_budget(units: int, what: str) -> Iterator[None]:
    """Refuse, with TooLarge naming `what`, the charge that passes `units` within the body.

    The budget ends with the body, however it ends; an inner budget replaces the outer one.
    """
    global _limit, _budget
    outer = _limit, _budget
    _limit, _budget = _spent + units, (what, _spent, units)
    try:
        yield
    finally:
        _limit, _budget = outer


class Family(IntEnum):
    """Variable families, in their fixed order."""

    T = 0
    X = 1
    Y = 2
    A = 3


_FAMILY_LETTER = {Family.T: "t", Family.X: "x", Family.Y: "y", Family.A: "a"}
_LETTER_FAMILY = {v: k for k, v in _FAMILY_LETTER.items()}
_FAMILIES = tuple(Family)

_FIELD_BITS = 8
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_DEGREE_MASK = (1 << _FIELD_BITS) - 1


@dataclass(frozen=True, order=True)
class Variable:
    """An indexed variable.  The t family has a single member, index 0."""

    family: Family
    index: int = 0

    def __post_init__(self) -> None:
        _field(self.family, self.index)  # refuses an index that names no variable

    def text(self) -> str:
        letter = _FAMILY_LETTER[self.family]
        return letter if self.family == Family.T else f"{letter}{self.index}"


def tvar() -> Variable:
    """The interpolation variable t."""
    return Variable(Family.T, 0)


def xvar(i: int) -> Variable:
    return Variable(Family.X, i)


def yvar(i: int) -> Variable:
    return Variable(Family.Y, i)


def avar(i: int) -> Variable:
    return Variable(Family.A, i)


# -- the packed layout ---------------------------------------------------------


def _field(family: Family, index: int) -> int:
    """The field that holds the exponent of variable `index` of `family`.

    Raises ValueError for an index that names no variable.
    """
    if family == Family.T:
        if index != 0:
            raise ValueError("t is a single variable; its index is fixed at 0")
        return 1
    if index < 1:
        raise ValueError(f"{family.name} indices start at 1, got {index}")
    return 3 * index + family - 2


def _variable_at(field: int) -> Variable:
    if field == 1:
        return tvar()
    index = (field + 1) // 3
    return Variable(_FAMILIES[field - 3 * index + 2], index)


def _unit(family: Family, index: int) -> int:
    """The key of the monomial made of variable `index` of `family` (degree 1)."""
    return (1 << (_FIELD_BITS * _field(family, index))) + 1


def _family_fields(family: Family, first_index: int = 1) -> slice:
    """The fields of `family` from `first_index` on, as a slice of key bytes."""
    if family == Family.T:
        return slice(1, 2)
    return slice(3 * max(first_index, 1) + family - 2, None, 3)


def _byte_length(key: int) -> int:
    return (key.bit_length() + 7) // 8


@cache
def _grlex_order(width: int) -> tuple[int, ...]:
    """The fields of `width`-byte keys in graded-lex order: degree, t, x1.., y1.., a1..

    Every comparison of monomials (the leading term and canonical text)
    reads the fields in this order.
    """
    fields = range(width)
    return (*fields[:2], *fields[2::3], *fields[3::3], *fields[4::3])


def _grlex_records(keys: Iterable[int], present: int) -> tuple[list[bytes], list[int]]:
    """The graded-lex record of each key, in the keys' order, and the fields it holds.

    `present` is the OR of the keys.  A record is the degree and then every
    field that is nonzero in `present`, in _grlex_order, one byte each; so
    two records compare as their monomials do in graded-lex order.  All keys
    are written into one buffer, each record byte is one strided slice of
    it, and one regular-expression scan cuts the result into records.
    """
    width = _byte_length(present) or 1
    top = present.to_bytes(width, "little")
    fields = [0] + [f for f in _grlex_order(width)[1:] if top[f]]
    packed = b"".join(map(int.to_bytes, keys, repeat(width), repeat("little")))
    size = len(fields)
    buffer = bytearray(len(packed) // width * size)
    for j, field in enumerate(fields):
        buffer[j::size] = packed[field::width]
    return re.findall(b"(?s).{%d}" % size, buffer), fields


@cache
def _field_text(field: int) -> str:
    """The name of the variable that `field` holds, as printed."""
    return _variable_at(field).text()


def _set_fields(present: int) -> list[int]:
    """The variable fields that are nonzero in `present` (an OR of keys), ascending.

    Each step jumps to the lowest set bit, so the cost follows the fields
    that are set, not every field up to the top one.
    """
    fields, field = [], 0
    present >>= _FIELD_BITS  # past the degree field
    while present:
        step = ((present & -present).bit_length() - 1) // _FIELD_BITS + 1
        field += step
        fields.append(field)
        present >>= step * _FIELD_BITS
    return fields


def _divides(small: int, big: int) -> bool:
    """True iff every field of `small` is at most the same field of `big`."""
    guard = int.from_bytes(b"\x80" * max(_byte_length(small), _byte_length(big)), "little")
    return ((big | guard) - small) & guard == guard


def check_degree(degree: int) -> None:
    """DegreeOverflow unless a monomial of total degree `degree` fits the packed layout."""
    if degree > MAX_DEGREE:
        raise DegreeOverflow(
            f"total degree {degree} exceeds the packed-monomial limit {MAX_DEGREE}"
        )


def _check_coefficient(coefficient) -> None:
    if type(coefficient) is bool or not isinstance(coefficient, int):
        raise TypeError(f"coefficients must be int, got {type(coefficient)!r}")


class Monomial:
    """A product of variable powers: a view over one packed key.

    Monomial(exps) takes (variable, exponent) pairs with exponents >= 1,
    strictly sorted by variable; `exps` gives them back.
    """

    __slots__ = ("_key",)

    def __init__(self, exps: Iterable[tuple[Variable, int]] = ()):
        key = 0
        degree = 0
        previous: Variable | None = None
        for variable, exponent in exps:
            if exponent < 1:
                raise ValueError(f"stored exponent on {variable.text()} must be >= 1")
            if previous is not None and not previous < variable:
                raise ValueError("exponent pairs must be strictly sorted by variable")
            previous = variable
            degree += exponent
            check_degree(degree)
            key += exponent << (_FIELD_BITS * _field(variable.family, variable.index))
        self._key = key + degree

    @classmethod
    def _of_key(cls, key: int) -> "Monomial":
        monomial = object.__new__(cls)
        monomial._key = key
        return monomial

    @staticmethod
    def of(exponents: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> "Monomial":
        """Build a monomial from (variable, exponent) data, merging duplicates."""
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        merged: dict[Variable, int] = {}
        for variable, exponent in items:
            merged[variable] = merged.get(variable, 0) + exponent
        return Monomial(sorted((v, e) for v, e in merged.items() if e))

    @property
    def exps(self) -> tuple[tuple[Variable, int], ...]:
        b = self._key.to_bytes(_byte_length(self._key), "little")
        return tuple(sorted((_variable_at(f), e) for f, e in enumerate(b) if f and e))

    def degree(self) -> int:
        return self._key & _DEGREE_MASK

    def mul(self, other: "Monomial") -> "Monomial":
        check_degree(self.degree() + other.degree())
        return Monomial._of_key(self._key + other._key)

    def divides(self, other: "Monomial") -> bool:
        """True iff self divides other, i.e. every exponent fits."""
        return _divides(self._key, other._key)

    def quotient(self, divisor: "Monomial") -> "Monomial":
        """self / divisor; the caller must know divisor divides self."""
        if not _divides(divisor._key, self._key):
            raise ValueError(f"{divisor.text()} does not divide {self.text()}")
        return Monomial._of_key(self._key - divisor._key)

    def text(self) -> str:
        if not self._key:
            return "1"
        return "*".join(v.text() + (f"^{e}" if e >= 2 else "") for v, e in self.exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Monomial({self.text()})"


class Polynomial:
    """An immutable sparse polynomial: a map from Monomial to nonzero int."""

    __slots__ = ("_terms", "_hash", "_degree")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        data: dict[int, int] = {}
        if terms:
            for monomial, coefficient in terms.items():
                _check_coefficient(coefficient)
                if not isinstance(monomial, Monomial):
                    raise TypeError(f"terms must be keyed by Monomial, got {type(monomial)!r}")
                if coefficient != 0:
                    data[monomial._key] = coefficient
        self._terms = data
        self._hash: int | None = None
        self._degree: int | None = None

    @classmethod
    def _of(cls, terms: dict[int, int], degree: int | None = None) -> "Polynomial":
        """Wrap a packed term map that is already canonical (no zero values).

        `degree`, when given, must be the exact total degree.
        """
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        p._degree = degree
        return p

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of({}, -1)

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._of({0: 1}, 0)

    @classmethod
    def const(cls, value: int) -> "Polynomial":
        _check_coefficient(value)
        return cls._of({0: value} if value else {})

    @classmethod
    def variable(cls, v: Variable) -> "Polynomial":
        return cls._of({_unit(v.family, v.index): 1}, 1)

    @classmethod
    def term(cls, monomial: Monomial, coefficient: int = 1) -> "Polynomial":
        _check_coefficient(coefficient)
        return cls._of({monomial._key: coefficient} if coefficient else {})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> dict[Monomial, int]:
        """A copy of the term map (monomial -> nonzero coefficient)."""
        return {Monomial._of_key(k): c for k, c in self._terms.items()}

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return ((Monomial._of_key(k), c) for k, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial (reporting convention)."""
        if self._degree is None:
            self._degree = max((k & _DEGREE_MASK for k in self._terms), default=-1)
        return self._degree

    def leading(self) -> tuple[Monomial, int]:
        """The graded-lex leading (monomial, coefficient) pair."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.largest(1)[0]

    def largest(self, k: int) -> list[tuple[Monomial, int]]:
        """The k graded-lex largest (monomial, coefficient) pairs, largest first."""
        terms = self._terms
        records, _ = _grlex_records(terms, reduce(or_, terms, 0))
        return [(Monomial._of_key(key), terms[key]) for _, key in nlargest(k, zip(records, terms))]

    def variables(self) -> set[Variable]:
        return {_variable_at(f) for f in _set_fields(reduce(or_, self._terms, 0))}

    def coefficient(self, monomial: Monomial) -> int:
        return self._terms.get(monomial._key, 0)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Polynomial.const(value)
        return NotImplemented

    def _merged(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, for sign 1 or -1, merged into one copy of self's terms."""
        merged = dict(self._terms)
        cancelled = False
        for key, coefficient in other._terms.items():
            total = merged.get(key, 0) + sign * coefficient
            if total:
                merged[key] = total
            else:
                del merged[key]
                cancelled = True
        return Polynomial._of(merged, _sum_degree(self._degree, other._degree, cancelled))

    def __add__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        return NotImplemented if other is NotImplemented else self._merged(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({k: -c for k, c in self._terms.items()}, self._degree)

    def __sub__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        return NotImplemented if other is NotImplemented else self._merged(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        return NotImplemented if other is NotImplemented else other._merged(self, -1)

    def __mul__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        if len(self._terms) == 1:  # (c*m)^e = c^e * m^e: each field times e, no carry
            (key, coefficient), = self._terms.items()
            degree = (key & _DEGREE_MASK) * exponent
            check_degree(degree)
            return Polynomial._of({key * exponent: coefficient**exponent}, degree)
        result = Polynomial.one()
        for _ in range(exponent):
            result = mul(result, self)
        return result

    def __eq__(self, other) -> bool:
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({canonical_text(self)!r})"

    def __str__(self) -> str:
        return canonical_text(self)


def _sum_degree(p: int | None, q: int | None, cancelled: bool) -> int | None:
    """The degree of a sum of two parts of degrees p and q, if known.

    The higher top part stays, and so do equal top parts if no term cancelled.
    """
    if p is None or q is None or (p == q and cancelled):
        return None
    return max(p, q)


def tpoly() -> Polynomial:
    return Polynomial.variable(tvar())


def xpoly(i: int) -> Polynomial:
    return Polynomial._of({_unit(Family.X, i): 1}, 1)


def ypoly(i: int) -> Polynomial:
    return Polynomial._of({_unit(Family.Y, i): 1}, 1)


def apoly(i: int) -> Polynomial:
    return Polynomial._of({_unit(Family.A, i): 1}, 1)


class _XUnits(dict):
    """x-index -> the key of the monomial x_index, filled in on demand."""

    def __missing__(self, index: int) -> int:
        unit = self[index] = _unit(Family.X, index)
        return unit


def x_word_sum(words: Iterable[Sequence[int]]) -> Polynomial:
    """The sum over the words of x_{w1} * x_{w2} * ..., with multiplicity.

    A word is a sequence of x-indices (>= 1); repeated letters multiply, so
    the word (1, 1, 2) contributes x1^2*x2.
    """
    unit = _XUnits().__getitem__
    out: dict[int, int] = {}
    for word in words:
        if len(word) > MAX_DEGREE:
            check_degree(len(word))
        key = sum(map(unit, word))
        out[key] = out.get(key, 0) + 1
    return Polynomial._of(out)


def x_shift_sums(
    moves: Mapping[object, Iterable[tuple[Polynomial, int]]], index: int
) -> dict[object, Polynomial]:
    """Map each target of `moves` to the sum of p * x_index^e over its (p, e) summands.

    A summand shifts every key of p by e >= 0 units of x_index, and the
    shifted terms of one target accumulate in one map.  The unit of x_index
    is read once per call.
    """
    global _spent
    unit = _unit(Family.X, index)
    sums: dict[object, Polynomial] = {}
    for target, summands in moves.items():
        out: dict[int, int] = {}
        get = out.get
        top, written = -1, 0
        for p, exponent in summands:
            if exponent < 0:
                raise ValueError(f"x{index} exponents must be non-negative, got {exponent}")
            if not p._terms:
                continue
            written += len(p._terms)
            degree = p.degree() + exponent
            if degree > top:
                check_degree(degree)
                top = degree
            shift = exponent * unit
            for key, coefficient in p._terms.items():
                key += shift
                out[key] = get(key, 0) + coefficient
        _spent += written
        if _spent > _limit:
            _over_budget()
        if 0 in out.values():
            sums[target] = Polynomial._of({k: c for k, c in out.items() if c})
        else:  # nothing cancelled, so the top degree stays
            sums[target] = Polynomial._of(out, top)
    return sums


def x_exponent_sum(groups: Iterable[tuple[Polynomial, Iterable[Sequence[int]]]]) -> Polynomial:
    """The sum over the groups (c, vectors) of c * x1^e1 * x2^e2 * ... over each vector e.

    Exponents are non-negative.  A vector's key is its dot product with the
    keys of x1, x2, ..., and each term of c shifts it by that term's key;
    equal products add up.  Raises DegreeOverflow before packing a product
    of degree above MAX_DEGREE.
    """
    global _spent
    units: list[int] = []
    out: dict[int, int] = {}
    get = out.get
    for c, vectors in groups:
        vectors = list(vectors)
        if not c._terms or not vectors:
            continue
        _spent += len(c._terms) * len(vectors)
        if _spent > _limit:
            _over_budget()
        check_degree(max(map(sum, vectors)) + c.degree())
        width = max(map(len, vectors))
        units += (_unit(Family.X, index) for index in range(len(units) + 1, width + 1))
        keys = list(map(sum, map(map, repeat(_times), vectors, repeat(units))))
        for shift, coefficient in c._terms.items():
            for key in keys:
                key += shift
                out[key] = get(key, 0) + coefficient
    return Polynomial._of({k: c for k, c in out.items() if c})


_ZERO = Polynomial.zero()  # the accumulator of mul


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of p and q: add_mul into the zero polynomial; DegreeOverflow as there."""
    return add_mul(_ZERO, p, q)


def add_mul(
    acc: Polynomial, p: Polynomial, q: Polynomial, degree_cap: int | None = None
) -> Polynomial:
    """acc + p*q, the products written straight into a copy of acc's terms.

    The one product kernel: mul is add_mul into zero, and every running sum
    of products (the lgv sweeps, det, the Newton form) steps through it.
    With degree_cap (det's truncated power-series ring), every product of
    total degree > degree_cap is discarded.  Raises DegreeOverflow when a
    kept product could exceed MAX_DEGREE.  Uncapped and into an empty
    acc, a one-term operand c*m takes one pass: it shifts the other operand's
    keys by m and scales its coefficients by c; distinct keys stay distinct
    and c is nonzero, so nothing cancels.
    """
    global _spent
    if not p._terms or not q._terms:
        return acc
    _spent += len(p._terms) * len(q._terms)
    if _spent > _limit:
        _over_budget()
    top = p.degree() + q.degree()
    capped = degree_cap is not None and degree_cap < top
    check_degree(degree_cap if capped else top)
    if len(p._terms) > len(q._terms):
        p, q = q, p
    if not acc._terms and len(p._terms) == 1 and not capped:
        (shift, scale), = p._terms.items()
        return Polynomial._of({shift + k: scale * c for k, c in q._terms.items()}, top)
    out = dict(acc._terms)
    _mul_into(out, p, q, degree_cap if capped else None)
    cancelled = 0 in out.values()
    if cancelled:
        out = {k: c for k, c in out.items() if c}
    # Z[...] has no zero divisors, so the top-degree parts of p*q never cancel
    return Polynomial._of(out, None if capped else _sum_degree(acc._degree, top, cancelled))


def sum_of_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p*q over `pairs`, every product written into one term map.

    A running sum through add_mul copies its accumulator at each step; this
    copies nothing, and the map is rebuilt only if some term cancelled.
    Raises DegreeOverflow, as add_mul does, before forming a product that
    could exceed MAX_DEGREE.
    """
    global _spent
    out: dict[int, int] = {}
    for p, q in pairs:
        if p._terms and q._terms:
            _spent += len(p._terms) * len(q._terms)
            if _spent > _limit:
                _over_budget()
            check_degree(p.degree() + q.degree())
            if len(p._terms) > len(q._terms):
                p, q = q, p
            _mul_into(out, p, q, None)
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return Polynomial._of(out)


def _mul_into(out: dict[int, int], p: Polynomial, q: Polynomial, degree_cap: int | None) -> None:
    """Add every product of a term of p and a term of q into the term map `out`.

    Products of total degree > degree_cap are skipped; zero sums stay in out.
    Every field of a sum of two stored keys is at most 2 * MAX_DEGREE, which
    still fits its 8 bits, so a skipped product never carried.
    """
    get = out.get
    inner = list(q._terms.items()) if len(p._terms) > 1 else q._terms.items()
    if degree_cap is None:
        for k1, c1 in p._terms.items():
            for k2, c2 in inner:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    else:
        for k1, c1 in p._terms.items():
            for k2, c2 in inner:
                k = k1 + k2
                if k & _DEGREE_MASK <= degree_cap:
                    out[k] = get(k, 0) + c1 * c2


def truncate(p: Polynomial, degree_cap: int) -> Polynomial:
    """Drop every term of total degree > degree_cap.

    Truncation is the quotient map onto the degree-capped ring, so applying
    it after full arithmetic agrees with doing all arithmetic capped.
    """
    return Polynomial._of(
        {k: c for k, c in p._terms.items() if k & _DEGREE_MASK <= degree_cap}
    )


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """The exact quotient q with q*d = p.

    A divisor u - v of two distinct variables (coefficients +1 and -1, in
    either order) is divided out in one pass by synthetic division (see
    _linear_div); every division the package makes is of this kind.  Every
    other divisor goes through textbook long division: cancel the graded-lex
    leading term of the remainder against the leading term of d until the
    remainder is zero.  Each step finds the leading term by a scan, so this
    path is quadratic in the dividend's size, which no caller pays.  Both
    raise NotDivisible when p is no multiple of d, which signals either a bug
    or a false identity; long division raises as soon as a leading term
    fails to divide (monomial or integer coefficient).
    """
    if not d._terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p._terms:
        return Polynomial.zero()
    if len(d._terms) == 2 and sorted(d._terms.values()) == [-1, 1]:
        (u, cu), (v, _) = d._terms.items()
        if u & _DEGREE_MASK == v & _DEGREE_MASK == 1:  # both are single variables
            return _linear_div(p, u, v) if cu == 1 else _linear_div(p, v, u)
    lead, lead_coeff = d.leading()
    remainder, quotient = p, {}
    while remainder._terms:
        monomial, coeff = remainder.leading()
        if not lead.divides(monomial) or coeff % lead_coeff:
            raise NotDivisible(
                f"leading term {coeff}*{monomial.text()} is not divisible by "
                f"{lead_coeff}*{lead.text()}"
            )
        term = Polynomial.term(monomial.quotient(lead), coeff // lead_coeff)
        quotient.update(term._terms)
        remainder = add_mul(remainder, -term, d)
    return Polynomial._of(quotient, p.degree() - d.degree())


def _linear_div(p: Polynomial, u: int, v: int) -> Polynomial:
    """p / (u - v), where u and v are the keys of two distinct variables.

    Synthetic division: write each term of p as c_a * r * u^a * v^(s-a), with
    r free of u and v.  Moving u's exponent onto v gives the key of r * v^s,
    which names the term's group.  Within a group, the quotient coefficient
    of r * u^(a-1) * v^(s-a) is the running sum c_s + ... + c_a, and p is a
    multiple of u - v iff every group's sum c_s + ... + c_0 is zero.
    """
    global _spent
    _spent += len(p._terms)
    if _spent > _limit:
        _over_budget()
    step = u - v  # moves one exponent from v's field to u's
    shift_u = (u - 1).bit_length() - 1
    groups: dict[int, dict[int, int]] = {}
    for key, coefficient in p._terms.items():
        a = key >> shift_u & _DEGREE_MASK
        group = key - a * step
        column = groups.get(group)
        if column is None:
            groups[group] = {a: coefficient}
        else:
            column[a] = coefficient
    quotient: dict[int, int] = {}
    for group, column in groups.items():
        base = group - u  # the quotient key for a, less a * step
        running = 0
        for a in range(max(column), 0, -1):
            running += column.get(a, 0)
            if running:
                quotient[base + a * step] = running
        running += column.get(0, 0)
        if running:
            raise NotDivisible(
                f"dividing by {Monomial._of_key(u).text()} - {Monomial._of_key(v).text()} "
                f"leaves the remainder term {running}*{Monomial._of_key(group).text()}"
            )
    return Polynomial._of(quotient, p.degree() - 1)


def _family_mask(family: Family, first_index: int, width: int) -> int:
    """All bits of the fields of `family` from `first_index` on, within width bytes."""
    fields = _family_fields(family, first_index)
    b = bytearray(width)
    b[fields] = b"\xff" * len(range(width)[fields])
    return int.from_bytes(b, "little")


def coefficients(p: Polynomial, v: Variable) -> list[Polynomial]:
    """[v^e] p for e = 0 up to the top exponent of v in p, so p = sum of entry e times v^e."""
    unit, shift = _unit(v.family, v.index), _FIELD_BITS * _field(v.family, v.index)
    parts: list[dict[int, int]] = []
    for key, coefficient in p._terms.items():
        exponent = key >> shift & _DEGREE_MASK
        parts += ({} for _ in range(exponent + 1 - len(parts)))
        parts[exponent][key - exponent * unit] = coefficient
    return [Polynomial._of(part) for part in parts]


def substitute_zero(p: Polynomial, family: Family, from_index: int) -> Polynomial:
    """Set every variable of `family` with index >= from_index to zero.

    Every term containing such a variable is removed.
    """
    if family == Family.T:
        raise ValueError("substitute_zero applies to the X, Y and A families only")
    if not p._terms:
        return p
    mask = _family_mask(family, from_index, _byte_length(max(p._terms)))
    return Polynomial._of({k: c for k, c in p._terms.items() if not k & mask})


def substitute_family(
    p: Polynomial, family: Family, target_family: Family, index_shift: int
) -> Polynomial:
    """Rename every variable (family, k) to (target_family, k + index_shift).

    Other families are untouched.  Raises IndexUnderflow if any shifted index
    falls below 1.  Renaming may merge exponents with variables already
    present in a term (e.g. when x-variables land on existing a-variables).
    """
    if family == Family.T or target_family == Family.T:
        raise ValueError("substitute_family applies to the X, Y and A families only")
    if (family == target_family and index_shift == 0) or not p._terms:
        return p
    width = _byte_length(max(p._terms))
    moved = _family_mask(family, 1, width)
    lost = reduce(or_, p._terms) & moved & ~_family_mask(family, 1 - index_shift, width)
    if lost:
        first = ((lost & -lost).bit_length() - 1) // _FIELD_BITS  # the lowest such field
        raise IndexUnderflow(
            f"{_variable_at(first).text()} shifted by {index_shift} leaves the index range"
        )
    # the renaming moves every field of the family by the same distance
    shift = _FIELD_BITS * (3 * index_shift + target_family - family)
    out: dict[int, int] = {}
    for key, coefficient in p._terms.items():
        part = key & moved
        renamed = key - part + (part << shift if shift >= 0 else part >> -shift)
        total = out.get(renamed, 0) + coefficient
        if total:
            out[renamed] = total
        else:
            del out[renamed]
    return Polynomial._of(out)


def eval_int(p: Polynomial, assignment: Mapping[Variable, int]) -> int:
    """Exact integer value of p at an integer point.

    The assignment must cover every variable occurring in p; a missing
    variable raises UnassignedVariable naming it.
    """
    if not p._terms:
        return 0
    present = reduce(or_, p._terms)
    width = _byte_length(present)
    top = present.to_bytes(width, "little")  # top[f] bounds every exponent in field f
    powers: dict[int, list[int]] = {}
    for variable, value in assignment.items():
        field = _field(variable.family, variable.index)
        if field < width and top[field]:
            powers[field] = [value**e for e in range(top[field] + 1)]
    for field in _set_fields(present):
        if field not in powers:
            raise UnassignedVariable(f"no value assigned to {_variable_at(field).text()}")
    tables = list(powers.items())
    total = 0
    for key, coefficient in p._terms.items():
        b = key.to_bytes(width, "little")
        for field, table in tables:
            coefficient *= table[b[field]]
        total += coefficient
    return total


def canonical_text(p: Polynomial) -> str:
    """Deterministic text form; terms in descending graded-lex order.

    Grammar: poly := "0" | term (" + " term | " - " term)*, with the sign of
    the leading term absorbed into an optional leading "-".  A term's integer
    coefficient is omitted when |coeff| = 1 and at least one variable factor
    exists; exponents appear only when >= 2.

    No Python statement runs once per term.  The graded-lex records of the
    keys (_grlex_records) are sorted and joined into one buffer, in which
    record byte j of every term is one stride.  The text is one piece list
    with a slot for each record byte.  The degree slots take the signs and
    coefficients (" - 12", " + 1"), mapped through a table over the distinct
    coefficients.  Each variable's slots take its factor strings ("", "*x3",
    "*x3^2", ...), mapped from its stride through a table that ends at its
    byte of the OR of all keys.  The list is joined once, and one replace of
    " 1*" drops each unit coefficient with its "*": no other coefficient
    prints a space, a lone 1 and a "*" in a row, and the constant term has
    no "*".
    """
    terms = p._terms
    present = reduce(or_, terms, 0)
    if not present:  # zero or a constant
        return str(terms.get(0, 0))
    records, fields = _grlex_records(terms, present)
    coefficient_of = dict(zip(records, terms.values()))
    records.sort(reverse=True)
    ordered = b"".join(records)
    size = len(fields)
    signed = {c: (" - " if c < 0 else " + ") + str(abs(c)) for c in set(terms.values())}
    pieces = [""] * len(ordered)
    pieces[::size] = map(signed.__getitem__, map(coefficient_of.__getitem__, records))
    for j, field in enumerate(fields[1:], 1):
        name, top = _field_text(field), present >> _FIELD_BITS * field & _DEGREE_MASK
        factors = ["", f"*{name}"] + [f"*{name}^{e}" for e in range(2, top + 1)]
        pieces[j::size] = map(factors.__getitem__, ordered[j::size])
    text = "".join(pieces).replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]


_TERM_SEP_RE = re.compile(r" ([+-]) ")
_FACTOR_RE = re.compile(r"(t|[xya])([1-9][0-9]*)?(?:\^([0-9]+))?")


def parse_poly(text: str) -> Polynomial:
    """Parse the canonical text form; inverse of canonical_text.

    Only canonical text is accepted: anything that canonical_text would
    print differently (term order, merged terms, a coefficient 1, a leading
    zero, an exponent 1, ...) raises ValueError naming the canonical form.
    """
    pieces = _TERM_SEP_RE.split(text[1:] if text.startswith("-") else text)
    signs = [-1 if text.startswith("-") else 1] + [1 if op == "+" else -1 for op in pieces[1::2]]
    accumulated: dict[Monomial, int] = {}
    for sign, chunk in zip(signs, pieces[::2]):
        factors = chunk.split("*")
        coefficient = int(factors.pop(0)) if factors[0].isdigit() else 1
        pairs = []
        for factor in factors:
            match = _FACTOR_RE.fullmatch(factor)
            if not match or (match[1] == "t") == bool(match[2]):
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            family = _LETTER_FAMILY[match[1]]
            pairs.append((Variable(family, int(match[2] or 0)), int(match[3] or 1)))
        monomial = Monomial.of(pairs)
        accumulated[monomial] = accumulated.get(monomial, 0) + sign * coefficient
    result = Polynomial(accumulated)
    canonical = canonical_text(result)
    if canonical != text:
        raise ValueError(f"{text!r} is not canonical; its canonical form is {canonical!r}")
    return result
