"""Multivariate integer polynomials and bounded Diophantine search.

Polynomials are held in an exact canonical form: a graded-lexicographically
sorted tuple of (exponent tuple, coefficient) pairs over a lexicographically
ordered variable list.  Zero coefficients and variables that appear in no
term are dropped during canonicalization, so ``parse_equation(to_text(p))``
reproduces ``p`` exactly, including for the zero polynomial.

Arithmetic is exact.  Canonical coefficients and exponents must fit the
signed 64-bit range, and every term value and partial sum of an
evaluation must stay below 2^127 in magnitude; violations raise instead
of wrapping.
``evaluate`` computes one point with Python ints.  The box searches
(``min_over_box``, ``brute_force_search``) and the problem diagonal
evaluate whole slabs of the box at once with ``box_slabs``: in int64 when
sum |c| * bound^deg proves that nothing can reach 2^63, otherwise in Python
ints under the same 2^127 guard.

Equation grammar::

    equation := expr ('=' expr)?
    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := nat | ident | '(' expr ')'

Identifiers are ASCII letters followed by alphanumerics.  An ``LHS = RHS``
input is normalized to ``LHS - RHS``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "COEFFICIENT_LIMIT",
    "EVALUATION_LIMIT",
    "MAX_VARIABLES",
    "WORK_CAP",
    "ParseError",
    "CoefficientRangeError",
    "ExponentRangeError",
    "EvaluationRangeError",
    "WorkCapExceeded",
    "VariableSemantics",
    "Polynomial",
    "MinOverBox",
    "parse_equation",
    "to_text",
    "substitute_shift",
    "evaluate",
    "box_slabs",
    "brute_force_search",
    "min_over_box",
]

COEFFICIENT_LIMIT = 2**63  # exclusive bound on |coefficient|
EVALUATION_LIMIT = 2**127  # exclusive bound on |evaluation intermediate|
MAX_VARIABLES = 8
WORK_CAP = 10**8  # box enumeration budget, in evaluations


class ParseError(ValueError):
    """Equation text rejected; ``position`` is a 0-based source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CoefficientRangeError(OverflowError):
    """A canonical coefficient left the signed 64-bit range."""


class ExponentRangeError(OverflowError):
    """A canonical exponent left the signed 64-bit range."""


class EvaluationRangeError(OverflowError):
    """An evaluation intermediate left the signed 128-bit range."""


class WorkCapExceeded(RuntimeError):
    """Box enumeration would exceed the configured evaluation budget."""


class VariableSemantics(Enum):
    """Domain of the unknowns: occupation-style non-negative integers, or
    positive integers realized by shifting every variable once at build time."""

    NON_NEGATIVE = "nonnegative"
    POSITIVE = "positive"


def _graded_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exponents), exponents)


@dataclass(frozen=True)
class Polynomial:
    """Canonical multivariate polynomial with exact integer coefficients.

    ``terms`` maps each exponent tuple (one entry per variable, in
    ``variable_names`` order) to a non-zero coefficient and is sorted
    graded-lexicographically.  Two polynomials are equal iff their variable
    lists and term tuples are equal.  Instances are immutable and hashable.
    """

    variable_names: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]],
        variable_names: Sequence[str],
    ) -> "Polynomial":
        """Canonicalize a term collection: accumulate duplicates, drop zeros
        and unused variables, sort variables lexicographically.  Exponents
        and coefficients must lie below ``COEFFICIENT_LIMIT`` in magnitude."""
        names = tuple(str(n) for n in variable_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        accumulated: dict[tuple[int, ...], int] = {}
        for exponents, coefficient in items:
            e = tuple(int(x) for x in exponents)
            if len(e) != len(names):
                raise ValueError(
                    f"exponent tuple {e} does not match {len(names)} variables"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            if max(e, default=0) >= COEFFICIENT_LIMIT:
                # an exponent's digits can be more than Python converts
                raise ExponentRangeError(
                    f"{max(e).bit_length()}-bit exponent exceeds the signed "
                    "64-bit range"
                )
            accumulated[e] = accumulated.get(e, 0) + int(coefficient)
        cleaned = {e: c for e, c in accumulated.items() if c != 0}
        # canonical variable order is lexicographic; unused columns dropped
        keep = sorted(
            (i for i in range(len(names)) if any(e[i] for e in cleaned)),
            key=lambda i: names[i],
        )
        new_names = tuple(names[i] for i in keep)
        projected: dict[tuple[int, ...], int] = {}
        for e, c in cleaned.items():
            projected[tuple(e[i] for i in keep)] = c
        for e, c in projected.items():
            if abs(c) >= COEFFICIENT_LIMIT:
                raise CoefficientRangeError(
                    f"coefficient {c} of {e} exceeds the signed 64-bit range"
                )
        ordered = tuple(sorted(projected.items(), key=lambda item: _graded_key(item[0])))
        return cls(new_names, ordered)

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls.from_terms({(): int(value)}, ())

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls.from_terms({(1,): 1}, (name,))

    @property
    def num_vars(self) -> int:
        return len(self.variable_names)

    def _aligned_with(
        self, other: "Polynomial"
    ) -> tuple[tuple[str, ...], dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
        names = tuple(sorted(set(self.variable_names) | set(other.variable_names)))
        index = {name: i for i, name in enumerate(names)}

        def project(p: "Polynomial") -> dict[tuple[int, ...], int]:
            out: dict[tuple[int, ...], int] = {}
            for e, c in p.terms:
                full = [0] * len(names)
                for name, x in zip(p.variable_names, e):
                    full[index[name]] = x
                out[tuple(full)] = c
            return out

        return names, project(self), project(other)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        names, a, b = self._aligned_with(other)
        for e, c in b.items():
            a[e] = a.get(e, 0) + c
        return Polynomial.from_terms(a, names)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_terms(
            {e: -c for e, c in self.terms}, self.variable_names
        )

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = _coerce(other)
        names, a, b = self._aligned_with(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial.from_terms(out, names)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self) -> str:
        return to_text(self)


def _coerce(value: "Polynomial | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    raise TypeError(f"cannot combine polynomial with {type(value).__name__}")


def to_text(p: Polynomial) -> str:
    """Render in the equation grammar; highest graded-lex terms first."""
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for exponents, coefficient in sorted(
        p.terms, key=lambda t: _graded_key(t[0]), reverse=True
    ):
        factors: list[str] = []
        magnitude = abs(coefficient)
        if magnitude != 1 or not any(exponents):
            factors.append(str(magnitude))
        for name, e in zip(p.variable_names, exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if coefficient > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coefficient > 0 else '-'} {body}")
    return " ".join(chunks)


# -- parsing ---------------------------------------------------------------

_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        # the grammar's digits are ASCII: str.isdigit alone takes "²" and "٣"
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and source[j].isascii() and source[j].isdigit():
                j += 1
            tokens.append(("nat", source[i:j], i))
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < n and source[j].isascii() and source[j].isalnum():
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        if ch in "+-*^()=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _natural(text: str, position: int) -> int:
    """The value of a literal, or :class:`ParseError` at ``position`` when it
    has more digits than Python converts to an int."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{len(text)}-digit literal is too long", position) from None


def _at(position: int, operation, *operands) -> Polynomial:
    """``operation(*operands)``, with a coefficient or exponent out of range
    reported as a :class:`ParseError` at ``position``, the token that built
    it."""
    try:
        return operation(*operands)
    except (CoefficientRangeError, ExponentRangeError) as err:
        raise ParseError(str(err), position) from None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.seen: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expr(self) -> Polynomial:
        sign = 1
        kind, _, _ = self.peek()
        if kind in "+-":
            sign = -1 if kind == "-" else 1
            self.advance()
        result = self.term() * sign
        while True:
            kind, _, position = self.peek()
            if kind == "+":
                self.advance()
                result = _at(position, operator.add, result, self.term())
            elif kind == "-":
                self.advance()
                result = _at(position, operator.sub, result, self.term())
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek()[0] == "*":
            _, _, position = self.advance()
            result = _at(position, operator.mul, result, self.factor())
        return result

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, position = self.peek()
            if kind != "nat":
                raise ParseError(
                    "exponent must be a non-negative integer literal", position
                )
            self.advance()
            return _at(position, pow, base, _natural(text, position))
        return base

    def base(self) -> Polynomial:
        kind, text, position = self.advance()
        if kind == "nat":
            return _at(position, Polynomial.constant, _natural(text, position))
        if kind == "ident":
            if text not in self.seen:
                if len(self.seen) >= MAX_VARIABLES:
                    raise ParseError(f"more than {MAX_VARIABLES} variables", position)
                self.seen.add(text)
            return Polynomial.variable(text)
        if kind == "(":
            inner = self.expr()
            kind, _, position = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", position)
            return inner
        raise ParseError(f"expected a number, variable or '(', got {text!r}", position)


def parse_equation(source: str) -> Polynomial:
    """Parse equation text into a canonical polynomial.

    ``LHS = RHS`` is normalized to ``LHS - RHS``.  Raises :class:`ParseError`
    with a source position on malformed input, on more than
    ``MAX_VARIABLES`` distinct variables, and on a coefficient or exponent
    that leaves the signed 64-bit range; the position of a value out of
    range is that of the token that built it: the literal, the ``+``,
    ``-``, ``*`` or ``=``, or the exponent literal of a ``^``.
    """
    parser = _Parser(_tokenize(source))
    result = parser.expr()
    kind, _, position = parser.peek()
    if kind == "=":
        parser.advance()
        result = _at(position, operator.sub, result, parser.expr())
    kind, text, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {text!r}", position)
    return result


# -- evaluation and search --------------------------------------------------


def substitute_shift(p: Polynomial, semantics: VariableSemantics) -> Polynomial:
    """Map positive-integer semantics onto non-negative unknowns.

    In ``POSITIVE`` mode every variable x is replaced by x + 1 and the
    result re-expanded; ``NON_NEGATIVE`` mode returns ``p`` unchanged.
    """
    if semantics is VariableSemantics.NON_NEGATIVE:
        return p
    shifted = Polynomial.from_terms({}, ())
    for exponents, coefficient in p.terms:
        term_poly = Polynomial.constant(coefficient)
        for name, e in zip(p.variable_names, exponents):
            if e:
                term_poly = term_poly * (Polynomial.variable(name) + 1) ** e
        shifted = shifted + term_poly
    return shifted


def evaluate(p: Polynomial, point: Sequence[int]) -> int:
    """Exact value of ``p`` at a tuple of non-negative integers.

    Raises :class:`EvaluationRangeError` if any term value or partial sum
    leaves the signed 128-bit range, before taking the powers of a term
    that must leave it.
    """
    values = tuple(int(v) for v in point)
    if len(values) != p.num_vars:
        raise ValueError(f"expected {p.num_vars} values, got {len(values)}")
    if any(v < 0 for v in values):
        raise ValueError("point components must be non-negative")
    total = 0
    for exponents, coefficient in p.terms:
        _check_powers(exponents, values)
        term = coefficient
        for v, e in zip(values, exponents):
            if e:
                term *= v**e
        if abs(term) >= EVALUATION_LIMIT:
            raise EvaluationRangeError(
                f"term value {term} exceeds the signed 128-bit range"
            )
        total += term
        if abs(total) >= EVALUATION_LIMIT:
            raise EvaluationRangeError(
                f"partial sum {total} exceeds the signed 128-bit range"
            )
    return total


def _check_powers(exponents: tuple[int, ...], point: Sequence[int]) -> None:
    """Raise :class:`EvaluationRangeError` before any power is taken when the
    term of ``exponents`` reaches 2^127 at ``point``.

    A coordinate v raised to e contributes at least e * (bit_length(v) - 1)
    factors of 2, and a term with a zero factor is zero.  A term that passes
    has fewer than 64 + 2 * 127 bits, so every value that a range error
    prints has few digits.
    """
    if all(v or not e for v, e in zip(point, exponents)):
        bits = sum(e * (v.bit_length() - 1) for v, e in zip(point, exponents))
        if bits >= EVALUATION_LIMIT.bit_length() - 1:
            raise EvaluationRangeError(
                "term value exceeds the signed 128-bit range: its powers hold at "
                "least 127 factors of 2"
            )


# points per slab of the box evaluator: an int64 slab plus the term being
# built take about 1 MB
SLAB_POINTS = 1 << 16


def _check_range(values, what: str) -> None:
    values = np.asarray(values, dtype=object)
    over = np.abs(values) >= EVALUATION_LIMIT
    if np.any(over):
        raise EvaluationRangeError(
            f"{what} {values.flat[np.argmax(over)]} exceeds the signed 128-bit range"
        )


def box_slabs(p: Polynomial, bound: int) -> Iterator[tuple[int, np.ndarray]]:
    """Exact values of ``p`` over [0, bound]^k in C order (the first variable
    varies slowest), as ``(offset, values)`` slabs of at most about
    ``SLAB_POINTS`` points; ``offset`` is the C-order index of a slab's
    first point.

    A slab is a run of values of one variable times the whole box of the
    variables after it, with the variables before it held fixed.  Each term
    is a broadcast product of per-variable power tables.  The slabs are
    int64 when sum |c| * bound^deg over the terms is below 2^63, which
    bounds every power, partial product and partial sum; otherwise the same
    code runs on Python ints and raises :class:`EvaluationRangeError` where
    :func:`evaluate` would.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    k = p.num_vars
    for exponents, _ in p.terms:
        _check_powers(exponents, (bound,) * k)  # at the corner of the box
    side = bound + 1
    wide = sum(abs(c) * bound ** sum(e) for e, c in p.terms) >= 2**63
    dtype = object if wide else np.int64
    if k == 0:
        yield 0, np.array([sum(c for _, c in p.terms)], dtype=dtype)
        return
    tables: dict[int, np.ndarray] = {}

    def powers(e: int) -> np.ndarray:
        if e not in tables:
            tables[e] = np.arange(side, dtype=np.int64).astype(dtype) ** e
        return tables[e]

    tail = 0  # trailing variables that every slab covers whole
    while tail < k - 1 and side ** (tail + 1) <= SLAB_POINTS:
        tail += 1
    lead = k - 1 - tail
    chunk = max(1, SLAB_POINTS // side**tail)
    offset = 0
    for prefix in itertools.product(range(side), repeat=lead):
        for start in range(0, side, chunk):
            rows = slice(start, min(start + chunk, side))
            total = np.zeros((rows.stop - start,) + (side,) * tail, dtype=dtype)
            for exponents, coefficient in p.terms:
                term = coefficient  # a Python int until it meets an array
                for v, e in zip(prefix, exponents):
                    term *= int(powers(e)[v])
                for axis, e in enumerate(exponents[lead:]):
                    if e:
                        table = powers(e)[rows] if axis == 0 else powers(e)
                        term = term * table.reshape((-1,) + (1,) * (tail - axis))
                if wide:
                    _check_range(term, "term value")
                total += term
                if wide:
                    _check_range(total, "partial sum")
            yield offset, total.ravel()
            offset += total.size


def _min_magnitude(p: Polynomial, bound: int) -> tuple[int, tuple[int, ...], int]:
    """Smallest |p| over [0, bound]^k, its graded-lex first argmin, and how
    many box points attain it."""
    shape = (bound + 1,) * p.num_vars
    best: int | None = None
    argmin: tuple[int, ...] = ()
    multiplicity = 0
    for offset, values in box_slabs(p, bound):
        magnitudes = np.abs(values)
        low = int(magnitudes.min())
        if best is not None and low > best:
            continue
        hits = np.flatnonzero(magnitudes == low)
        point: tuple[int, ...] = ()
        if shape:
            # C order is lex order, so the first hit of least sum is the
            # slab's graded-lex first
            coordinates = np.stack(np.unravel_index(offset + hits, shape))
            point = tuple(coordinates[:, np.argmin(coordinates.sum(axis=0))].tolist())
        if best is None or low < best:
            best, argmin, multiplicity = low, point, len(hits)
        else:
            argmin = min(argmin, point, key=_graded_key)
            multiplicity += len(hits)
    assert best is not None
    return best, argmin, multiplicity


def _check_work_cap(num_vars: int, bound: int) -> None:
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if (bound + 1) ** num_vars > WORK_CAP:
        raise WorkCapExceeded(
            f"box of {(bound + 1) ** num_vars} points exceeds the work cap {WORK_CAP}"
        )


def brute_force_search(p: Polynomial, bound: int) -> tuple[int, ...] | None:
    """Graded-lex smallest zero of ``p`` in [0, bound]^k, or None.

    Deterministic; the returned witness is the unique graded-lexicographically
    first zero in the box.  The search evaluates growing cubes [0, b]^k,
    b = 1, 2, 4, ..., bound, and stops at the first cube whose graded-first
    zero has coordinate sum at most b: every point of smaller graded key
    lies in that cube.  A cube is evaluated whole, so the search raises
    :class:`EvaluationRangeError` when some point of a cube it reaches
    leaves the range, even if the zero it would return comes earlier in
    graded order.
    """
    _check_work_cap(p.num_vars, bound)
    cube = min(1, bound)
    while True:
        low, argmin, _ = _min_magnitude(p, cube)
        if low == 0 and (sum(argmin) <= cube or cube == bound):
            return argmin
        if cube == bound:
            return None
        cube = min(2 * cube, bound)


class MinOverBox(NamedTuple):
    value: int
    argmin: tuple[int, ...]
    multiplicity: int


def min_over_box(p: Polynomial, bound: int) -> MinOverBox:
    """Exact minimum of ``p(n)**2`` over [0, bound]^k.

    Returns the minimum, the graded-lex smallest argmin, and how many box
    points attain the minimum.  This is the classical oracle for the ground
    level of the squared-equation diagonal on the same box.
    """
    _check_work_cap(p.num_vars, bound)
    low, argmin, multiplicity = _min_magnitude(p, bound)
    return MinOverBox(low * low, argmin, multiplicity)
