"""Sparse polynomials over lattice supports.

A polynomial is a finite map from exponent vectors in N_0^n to float
coefficients.  Exponents are plain int tuples compared lexicographically,
which fixes the canonical term order used by serialization and by every
catalog built on top of a support set.

Dual vectors (one real value per support point) live here too, together
with the moment vector (x^alpha)_{alpha in A} induced by a point x.

Evaluation, moment vectors and the value, gradient and Hessian at a
point share one monomial kernel, so p(x) is, to the bit, the pairing of p
with the moment vector of x, and the value the descent reads.  One
overflow rule holds: polynomial arithmetic never raises or warns on
overflow (a power beyond the float range enters as +-inf, so a value may
come back non-finite), and a non-finite moment vector is a ValueError,
raised by DualVector like any other non-finite dual value.

Text is a token grammar: one regular expression splits it into numbers,
variables with their index and single characters, and one pass over the
tokens builds the signed terms, raising each error at its token.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

#: Cap on a single exponent entry of a polynomial read from text or JSON;
#: past 2**53 a float power would lose the exponent's parity.
MAX_EXPONENT = 1 << 20

#: Parse-time cap on the number of variables: the descent holds an n x n
#: Hessian, so a text like ``x1000000`` would ask for terabytes.  Sparse SONC
#: inputs have a handful of variables; 64 keeps that state at a few MB.
MAX_VARIABLES = 64


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def read_number(value, what: str, kind: type = float):
    """kind(value) for a real number.  A string, a boolean or a fraction read
    as int is bad input, not what float() or int() makes of it ("11" as 11,
    true or 1.7 as 1), and so is a value beyond kind's range (int(inf))."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number for {what}, got {value!r}")
    try:
        out = kind(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None
    if kind is int and out != value:
        raise ValueError(f"expected an integer for {what}, got {value!r}")
    return out


def check_exponent(point: Sequence[int]) -> Exponent:
    """Coerce to an int tuple, rejecting negative, fractional, non-finite or non-numeric entries."""
    out = []
    for e in point:
        # Ints, nearly every entry, pass as they are.
        ie = e if type(e) is int else read_number(e, "exponent entries", int)
        if ie < 0:
            raise ValueError(f"exponent entries must be nonnegative integers, got {tuple(point)!r}")
        out.append(ie)
    return tuple(out)


@dataclass(frozen=True)
class SupportSet:
    """A nonempty finite set of exponent vectors, kept sorted lexicographically."""

    n: int
    points: tuple[Exponent, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted({check_exponent(p) for p in self.points}))
        if not pts:
            raise ValueError("support set must be nonempty")
        for p in pts:
            if len(p) != self.n:
                raise ValueError(f"support point {p} has dimension {len(p)}, expected {self.n}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})

    @classmethod
    def of(cls, points: Iterable[Sequence[int]], n: int | None = None) -> "SupportSet":
        pts = [check_exponent(p) for p in points]
        if n is None:
            if not pts:
                raise ValueError("cannot infer the dimension of an empty support")
            n = len(pts[0])
        return cls(n, tuple(pts))

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point) -> bool:
        return tuple(point) in self._index  # type: ignore[attr-defined]

    def even_points(self) -> tuple[Exponent, ...]:
        return tuple(p for p in self.points if all(e % 2 == 0 for e in p))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupportSet":
        return cls.of(obj["points"], n=read_number(obj["n"], "dimension", int))


@dataclass(frozen=True)
class SparsePolynomial:
    """A sum of coef * x^alpha terms over an explicit support.

    The support may strictly contain the set of exponents with nonzero
    coefficients (terms that cancel during parsing keep their slot).
    """

    support: SupportSet
    coefficients: Mapping[Exponent, float]

    def __post_init__(self) -> None:
        coeffs: dict[Exponent, float] = {}
        for p in sorted(check_exponent(q) for q in self.coefficients):
            c = float(self.coefficients[p])
            if not math.isfinite(c):
                raise ValueError(f"coefficient at {p} is not finite")
            if p not in self.support:
                raise ValueError(f"coefficient exponent {p} lies outside the support")
            if c != 0.0:
                coeffs[p] = c
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return self.support.n

    @classmethod
    def from_terms(cls, terms: Mapping[Sequence[int], float], n: int | None = None) -> "SparsePolynomial":
        """Build from an exponent -> coefficient map (keys already unique)."""
        pts = {check_exponent(p): float(c) for p, c in terms.items()}
        if n is None:
            if not pts:
                raise ValueError("cannot infer the dimension of an empty term map")
            n = len(next(iter(pts)))
        support = SupportSet(n, tuple(pts) if pts else ((0,) * n,))
        return cls(support, pts)

    def evaluate(self, x: Sequence[float]) -> float:
        """Evaluate at a real point, with the convention 0**0 = 1; +-inf or
        nan when a term leaves the float range.  Terms are coef * x^exp,
        added left to right: the pairing with the moment vector of x."""
        xs = _point(x, self.n)
        total = 0.0
        for exp, coef in self.coefficients.items():  # not sum(): its float rounding changed in 3.12
            total += coef * _monomial(xs, exp)
        return total

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(exp), "coef": coef} for exp, coef in self.coefficients.items()],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SparsePolynomial":
        n = read_number(obj["n"], "dimension", int)
        if not 0 <= n <= MAX_VARIABLES:
            raise ValueError(f"dimension {n} outside 0..{MAX_VARIABLES}")
        terms: dict[Exponent, float] = {}
        for t in obj["terms"]:
            exp = check_exponent(t["exp"])
            if len(exp) != n:
                raise ValueError(f"term exponent {exp} does not match n={n}")
            if max(exp, default=0) > MAX_EXPONENT:
                raise ValueError(f"exponent {max(exp)} exceeds the cap {MAX_EXPONENT}")
            terms[exp] = terms.get(exp, 0.0) + read_number(t["coef"], "coefficients")
        return cls.from_terms(terms, n=n)


@dataclass(frozen=True)
class DualVector:
    """One real value per support point, keys exactly equal to the support."""

    support: SupportSet
    values: Mapping[Exponent, float]

    def __post_init__(self) -> None:
        vals: dict[Exponent, float] = {}
        given = {check_exponent(p): float(v) for p, v in self.values.items()}
        for p in self.support.points:
            if p not in given:
                raise ValueError(f"missing dual value at {p}")
            vals[p] = given[p]
        if len(given) != len(vals):
            raise ValueError("dual values keyed outside the support")
        if not all(math.isfinite(x) for x in vals.values()):
            raise ValueError("dual values must be finite")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, point) -> float:
        return self.values[tuple(point)]

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self.values[p] for p in self.support.points)

    def to_json_dict(self) -> dict:
        return {
            "n": self.support.n,
            "points": [list(p) for p in self.support.points],
            "values": [self.values[p] for p in self.support.points],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DualVector":
        pts = [check_exponent(p) for p in obj["points"]]
        vals = [read_number(x, "dual values") for x in obj["values"]]
        if len(pts) != len(vals):
            raise ValueError("points and values have different lengths")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in dual vector")
        support = SupportSet.of(pts, n=read_number(obj["n"], "dimension", int))
        return cls(support, dict(zip(pts, vals)))


def _point(x: Sequence[float], n: int) -> list[float]:
    if len(x) != n:
        raise ValueError(f"point has dimension {len(x)}, expected {n}")
    return [float(xi) for xi in x]


def _monomial(x: list[float], exp: Exponent) -> float:
    """prod_i x_i**e_i, multiplied left to right over the e_i != 0 (so 0**0
    = 1).  A power beyond the float range enters as +-inf: this never
    raises."""
    value = 1.0
    for xi, e in zip(x, exp):
        if e:
            try:
                value *= xi**e
            except OverflowError:
                value *= -math.inf if xi < 0.0 and e % 2 else math.inf
    return value


def value_gradient_hessian(p: SparsePolynomial, x: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
    """p(x), bit for bit as `evaluate`, its gradient (n,) and its Hessian
    (n, n) at x, under `evaluate`'s 0**0 and overflow rules.  d/dx_i of
    c x^alpha is (c alpha_i) x^(alpha - e_i), and so on; each is added in
    term order, only where its factor is nonzero, so a zero derivative
    stays exactly 0 next to overflowing powers."""
    n = p.n
    xs = _point(x, n)
    value = 0.0
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for alpha, coef in p.coefficients.items():
        value += coef * _monomial(xs, alpha)
        for i in range(n):
            if alpha[i]:
                once = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                grad[i] += coef * alpha[i] * _monomial(xs, once)
                for j in range(n):
                    if once[j]:
                        twice = once[:j] + (once[j] - 1,) + once[j + 1 :]
                        hess[i][j] += coef * (alpha[i] * once[j]) * _monomial(xs, twice)
    return value, np.array(grad), np.array(hess).reshape(n, n)


def moment_vector(x: Sequence[float], support: SupportSet) -> DualVector:
    """The vector (x^alpha)_{alpha in A}, with 0**0 = 1; a ValueError when
    a moment leaves the float range."""
    xs = _point(x, support.n)
    return DualVector(support, {exp: _monomial(xs, exp) for exp in support.points})


#: A token after optional whitespace (group 1): a number (group 2: a digit or
#: '.', then digits, '.', and 'e' or 'E' with an optional sign), a variable
#: with its index (group 3, empty when missing), any other character, or the
#: empty token ending the text.  Digits are Unicode decimals, as int() reads.
_TOKEN = re.compile(r"\s*(([\d.](?:[\d.]|[eE][+-]?)*)|[xX]\s*(\d*)|\S|\Z)")


def _significant(digits: str) -> str:
    """digits from its first nonzero digit on ("0" when all are zero), so a
    value's length bounds it before int() reads it: int() refuses strings
    of more than 4300 digits, leading zeros included."""
    return digits[next((k for k, c in enumerate(digits) if int(c)), len(digits) - 1) :]


def parse_polynomial(text: str, n: int | None = None) -> SparsePolynomial:
    """Parse sums of ``coef * x<i>^<e>`` terms, e.g. ``1 + x1^2*x2^4 - 3*x1^2*x2^2``.

    Variables are named x1..xn and the dimension is the largest index seen
    unless `n` is given.  Whitespace is insignificant, '*' between factors is
    optional, and like terms merge additively.  A leading sign is accepted.
    """
    if n is not None and not 0 <= n <= MAX_VARIABLES:
        raise ValueError(f"dimension {n} outside 0..{MAX_VARIABLES}")
    terms: list[tuple[float, list[list[int]]]] = []
    coef, factors = 1.0, []  # the current term; a factor is [index, exponent, position]
    # The previous token: "start" (none), "sign", "*", "x" (a variable), "^"
    # or "term" (a coefficient or an exponent).
    after = "start"
    for m in _TOKEN.finditer(text):
        tok, number, index = m.groups()
        at = m.start(1)
        if after == "^":
            if tok == "-":
                raise ParseError("negative exponents are not allowed", at)
            if number is None:
                raise ParseError("expected an exponent after '^'", at)
            if not number.isdecimal():
                raise ParseError(f"exponent {number!r} must be a nonnegative integer", at)
            digits = _significant(number)
            if len(digits) > len(str(MAX_EXPONENT)):
                raise ParseError(f"exponent of {len(digits)} digits exceeds the cap {MAX_EXPONENT}", at)
            factors[-1][1] = e = int(digits)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the cap {MAX_EXPONENT}", at)
            after = "term"
        elif index is not None:
            if not index:
                raise ParseError("expected a variable index after 'x'", m.start(3))
            digits = _significant(index)
            if len(digits) > len(str(MAX_VARIABLES)):
                raise ParseError(f"variable index of {len(digits)} digits exceeds the cap x{MAX_VARIABLES}", at)
            i = int(digits)
            if i < 1:
                raise ParseError("variable indices start at x1", at)
            if i > MAX_VARIABLES:
                raise ParseError(f"variable x{i} exceeds the cap x{MAX_VARIABLES}", at)
            if n is not None and i > n:
                raise ParseError(f"variable x{i} exceeds the declared dimension {n}", at)
            factors.append([i, 1, at])
            after = "x"
        elif tok == "^" and after == "x":
            after = "^"
        elif tok == "*" and after != "*":
            star, after = at, "*"
        elif tok in ("+", "-") and after in ("start", "x", "term"):
            if after != "start":
                terms.append((coef, factors))
            coef, factors, after = (-1.0 if tok == "-" else 1.0), [], "sign"
        elif number is not None and after in ("start", "sign"):
            try:
                value = float(number)
            except ValueError:
                raise ParseError(f"bad number {number!r}", at) from None
            if math.isinf(value):
                raise ParseError(f"number {number!r} is beyond the float range", at)
            coef *= value
            after = "term"
        elif not tok and after in ("x", "term"):  # the end of the text
            terms.append((coef, factors))
            break
        elif after == "*":
            raise ParseError("dangling '*'", star)
        elif after in ("x", "term"):
            raise ParseError(f"expected '+' or '-', found {tok!r}", at)
        else:
            raise ParseError("empty polynomial" if not tok and after == "start" else "expected a term", at)

    dim = max((i for _, fs in terms for i, _, _ in fs), default=0) if n is None else n
    merged: dict[Exponent, float] = {}
    for c, term_factors in terms:
        powers = [0] * dim
        for i, e, at in term_factors:
            powers[i - 1] += e
            if powers[i - 1] > MAX_EXPONENT:
                raise ParseError(f"accumulated exponent of x{i} exceeds the cap {MAX_EXPONENT}", at)
        exp = tuple(powers)
        merged[exp] = merged.get(exp, 0.0) + c
    return SparsePolynomial(SupportSet(dim, tuple(merged)), merged)  # a sum that cancels keeps its slot


def _format_coefficient(c: float) -> str:
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def serialize_polynomial(p: SparsePolynomial) -> str:
    """Canonical text form: terms in lexicographic exponent order."""
    items = list(p.coefficients.items())
    if not items:
        return "0"
    parts = []
    for i, (exp, coef) in enumerate(items):
        mag = _format_coefficient(abs(coef))
        factors = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exp) if e]
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = mag + "*" + "*".join(factors)
        if i == 0:
            parts.append(("-" if coef < 0 else "") + body)
        else:
            parts.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(parts)
