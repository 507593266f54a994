"""Sparse polynomials over lattice supports.

A polynomial is a finite map from exponent vectors in N_0^n to float
coefficients.  Exponents are plain int tuples compared lexicographically,
which fixes the canonical term order used by serialization and by every
catalog built on top of a support set.

Dual vectors (one real value per support point) live here too, together
with the moment vector (x^alpha)_{alpha in A} induced by a point x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

#: Parse-time cap on a single exponent entry.
MAX_EXPONENT = 1 << 20


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_exponent(point: Sequence[int]) -> Exponent:
    """Coerce to an int tuple, rejecting negative or fractional entries."""
    out = []
    for e in point:
        ie = int(e)
        if ie != e or ie < 0:
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

    def index(self, point) -> int:
        return self._index[tuple(point)]  # type: ignore[attr-defined]

    def even_points(self) -> tuple[Exponent, ...]:
        return tuple(p for p in self.points if all(e % 2 == 0 for e in p))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupportSet":
        return cls.of(obj["points"], n=int(obj["n"]))


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

    def coefficient(self, point) -> float:
        return self.coefficients.get(tuple(point), 0.0)

    def evaluate(self, x: Sequence[float]) -> float:
        """Evaluate at a real point, with the convention 0**0 = 1."""
        if len(x) != self.n:
            raise ValueError(f"point has dimension {len(x)}, polynomial needs {self.n}")
        total = 0.0
        for exp, coef in self.coefficients.items():
            term = coef
            for xi, e in zip(x, exp):
                if e:
                    term *= float(xi) ** e
            total += term
        return total

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(exp), "coef": coef} for exp, coef in self.coefficients.items()],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SparsePolynomial":
        n = int(obj["n"])
        terms: dict[Exponent, float] = {}
        for t in obj["terms"]:
            exp = check_exponent(t["exp"])
            if len(exp) != n:
                raise ValueError(f"term exponent {exp} does not match n={n}")
            terms[exp] = terms.get(exp, 0.0) + float(t["coef"])
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
        vals = list(obj["values"])
        if len(pts) != len(vals):
            raise ValueError("points and values have different lengths")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in dual vector")
        support = SupportSet.of(pts, n=int(obj["n"]))
        return cls(support, dict(zip(pts, map(float, vals))))


def evaluate(p: SparsePolynomial, x: Sequence[float]) -> float:
    return p.evaluate(x)


def moment_vector(x: Sequence[float], support: SupportSet) -> DualVector:
    """The vector (x^alpha)_{alpha in A}, with 0**0 = 1."""
    if len(x) != support.n:
        raise ValueError(f"point has dimension {len(x)}, support needs {support.n}")
    values: dict[Exponent, float] = {}
    for exp in support.points:
        term = 1.0
        for xi, e in zip(x, exp):
            if e:
                term *= float(xi) ** e
        values[exp] = term
    return DualVector(support, values)


def parse_polynomial(text: str, n: int | None = None) -> SparsePolynomial:
    """Parse sums of ``coef * x<i>^<e>`` terms, e.g. ``1 + x1^2*x2^4 - 3*x1^2*x2^2``.

    Variables are named x1..xn and the dimension is the largest index seen
    unless `n` is given.  Whitespace is insignificant, '*' between factors is
    optional, and like terms merge additively.  A leading sign is accepted.
    """
    s = text
    size = len(s)
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < size and s[pos].isspace():
            pos += 1

    def scan_number() -> tuple[str, int]:
        nonlocal pos
        start = pos
        while pos < size and (
            s[pos].isdigit()
            or s[pos] == "."
            or s[pos] in "eE"
            or (s[pos] in "+-" and pos > start and s[pos - 1] in "eE")
        ):
            pos += 1
        return s[start:pos], start

    def read_coefficient() -> float:
        tok, start = scan_number()
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"bad number {tok!r}", start) from None

    def read_index() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < size and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected a variable index after 'x'", start)
        return int(s[start:pos])

    def read_exponent() -> int:
        nonlocal pos
        skip_ws()
        if pos < size and s[pos] == "-":
            raise ParseError("negative exponents are not allowed", pos)
        tok, start = scan_number()
        if not tok:
            raise ParseError("expected an exponent after '^'", pos)
        if any(ch in tok for ch in ".eE"):
            raise ParseError(f"exponent {tok!r} must be a nonnegative integer", start)
        value = int(tok)
        if value > MAX_EXPONENT:
            raise ParseError(f"exponent {value} exceeds the cap {MAX_EXPONENT}", start)
        return value

    terms: list[tuple[float, dict[int, int]]] = []
    max_index = 0
    skip_ws()
    if pos >= size:
        raise ParseError("empty polynomial", 0)
    first = True
    while True:
        skip_ws()
        if pos >= size:
            if first:
                raise ParseError("empty polynomial", pos)
            break
        sign = 1.0
        if first:
            if s[pos] in "+-":
                if s[pos] == "-":
                    sign = -1.0
                pos += 1
        else:
            if s[pos] == "+":
                pos += 1
            elif s[pos] == "-":
                sign = -1.0
                pos += 1
            else:
                raise ParseError(f"expected '+' or '-', found {s[pos]!r}", pos)
        skip_ws()
        coef: float | None = None
        powers: dict[int, int] = {}
        if pos < size and (s[pos].isdigit() or s[pos] == "."):
            coef = read_coefficient()
        while True:
            skip_ws()
            mandatory = False
            if pos < size and s[pos] == "*":
                pos += 1
                mandatory = True
                skip_ws()
            if pos < size and s[pos] in "xX":
                var_pos = pos
                pos += 1
                idx = read_index()
                if idx < 1:
                    raise ParseError("variable indices start at x1", var_pos)
                if n is not None and idx > n:
                    raise ParseError(f"variable x{idx} exceeds the declared dimension {n}", var_pos)
                exp = 1
                skip_ws()
                if pos < size and s[pos] == "^":
                    pos += 1
                    exp = read_exponent()
                powers[idx] = powers.get(idx, 0) + exp
                if powers[idx] > MAX_EXPONENT:
                    raise ParseError(f"accumulated exponent of x{idx} exceeds the cap {MAX_EXPONENT}", var_pos)
                max_index = max(max_index, idx)
            else:
                if mandatory:
                    raise ParseError("dangling '*'", pos - 1)
                break
        if coef is None and not powers:
            raise ParseError("expected a term", pos)
        terms.append((sign * (coef if coef is not None else 1.0), powers))
        first = False

    dim = max_index if n is None else n
    merged: dict[Exponent, float] = {}
    seen: set[Exponent] = set()
    for coefval, powers in terms:
        exp = tuple(powers.get(i, 0) for i in range(1, dim + 1))
        seen.add(exp)
        merged[exp] = merged.get(exp, 0.0) + coefval
    support = SupportSet(dim, tuple(seen))
    return SparsePolynomial(support, {e: c for e, c in merged.items() if c != 0.0})


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
