"""Circuits over a lattice support: exact barycentric coordinates, circuit
numbers, and exhaustive catalog enumeration.

A circuit is a set of affinely independent all-even lattice points (the
vertices) together with one more lattice point lying in the relative
interior of their convex hull.  Barycentric coordinates of the inner point
are computed in exact rational arithmetic, so strict positivity (and hence
relative-interior membership) never depends on a float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .polynomials import Exponent, SupportSet, check_exponent


class AffinelyDependentError(ValueError):
    """Vertex set is affinely dependent where independence is required."""


class SupportTooLargeError(ValueError):
    """Even-point count exceeds the enumeration cap."""


def is_even_point(point: Sequence[int]) -> bool:
    return all(e % 2 == 0 for e in point)


def barycentric_coordinates(vertices: Sequence[Exponent], beta: Sequence[int]) -> list[Fraction] | None:
    """Exact weights mu > 0 with sum(mu) = 1 and sum(mu_i * v_i) = beta.

    Returns None when beta is not in the relative interior of the convex
    hull (on the boundary, or outside the affine hull).  Raises
    AffinelyDependentError when the vertices are affinely dependent.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    k = len(vertices)
    n = len(vertices[0])
    if any(len(v) != n for v in vertices) or len(beta) != n:
        raise ValueError("dimension mismatch between vertices and inner point")
    rows = [[Fraction(1)] * k + [Fraction(1)]]
    for t in range(n):
        rows.append([Fraction(v[t]) for v in vertices] + [Fraction(beta[t])])
    # Gauss-Jordan over the rationals; every column must get a pivot.
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            raise AffinelyDependentError(f"vertices {tuple(vertices)} are affinely dependent")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    for i in range(r, len(rows)):
        if rows[i][k] != 0:
            return None  # beta outside the affine hull
    mu = [rows[i][k] for i in range(k)]
    if any(m <= 0 for m in mu):
        return None  # on the boundary or outside
    return mu


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Exact affine-independence test via rank of the lifted vectors."""
    basis: list[tuple[int, list[Fraction]]] = []
    for p in points:
        vec = [Fraction(1)] + [Fraction(x) for x in p]
        red = _reduce_against(vec, basis)
        if red is None:
            return False
        basis.append(red)
    return True


def _reduce_against(vec: list[Fraction], basis: list[tuple[int, list[Fraction]]]):
    vec = list(vec)
    for piv, row in basis:
        if vec[piv] != 0:
            f = vec[piv]
            vec = [a - f * b for a, b in zip(vec, row)]
    piv = next((i for i, a in enumerate(vec) if a != 0), None)
    if piv is None:
        return None
    inv = vec[piv]
    return piv, [a / inv for a in vec]


@dataclass(frozen=True)
class Circuit:
    """Even, affinely independent vertices with an interior lattice point.

    By convention a single-vertex circuit has inner == vertex and weight 1.
    """

    vertices: tuple[Exponent, ...]
    inner: Exponent
    barycentric: tuple[Fraction, ...]
    beta_even: bool

    def __post_init__(self) -> None:
        vertices = tuple(check_exponent(v) for v in self.vertices)
        inner = check_exponent(self.inner)
        k = len(vertices)
        n = len(inner)
        if k < 1 or k > n + 1:
            raise ValueError(f"circuit arity {k} outside 1..n+1 for n={n}")
        if any(not is_even_point(v) for v in vertices):
            raise ValueError("circuit vertices must have all-even exponents")
        mu = tuple(Fraction(m) for m in self.barycentric)
        if len(mu) != k or any(m <= 0 for m in mu) or sum(mu) != 1:
            raise ValueError("barycentric coordinates must be positive and sum to 1")
        for t in range(n):
            if sum(m * v[t] for m, v in zip(mu, vertices)) != inner[t]:
                raise ValueError("barycentric coordinates do not reproduce the inner point")
        if k == 1 and inner != vertices[0]:
            raise ValueError("a single-vertex circuit must have inner == vertex")
        if self.beta_even != is_even_point(inner):
            raise ValueError("beta_even flag inconsistent with the inner point")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "barycentric", mu)

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def n(self) -> int:
        return len(self.inner)

    @classmethod
    def make(cls, vertices: Sequence[Sequence[int]], inner: Sequence[int]) -> "Circuit":
        """Build a circuit, computing exact barycentric coordinates."""
        verts = tuple(sorted(check_exponent(v) for v in vertices))
        beta = check_exponent(inner)
        if len(verts) == 1:
            mu: list[Fraction] | None = [Fraction(1)]
            if beta != verts[0]:
                raise ValueError("a single-vertex circuit must have inner == vertex")
        else:
            mu = barycentric_coordinates(verts, beta)
            if mu is None:
                raise ValueError(f"{beta} is not in the relative interior of {verts}")
        return cls(verts, beta, tuple(mu), is_even_point(beta))

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "beta": list(self.inner),
            "mu": [str(m) for m in self.barycentric],
            "beta_even": self.beta_even,
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "Circuit":
        return cls(
            tuple(check_exponent(v) for v in obj["vertices"]),
            check_exponent(obj["beta"]),
            tuple(Fraction(m) for m in obj["mu"]),
            bool(obj["beta_even"]),
        )


def log_circuit_number(c: Sequence[float], circuit: Circuit) -> float:
    """sum_i mu_i log(c_i / mu_i), the log of the circuit number; finite
    even where the number itself exceeds the float range."""
    if len(c) != circuit.k:
        raise ValueError(f"expected {circuit.k} coefficients, got {len(c)}")
    acc = 0.0
    for ci, mi in zip(c, circuit.barycentric):
        ci = float(ci)
        if ci <= 0.0 or not math.isfinite(ci):
            raise ValueError(f"circuit coefficients must be positive and finite, got {ci}")
        mf = float(mi)
        acc += mf * (math.log(ci) - math.log(mf))
    return acc


def circuit_number(c: Sequence[float], circuit: Circuit) -> float:
    """prod_i (c_i / mu_i)^(mu_i), evaluated in the log domain."""
    return math.exp(log_circuit_number(c, circuit))


@dataclass(frozen=True, eq=False)
class ArityGroup:
    """Circuits of one arity k as arrays, for per-circuit tests vectorized
    over a catalog: m circuits in canonical order, n variables.

    `solve` maps each r with weights . r = 0 to the minimum-norm tau with
    (beta - alpha(j)) . tau = r_j for every j: on such r it acts as the
    pseudo-inverse of the matrix with rows beta - alpha(j).
    """

    index: np.ndarray  # (m,) positions in the catalog
    vertices: np.ndarray  # (m, k) indices of alpha(j) into the support's points
    inner: np.ndarray  # (m,) index of beta
    weights: np.ndarray  # (m, k) barycentric coordinates as floats
    beta_even: np.ndarray  # (m,) bool
    solve: np.ndarray  # (m, n, k)

    @property
    def k(self) -> int:
        return self.vertices.shape[1]

    @classmethod
    def of(cls, circuits: Sequence[Circuit], index: Sequence[int], position: Mapping[Exponent, int]) -> "ArityGroup":
        """Group circuits of equal arity; `position` maps a lattice point to
        its index in the value arrays the tests will read."""
        m, k, n = len(circuits), circuits[0].k, circuits[0].n
        rows = np.array(
            [[[b - a for a, b in zip(vert, c.inner)] for vert in c.vertices] for c in circuits], dtype=float
        ).reshape(m, k, n)
        solve = np.zeros((m, n, k))
        if k > 1:
            # The weights are the only dependency among the k rows and they
            # are all positive, so any k - 1 rows are independent and the
            # last one holds whenever the others do.
            solve[:, :, :-1] = np.linalg.pinv(rows[:, :-1, :])
        return cls(
            index=np.asarray(index, dtype=np.intp),
            vertices=np.array([[position[a] for a in c.vertices] for c in circuits], dtype=np.intp),
            inner=np.array([position[c.inner] for c in circuits], dtype=np.intp),
            weights=np.array([[float(mu) for mu in c.barycentric] for c in circuits]),
            beta_even=np.array([c.beta_even for c in circuits], dtype=bool),
            solve=solve,
        )


@dataclass(frozen=True)
class CircuitCatalog:
    """All circuits over a support, deduplicated by vertex set plus inner
    point and ordered by (arity, vertices, inner)."""

    support: SupportSet
    circuits: tuple[Circuit, ...]

    def __len__(self) -> int:
        return len(self.circuits)

    @cached_property
    def arity_groups(self) -> tuple[ArityGroup, ...]:
        """The circuits split by arity, in increasing arity; concatenated,
        the groups list the catalog in its canonical order.  Built on first
        use and kept with the catalog, so the enumeration cache serves it."""
        position = {p: i for i, p in enumerate(self.support.points)}
        by_arity: dict[int, list[int]] = {}
        for i, c in enumerate(self.circuits):
            by_arity.setdefault(c.k, []).append(i)
        return tuple(
            ArityGroup.of([self.circuits[i] for i in idx], idx, position) for _, idx in sorted(by_arity.items())
        )

    def to_json_dict(self) -> dict:
        return {"circuits": [c.to_json_dict() for c in self.circuits]}


@lru_cache(maxsize=256)
def enumerate_circuits(support: SupportSet, max_even_points: int = 20) -> CircuitCatalog:
    """Every circuit with vertices and inner point drawn from the support.

    Exhaustive over affinely independent even vertex subsets (grown
    incrementally against an exact echelon basis, so each extension is a
    rank-1 check) with every remaining support point tested as the inner
    point by barycentric signs.  Exponential in the even-point count, hence
    the cap.
    """
    even = [p for p in support.points if is_even_point(p)]
    if len(even) > max_even_points:
        raise SupportTooLargeError(
            f"{len(even)} even points exceed the enumeration cap {max_even_points}"
        )
    n = support.n
    found: list[Circuit] = [Circuit.make((e,), e) for e in even]

    def grow(start: int, chosen: list[Exponent], basis: list) -> None:
        if len(chosen) >= 2:
            verts = tuple(chosen)
            taken = set(verts)
            for beta in support.points:
                if beta in taken:
                    continue
                mu = barycentric_coordinates(verts, beta)
                if mu is not None:
                    found.append(Circuit(verts, beta, tuple(mu), is_even_point(beta)))
        if len(chosen) == n + 1:
            return
        for i in range(start, len(even)):
            vec = [Fraction(1)] + [Fraction(x) for x in even[i]]
            ext = _reduce_against(vec, basis)
            if ext is not None:
                grow(i + 1, chosen + [even[i]], basis + [ext])

    grow(0, [], [])
    found.sort(key=lambda c: (c.k, c.vertices, c.inner))
    return CircuitCatalog(support, tuple(found))
