"""Circuits over a lattice support: exact barycentric coordinates, circuit
numbers, and exhaustive catalog enumeration.

A circuit is a set of affinely independent all-even lattice points (the
vertices) together with one more lattice point lying in the relative
interior of their convex hull.  Barycentric coordinates come from a
fraction-free elimination on Python ints, so they are exact at any exponent
size and strict positivity (hence relative-interior membership) never
depends on a float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _affine_coordinates(
    vertices: Sequence[Exponent], targets: Sequence[Sequence[int]]
) -> tuple[list[bool], dict[int, list[int]], int]:
    """Where every target lies relative to affinely independent vertices.

    One fraction-free (Bareiss) Gauss-Jordan elimination on Python ints over
    the lifted matrix [1 ... 1; vertices | 1 ... 1; targets], so entries stay
    exact at any exponent size.  The affine weights mu of a target (sum(mu)
    = 1, sum(mu_i * v_i) = target) are integer numerators over one common
    denominator, the last pivot.  Returns, per target, whether it lies
    outside the affine hull; the numerators of the targets in the relative
    interior (every mu_i > 0), keyed by target position; and the common
    denominator.  The signs are read off the integers, so no Fraction is
    built here.  Raises AffinelyDependentError when some vertex column gets
    no pivot.
    """
    k = len(vertices)
    rows = [[1] * (k + len(targets)), *map(list, zip(*vertices, *targets))]
    prev = 1
    for col in range(k):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            raise AffinelyDependentError(f"vertices {tuple(vertices)} are affinely dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for i, row in enumerate(rows):
            if i != col:
                a = row[col]
                # Bareiss: every entry is a minor of the input, so prev divides exactly.
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    # Each step scales the earlier pivot rows by p / prev, so every diagonal entry ends as prev.
    outside = [any(row[j] for row in rows[k:]) for j in range(k, k + len(targets))]
    interior = {
        j - k: [rows[i][j] for i in range(k)]
        for j in range(k, k + len(targets))
        if not outside[j - k] and all(rows[i][j] * prev > 0 for i in range(k))
    }
    return outside, interior, prev


def barycentric_coordinates(vertices: Sequence[Exponent], beta: Sequence[int]) -> list[Fraction] | None:
    """Exact weights mu > 0 with sum(mu) = 1 and sum(mu_i * v_i) = beta.

    Returns None when beta is not in the relative interior of the convex
    hull (on the boundary, or outside the affine hull).  Raises
    AffinelyDependentError when the vertices are affinely dependent.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    n = len(vertices[0])
    if any(len(v) != n for v in vertices) or len(beta) != n:
        raise ValueError("dimension mismatch between vertices and inner point")
    _, interior, det = _affine_coordinates(vertices, [beta])
    return [Fraction(x, det) for x in interior[0]] if interior else None


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Exact affine-independence test: every lifted point gets a pivot."""
    try:
        _affine_coordinates(points, [])
    except AffinelyDependentError:
        return False
    return True


@dataclass(frozen=True)
class Circuit:
    """Even, affinely independent vertices with an inner lattice point in
    the relative interior of their hull.

    The two determine the rest, which the constructor derives once: the
    exact positive weights `barycentric`, in the order the vertices are
    given, and `beta_even`, the parity of the inner point.  A single-vertex
    circuit has inner == vertex and weight 1.
    """

    vertices: tuple[Exponent, ...]
    inner: Exponent
    barycentric: tuple[Fraction, ...] = field(init=False, compare=False)
    beta_even: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        vertices = tuple(check_exponent(v) for v in self.vertices)
        inner = check_exponent(self.inner)
        if any(not is_even_point(v) for v in vertices):
            raise ValueError("circuit vertices must have all-even exponents")
        mu = barycentric_coordinates(vertices, inner)
        if mu is None:
            raise ValueError(f"{inner} is not in the relative interior of {vertices}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "barycentric", tuple(mu))
        object.__setattr__(self, "beta_even", is_even_point(inner))

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def n(self) -> int:
        return len(self.inner)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "beta": list(self.inner),
            "mu": [str(m) for m in self.barycentric],
            "beta_even": self.beta_even,
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "Circuit":
        """The circuit of `vertices` and `beta`; a blob is outside data, so
        its `mu` and `beta_even` must be the ones they give."""
        circuit = cls(obj["vertices"], obj["beta"])
        if [Fraction(m) for m in obj["mu"]] != list(circuit.barycentric):
            raise ValueError("mu is not the exact positive weights of beta")
        if bool(obj["beta_even"]) != circuit.beta_even:
            raise ValueError("beta_even flag inconsistent with beta")
        return circuit


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


#: Even support points beyond which enumeration refuses the support.
MAX_EVEN_POINTS = 20


@lru_cache(maxsize=256)
def enumerate_circuits(support: SupportSet) -> CircuitCatalog:
    """Every circuit with vertices and inner point drawn from the support.

    Affinely independent even vertex sets are grown one even point at a
    time.  Each vertex set costs one exact integer elimination with every
    support point as a target, and that one result answers both questions:
    the points with all weights positive are its inner points (a single
    vertex is its own), and the even points outside its affine hull are the
    ones that may extend it.  Each circuit then derives its own weights.
    Exponential in the even-point count, hence the cap.
    """
    points = support.points
    even = [i for i, p in enumerate(points) if is_even_point(p)]
    if len(even) > MAX_EVEN_POINTS:
        raise SupportTooLargeError(f"{len(even)} even points exceed the enumeration cap {MAX_EVEN_POINTS}")
    found: list[Circuit] = []

    def grow(start: int, chosen: tuple[Exponent, ...]) -> None:
        outside, interior, _ = _affine_coordinates(chosen, points)
        found.extend(Circuit(chosen, points[j]) for j in interior)
        for j in range(start, len(even)):
            if outside[even[j]]:
                grow(j + 1, chosen + (points[even[j]],))

    grow(0, ())
    found.sort(key=lambda c: (c.k, c.vertices, c.inner))
    return CircuitCatalog(support, tuple(found))
