"""Circuits over a lattice support: exact barycentric coordinates, circuit
numbers, and exhaustive catalog enumeration.

A circuit is a set of affinely independent all-even lattice points (the
vertices) together with one more lattice point lying in the relative
interior of their convex hull.  Barycentric coordinates come from a
fraction-free (Bareiss) elimination, so they are exact at any exponent size
and strict positivity (hence relative-interior membership) never depends on
a float tolerance.  `_gauss_jordan` is the one such elimination on Python
ints: `barycentric_coordinates` runs it for a single circuit, and the
bound's nearest-point search for its bordered systems.  Catalog
enumeration runs the same elimination batched and incrementally over all
vertex sets at once, on stacked NumPy arrays: in int64 while a batch's
entries are below 2**31 in magnitude, so that no product in a pivot step
can overflow, and on Python ints otherwise.  It writes the catalog as per-arity arrays
(`ArityGroup`), the form the dual cone test reads; Circuit objects are
built only when asked for.
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


#: A Bareiss step on entries below this magnitude forms products p*x, a*y
#: below 2**62, so it cannot overflow int64.  The entries are minors of the
#: input, so the test is exact where a Hadamard bound would not be.
_INT64_SAFE = 1 << 31


def _gauss_jordan(rows: list[list[int]], k: int) -> int | None:
    """Fraction-free (Bareiss) Gauss-Jordan on the first k columns of
    integer rows, in place; column col pivots on the first nonzero entry at
    or below row col, swapped up.  Entries stay minors of the input, so each
    division is exact, and every diagonal entry ends as the last pivot, the
    common denominator of each row's other entries.  Returns that pivot, or
    None when some column gets no pivot.
    """
    prev = 1
    for col in range(k):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for i, row in enumerate(rows):
            if i != col:
                a = row[col]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    return prev


def barycentric_coordinates(vertices: Sequence[Exponent], beta: Sequence[int]) -> list[Fraction] | None:
    """Exact weights mu > 0 with sum(mu) = 1 and sum(mu_i * v_i) = beta.

    `_gauss_jordan` over the lifted matrix [1 ... 1 1; vertices beta] leaves
    beta's weights as integer numerators over the last pivot in its column,
    and a nonzero below them when beta is outside the affine hull.  Returns
    None when beta is not in the relative interior of the convex hull (on
    the boundary, or outside the affine hull).  Raises
    AffinelyDependentError when the vertices are affinely dependent.
    """
    if not vertices:
        raise ValueError("need at least one vertex")
    n = len(vertices[0])
    if any(len(v) != n for v in vertices) or len(beta) != n:
        raise ValueError("dimension mismatch between vertices and inner point")
    k = len(vertices)
    rows = [[1] * (k + 1), *map(list, zip(*vertices, beta))]
    det = _gauss_jordan(rows, k)
    if det is None:
        raise AffinelyDependentError(f"vertices {tuple(vertices)} are affinely dependent")
    if any(row[k] for row in rows[k:]) or not all(row[k] * det > 0 for row in rows[:k]):
        return None
    return [Fraction(row[k], det) for row in rows[:k]]


def affinely_independent(points: Sequence[Exponent]) -> bool:
    """Exact affine-independence test: every lifted point gets a pivot."""
    return _gauss_jordan([[1] * len(points), *map(list, zip(*points))], len(points)) is not None


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
    over a catalog: m circuits in canonical order, n variables.  The weights
    are float(mu) of the exact barycentric coordinates mu.

    `vertices` and `inner` index the rows of `lattice`, the (|A|, n) integer
    points in the order of the value arrays the tests read.  `solve`, built
    on first read, maps each r with weights . r = 0 to the minimum-norm tau
    with (beta - alpha(j)) . tau = r_j for every j: on such r it acts as the
    pseudo-inverse of the matrix with rows beta - alpha(j).  It is exact,
    every entry the correctly rounded value of the rational pseudo-inverse,
    from fraction-free elimination on the integer Gram matrix of those rows
    under enumeration's int64 rule.
    """

    index: np.ndarray  # (m,) positions in the catalog
    vertices: np.ndarray  # (m, k) indices of alpha(j) into the support's points
    inner: np.ndarray  # (m,) index of beta
    weights: np.ndarray  # (m, k) barycentric coordinates as floats
    beta_even: np.ndarray  # (m,) bool
    lattice: np.ndarray  # (|A|, n) integer points

    @property
    def k(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def solve(self) -> np.ndarray:  # (m, n, k)
        """R' adj(R R') / det(R R') for the rows R of every circuit, by
        Gauss-Jordan on the integers [R R' | I] through _pivot_step.

        The weights are the only dependency among the k rows and they are
        all positive, so any k - 1 rows are independent and the last one
        holds whenever the others do: R drops it and its column stays 0.
        R R' is then a positive definite Gram matrix, so each pivot is a
        positive leading minor and no row moves.  After the last step the
        left block is det I and the right block adj(R R'), and one division
        of the integers R' adj by det rounds each entry once.
        """
        m, k = self.vertices.shape
        n = self.lattice.shape[1]
        solve = np.zeros((m, n, k))
        if k == 1:
            return solve
        rows = self.lattice[self.inner, None, :] - self.lattice[self.vertices[:, :-1]]
        top = int(np.abs(rows).max())
        if n * top**2 >= _INT64_SAFE:  # a Gram entry sums n products r_i r_j
            rows = rows.astype(object)
        eye = np.broadcast_to(np.eye(k - 1, dtype=rows.dtype), (m, k - 1, k - 1))
        mats = np.concatenate((rows @ rows.transpose(0, 2, 1), eye), axis=2)
        prev, sets = np.ones(m, dtype=mats.dtype), np.arange(m)
        for col in range(k - 1):
            mats, prev = _pivot_step(_exact(mats, _INT64_SAFE), prev, sets, np.full(m, col), col)
        # An entry of R' adj sums k - 1 products: with it and det below 2**53
        # both are exact floats, and the float division rounds once.
        mats = _exact(mats, 2**53 // ((k - 1) * top))
        solve[:, :, :-1] = (rows.transpose(0, 2, 1) @ mats[:, :, k - 1 :]) / prev[:, None, None]
        return solve


@dataclass(frozen=True, eq=False)
class CircuitCatalog:
    """All circuits over a support, deduplicated by vertex set plus inner
    point and ordered by (arity, vertices, inner): the arity groups, in
    increasing arity.  `circuits` builds the Circuit objects on first use."""

    support: SupportSet
    arity_groups: tuple[ArityGroup, ...]
    _kept: dict[int, Circuit] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return sum(len(g.index) for g in self.arity_groups)

    @cached_property
    def circuits(self) -> tuple[Circuit, ...]:
        return tuple(self.circuit(g, r) for g in self.arity_groups for r in range(len(g.index)))

    def circuit(self, g: ArityGroup, r: int) -> Circuit:
        """Row r of group g, built alone on its first request and kept."""
        i, points = int(g.index[r]), self.support.points
        if i not in self._kept:
            self._kept[i] = Circuit(tuple(points[j] for j in g.vertices[r].tolist()), points[g.inner[r]])
        return self._kept[i]

    def to_json_dict(self) -> dict:
        return {"circuits": [c.to_json_dict() for c in self.circuits]}


#: Even support points beyond which enumeration refuses the support.
MAX_EVEN_POINTS = 20

#: Entries in one batch of stacked elimination matrices.  Enumeration runs
#: depth first a batch at a time, so its memory is O(depth * batch).
_BATCH_ENTRIES = 1 << 18


def _exact(mats: np.ndarray, bound: int) -> np.ndarray:
    """mats, on Python ints unless every entry is below bound in magnitude."""
    if mats.dtype == object or np.abs(mats).max() < bound:
        return mats
    return mats.astype(object)


def _pivot_step(mats: np.ndarray, prev: np.ndarray, sets: np.ndarray, cols: np.ndarray, k: int):
    """Step k of barycentric_coordinates' elimination for a batch of children.

    Child t copies the reduced (n+1) x |A| matrix of parent sets[t] and
    pivots on column cols[t] in the first row at or below k with a nonzero
    entry there, which then moves to row k.  Returns the children's
    matrices and pivots.
    """
    t = np.arange(len(sets))
    child = mats[sets]
    a = child[t, :, cols]
    row = k + (a[:, k:] != 0).argmax(axis=1)
    top, p = child[t, row], a[t, row]
    out = child * p[:, None, None]
    out -= a[:, :, None] * top[:, None, :]
    out //= prev[sets, None, None]  # Bareiss: exact, as in _gauss_jordan
    out[t, row] = out[:, k]  # the swap: row k, reduced, where the pivot row was
    out[:, k] = top
    return out, p


@lru_cache(maxsize=256)
def enumerate_circuits(support: SupportSet) -> CircuitCatalog:
    """Every circuit with vertices and inner point drawn from the support.

    Affinely independent even vertex sets are grown one even point at a
    time, depth first, by a batched, incremental fraction-free elimination.
    A k-vertex set holds the (n+1) x |A| matrix [1 ... 1; support points]
    after k Bareiss pivot steps on its vertices' columns: the numbers that
    barycentric_coordinates' elimination, the kernel for a single circuit,
    reaches with every support point as its target.  A child set takes over
    its parent's matrix and needs one more step, which all children in a
    batch take at once on stacked arrays (_pivot_step): in int64 while every
    entry of the batch is below 2**31 in magnitude, so no product overflows,
    and on Python ints otherwise.  The reduced matrix answers both questions: the points with
    all weights positive are the set's inner points, with the weights'
    numerators in the set's rows and their common denominator the last
    pivot, and the even points outside its affine hull are the ones that may
    extend it.  A batch holds at most _BATCH_ENTRIES entries, so memory
    grows with the depth, not with the widest level.  Sets are visited in
    lexicographic order, so the circuits come out in the catalog's order,
    and each arity's become one ArityGroup.  Exponential in the even-point
    count, hence the cap.
    """
    points = support.points
    parity = np.array([is_even_point(p) for p in points], dtype=bool)
    even = parity.nonzero()[0]
    if len(even) > MAX_EVEN_POINTS:
        raise SupportTooLargeError(f"{len(even)} even points exceed the enumeration cap {MAX_EVEN_POINTS}")
    rows = [[1] * len(points), *zip(*points)]  # entries >= 0: int64 if all are below _INT64_SAFE
    lifted = np.array(rows, dtype=np.int64 if max(map(max, rows)) < _INT64_SAFE else object)
    per_batch = max(1, _BATCH_ENTRIES // lifted.size)
    found: dict[int, list[tuple[np.ndarray, ...]]] = {}  # per arity: (vertices, inner, weights) batches
    later = np.arange(len(even)) >= np.arange(len(even) + 1)[:, None]  # later[s]: even points from s on

    def descend(mats: np.ndarray, prev: np.ndarray, chosen: np.ndarray, start: np.ndarray) -> None:
        """Record the inner points of a batch of k-vertex sets, then extend
        each set by the even points from start on outside its affine hull."""
        k = chosen.shape[1]
        outside = mats[:, k:, :].any(axis=1)
        # A target's weights are its first k entries over the last pivot.
        inside = (np.sign(mats[:, :k, :]) == np.sign(prev)[:, None, None]).all(axis=1) & ~outside
        s, j = inside.nonzero()
        if len(s):
            # Weights round once, as float(Fraction) does: Python ints divide
            # correctly rounded; int64 numerators share the sign of the pivot,
            # a batch entry below 2**31, and sum to it, so are exact as floats.
            weights = (mats[s, :k, j] / prev[s, None]).astype(float)
            found.setdefault(k, []).append((chosen[s], j, weights))
        if k < len(lifted):  # n + 1 vertices span everything
            extend(mats, prev, chosen, *(outside[:, even] & later[start]).nonzero())

    def extend(mats: np.ndarray, prev: np.ndarray, chosen: np.ndarray, sets: np.ndarray, nxt: np.ndarray) -> None:
        """Add even[nxt[t]] to set sets[t] of the batch, a chunk of children at a time."""
        if len(sets):
            mats = _exact(mats, _INT64_SAFE)
        for lo in range(0, len(sets), per_batch):
            s, e = sets[lo : lo + per_batch], nxt[lo : lo + per_batch]
            child, pivots = _pivot_step(mats, prev, s, even[e], chosen.shape[1])
            descend(child, pivots, np.concatenate((chosen[s], even[e, None]), axis=1), e + 1)

    # One vertex: the first step pivots on the row of ones, on 1, so it moves
    # the vertex to the origin.  The vertex is its own inner point, with
    # weight 1, and every other point lies outside its affine hull.
    for lo in range(0, len(even), per_batch):
        e = np.arange(lo, min(lo + per_batch, len(even)))
        first = lifted - lifted.T[even[e], :, None]
        first[:, 0] = 1
        found.setdefault(1, []).append((even[e, None], even[e], np.ones((len(e), 1))))
        extend(first, np.ones(len(e), dtype=np.int64), even[e, None], *later[e + 1].nonzero())
    lattice = lifted[1:].T
    groups, start = [], 0
    for k in sorted(found):
        chosen, inner, weights = (np.concatenate(part) for part in zip(*found[k]))
        index = np.arange(start, start + len(inner))
        groups.append(ArityGroup(index, chosen, inner, weights, parity[inner], lattice))
        start += len(inner)
    return CircuitCatalog(support, tuple(groups))
