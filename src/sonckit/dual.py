"""Membership in the dual cone of sums of nonnegative circuit polynomials,
the dual SAGE cone, and the closed-form univariate-quartic oracles.

For one circuit with vertices alpha(1..k), weights lambda and inner point
beta, a vector v indexed by the support is dual-feasible for that circuit
iff there are v* >= |v_beta| and tau in R^n with

    b_j = v* log(v* / v_alpha(j))  <=  (beta - alpha(j)) . tau      for all j

under the extended log conventions at zero.  The vertices are affinely
independent, so lambda is the only multiplier of the minimax LP over tau
and its value is the closed form  s = sum_j lambda_j b_j
= v* (log v* - sum_j lambda_j log v_alpha(j)).  As s <= 0 exactly when
v* <= prod_j v_alpha(j)^lambda_j, pinning v* = |v_beta| is optimal: the
test is the quantifier-free condition |v_beta| <= prod_j v_alpha(j)^lambda_j
of the dual cone, decided as s <= tol in the log domain.  The witness keeps
v* = |v_beta| and takes the minimum-norm tau with every row at slack -s,
from one linear map precomputed per circuit (the system is consistent since
sum_j lambda_j (beta - alpha(j)) = 0 and sum_j lambda_j (b_j - s) = 0).

The test runs vectorized over a catalog, one arity group at a time.  The
minimax LP solver in `minimax_lp` now serves only the dual SAGE test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import ArityGroup, Circuit, CircuitCatalog, enumerate_circuits
from .entropy import DEFAULT_TOL, xlogx_over
from .minimax_lp import minimax_simplex
from .polynomials import DualVector, SupportSet

#: |v_beta| at or below this never enters a pairing; v* = 0 certifies.
_ZERO_INNER = 1e-12


@dataclass(frozen=True)
class DualWitness:
    """A certifying (v*, tau) pair for one circuit's dual condition."""

    circuit_index: int
    v_star: float
    tau: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {"circuit": self.circuit_index, "v_star": self.v_star, "tau": list(self.tau)}


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witnesses: tuple[DualWitness, ...] = ()
    violated_circuit: Circuit | None = None

    def to_json_dict(self) -> dict:
        if self.member:
            return {"member": True, "witnesses": [w.to_json_dict() for w in self.witnesses]}
        return {
            "member": False,
            "violated_circuit": self.violated_circuit.to_json_dict() if self.violated_circuit else None,
        }


def lp_min_infeasibility(rows: Sequence[tuple[Sequence[float], float]]) -> tuple[float, tuple[float, ...]]:
    """min over tau of max_j (b_j - a_j . tau), plus an attaining tau; the
    LP behind the dual SAGE test.

    The epigraph form is always feasible; -inf means every row can be
    satisfied with arbitrarily large slack, and the returned tau already
    clears them all by at least 1.
    """
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0][0])
    if any(len(a) != n for a, _ in rows):
        raise ValueError("rows have mismatched dimensions")
    if n == 1:
        return _minimax_line([(float(a[0]), float(b)) for a, b in rows])
    return minimax_simplex([[float(x) for x in a] for a, _ in rows], [float(b) for _, b in rows])


def _minimax_line(rows: list[tuple[float, float]]) -> tuple[float, tuple[float, ...]]:
    """1-D minimax of the lines b_j - a_j * tau.

    The optimum is the largest crossing of a decreasing with an increasing
    line, or the highest flat row; with slopes of one sign only, the value
    runs off to the flat level or to -inf.
    """
    pos = [(a, b) for a, b in rows if a > 0.0]
    neg = [(a, b) for a, b in rows if a < 0.0]
    flat = max((b for a, b in rows if a == 0.0), default=-math.inf)
    best = flat
    best_tau: float | None = None
    for ai, bi in pos:
        for aj, bj in neg:
            val = (ai * bj - aj * bi) / (ai - aj)
            if val > best:
                best = val
                best_tau = (bi - bj) / (ai - aj)
    if best == -math.inf:
        if pos:
            return -math.inf, (max((b + 1.0) / a for a, b in pos),)
        return -math.inf, (min((b + 1.0) / a for a, b in neg),)
    if best_tau is None:
        lo = max(((b - best) / a for a, b in pos), default=-math.inf)
        hi = min(((b - best) / a for a, b in neg), default=math.inf)
        if lo > hi:  # float fuzz at a three-way tie
            best_tau = 0.5 * (lo + hi)
        else:
            best_tau = min(max(0.0, lo), hi)
    return best, (best_tau,)


def _gaps(g: ArityGroup, vals: np.ndarray, v_star: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimax gap s = v* (log v* - sum_j lambda_j log v_alpha(j)) of
    every circuit in the group, +inf where a vertex value is 0 < v*.

    Vertex values are clamped at 0.  Also returns the log vertex values and
    their lambda-weighted mean, which the witness needs.  Zero vertex
    values are masked before any log, so no inf or nan arises.
    """
    verts = np.maximum(vals[g.vertices], 0.0)
    live = verts > 0.0
    logs = np.log(verts, out=np.zeros_like(verts), where=live)
    mean = np.einsum("ij,ij->i", g.weights, logs)
    pos = v_star > 0.0
    log_star = np.log(v_star, out=np.zeros_like(v_star), where=pos)
    with np.errstate(over="ignore"):  # |s| beyond the float range is +-inf, sign intact
        s = v_star * (log_star - mean)
    s[pos & ~live.all(axis=1)] = np.inf
    return s, logs, mean


def _taus(g: ArityGroup, v_star: np.ndarray, logs: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """tau = solve @ (b - s), with b_j - s = v* (mean - log v_alpha(j));
    the added 0.0 turns the -0.0 of rows with v* = 0 into 0.0."""
    with np.errstate(over="ignore"):
        return v_star[:, None] * np.einsum("mnk,mk->mn", g.solve, mean[:, None] - logs) + 0.0


def _test_group(g: ArityGroup, vals: np.ndarray, tol: float):
    """Decide every circuit (k >= 2) of the group at once.

    A circuit fails on a vertex value below -tol, on an even inner point
    with v_beta below -tol, or on a gap s > tol at v* = |v_beta|.  Returns
    the failure mask and what `_taus` needs for the witnesses.
    """
    v_beta = vals[g.inner]
    v_star = np.abs(v_beta)
    v_star[v_star <= _ZERO_INNER] = 0.0
    s, logs, mean = _gaps(g, vals, v_star)
    failed = (vals[g.vertices] < -tol).any(axis=1) | (g.beta_even & (v_beta < -tol)) | (s > tol)
    return failed, v_star, logs, mean


def _one_circuit(circuit: Circuit, v: DualVector) -> tuple[ArityGroup, np.ndarray]:
    points = (*circuit.vertices, circuit.inner)
    group = ArityGroup.of([circuit], [-1], {p: i for i, p in enumerate(points)})
    return group, np.array([v[p] for p in points], dtype=float)


def circuit_row_infeasibility(circuit: Circuit, v: DualVector, v_star: float) -> tuple[float, tuple[float, ...]]:
    """min over tau of max_j (v* log(v*/v_alpha(j)) - (beta - alpha(j)) . tau),
    by the closed form, with an attaining tau.

    +inf when some row is itself +inf, i.e. a zero vertex value with v* > 0.
    """
    group, vals = _one_circuit(circuit, v)
    star = np.array([float(v_star)])
    s, logs, mean = _gaps(group, vals, star)
    if math.isinf(s[0]):
        return math.inf, (0.0,) * circuit.n
    return float(s[0]), tuple(_taus(group, star, logs, mean)[0].tolist())


def circuit_dual_membership(
    circuit: Circuit,
    v: DualVector,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, DualWitness | None]:
    """Dual-cone test for a single circuit, with a certifying witness."""
    if circuit.k == 1:
        val = v[circuit.vertices[0]]
        if val >= -tol:
            return True, DualWitness(-1, max(val, 0.0), (0.0,) * circuit.n)
        return False, None
    group, vals = _one_circuit(circuit, v)
    failed, v_star, logs, mean = _test_group(group, vals, tol)
    if failed[0]:
        return False, None
    tau = _taus(group, v_star, logs, mean)[0]
    return True, DualWitness(-1, float(v_star[0]), tuple(tau.tolist()))


def sonc_dual_membership(
    support: SupportSet,
    v: DualVector,
    tol: float = DEFAULT_TOL,
    catalog: CircuitCatalog | None = None,
) -> MembershipReport:
    """Full dual-cone membership over a support.

    Requires every even-exponent coordinate to be (tol-)nonnegative (the
    single-vertex circuits) and the per-circuit condition for every circuit
    with k >= 2.  A non-member names the first failing circuit in canonical
    catalog order; a member carries one witness per circuit with k >= 2, in
    that order.
    """
    if v.support != support:
        raise ValueError("dual vector is not indexed by the given support")
    if catalog is None:
        catalog = enumerate_circuits(support)
    elif catalog.support != support:
        raise ValueError("catalog was built for a different support")
    vals = np.array(v.as_tuple(), dtype=float)
    passed = []
    for group in catalog.arity_groups:
        if group.k == 1:
            failed = vals[group.inner] < -tol
        else:
            failed, *found = _test_group(group, vals, tol)
            passed.append((group, *found))
        if failed.any():
            return MembershipReport(False, (), catalog.circuits[group.index[failed.argmax()]])
    witnesses = []
    for group, v_star, logs, mean in passed:
        taus = _taus(group, v_star, logs, mean).tolist()
        witnesses.extend(
            DualWitness(idx, star, tuple(tau)) for idx, star, tau in zip(group.index.tolist(), v_star.tolist(), taus)
        )
    return MembershipReport(True, tuple(witnesses), None)


def _quartic_vector(v: Sequence[float]) -> tuple[float, ...]:
    if len(v) != 5:
        raise ValueError("expected a vector of length 5")
    vec = tuple(float(x) for x in v)
    if not all(math.isfinite(x) for x in vec):
        raise ValueError("quartic dual vectors must be finite")
    return vec


def quartic_dual_membership(v: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Closed-form dual-cone test for univariate quartics (support 0..4)."""
    v0, v1, v2, v3, v4 = _quartic_vector(v)
    scale = max(1.0, max(abs(x) for x in (v0, v1, v2, v3, v4)) ** 4)
    thr = -tol * scale
    checks = (
        v0,
        v2,
        v4,
        v0 * v2 - v1 ** 2,
        v0 ** 3 * v4 - v1 ** 4,
        v0 * v4 - v2 ** 2,
        v0 * v4 ** 3 - v3 ** 4,
        v2 * v4 - v3 ** 2,
    )
    return all(x >= thr for x in checks)


def psd_dual_quartic(v: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Principal-minor test for the 3x3 Hankel moment matrix of (v0..v4)."""
    v0, v1, v2, v3, v4 = _quartic_vector(v)
    scale = max(1.0, max(abs(x) for x in (v0, v1, v2, v3, v4)) ** 4)
    thr = -tol * scale
    checks = (
        v0,
        v2,
        v4,
        v0 * v2 - v1 ** 2,
        v0 * v4 - v2 ** 2,
        v2 * v4 - v3 ** 2,
        v0 * v2 * v4 + 2.0 * v1 * v2 * v3 - v2 ** 3 - v0 * v3 ** 2 - v1 ** 2 * v4,
    )
    return all(x >= thr for x in checks)


def sage_dual_membership(support: SupportSet, v: DualVector, tol: float = DEFAULT_TOL) -> bool:
    """Dual SAGE membership over a finite support: for every index i some
    tau(i) satisfies v_i log(v_i/v_j) <= (alpha(i) - alpha(j)) . tau(i)."""
    if v.support != support:
        raise ValueError("dual vector is not indexed by the given support")
    pts = support.points
    vals = [v[p] for p in pts]
    if any(x < 0.0 for x in vals):
        raise ValueError("dual SAGE vectors must be entrywise nonnegative")
    if len(pts) == 1:
        return True
    for i, (pi, vi) in enumerate(zip(pts, vals)):
        rows = []
        blocked = False
        for j, (pj, vj) in enumerate(zip(pts, vals)):
            if i == j:
                continue
            b = xlogx_over(vi, vj)
            if math.isinf(b):
                blocked = True
                break
            rows.append((tuple(float(x - y) for x, y in zip(pi, pj)), b))
        if blocked:
            return False
        gap, _ = lp_min_infeasibility(rows)
        if gap > tol:
            return False
    return True
