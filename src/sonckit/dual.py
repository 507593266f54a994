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
of the dual cone, decided as s <= tol max(1, v*) in the log domain: for
v* >= 1 that bounds the log slack log v* - sum_j lambda_j log v_alpha(j) by
tol, so an exact moment vector passes at any scale.  The witness, a
`DualWitness` NamedTuple, keeps v* = |v_beta| and takes the minimum-norm
tau with every row at slack -s, from one linear map per circuit, built on
first use (the system is consistent since sum_j lambda_j (beta - alpha(j))
= 0 and sum_j lambda_j (b_j - s) = 0).  The map is the exact pseudo-inverse
of the integer rows beta - alpha(j), every entry correctly rounded: it
comes from fraction-free elimination on their Gram matrix, under the same
int64 rule as catalog enumeration (`ArityGroup.solve`).

The test runs vectorized over a catalog, one arity group at a time.  The
dual SAGE test has no such closed form: it solves one minimax LP per support
point i, on HiGHS, or by the crossing of lines when the support is
univariate.  Its rows are the log ratios b_j = log v_i - log v_j, so the LP
sees numbers no larger than the logs of floats; its value times v_i is the
value over the rows v_i log(v_i/v_j) (tau scales by v_i), which the
tolerance bounds.  scipy is imported there, on first use, not with the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import ArityGroup, Circuit, enumerate_circuits
from .entropy import DEFAULT_TOL
from .polynomials import DualVector, SupportSet

#: |v_beta| at or below this never enters a pairing; v* = 0 certifies.
_ZERO_INNER = 1e-12


class DualWitness(NamedTuple):
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


def lp_min_infeasibility(rows: Sequence[tuple[Sequence[float], float]]) -> float:
    """min over tau of max_j (b_j - a_j . tau); the LP behind the dual SAGE
    test.

    One variable solves in closed form (`_minimax_line`); more go to HiGHS
    as the epigraph LP  min t  s.t.  b_j - a_j . tau <= t,  tau and t free.
    That LP is always feasible, so an unbounded one has the value -inf:
    every row can be satisfied with arbitrarily large slack.
    """
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0][0])
    if any(len(a) != n for a, _ in rows):
        raise ValueError("rows have mismatched dimensions")
    if n == 1:
        return _minimax_line([(float(a[0]), float(b)) for a, b in rows])
    from scipy.optimize import linprog  # on first use: importing sonckit loads no scipy

    a_ub = np.hstack([-np.array([a for a, _ in rows], dtype=float), -np.ones((len(rows), 1))])
    b_ub = -np.array([b for _, b in rows], dtype=float)
    lp = linprog(np.eye(n + 1)[n], A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if lp.status == 3:  # unbounded below
        return -math.inf
    if lp.status != 0:
        raise RuntimeError(f"HiGHS failed on the epigraph LP: {lp.message}")
    return float(lp.fun)


def _minimax_line(rows: list[tuple[float, float]]) -> float:
    """1-D minimax of the lines b_j - a_j * tau.

    The optimum is the largest crossing of a decreasing with an increasing
    line, or the highest flat row; with slopes of one sign only, the value
    runs off to the flat level or to -inf.
    """
    pos = [(a, b) for a, b in rows if a > 0.0]
    neg = [(a, b) for a, b in rows if a < 0.0]
    flat = max((b for a, b in rows if a == 0.0), default=-math.inf)
    return max([flat] + [(ai * bj - aj * bi) / (ai - aj) for ai, bi in pos for aj, bj in neg])


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
    with v_beta below -tol, or on a gap s > tol max(1, v*) at v* = |v_beta|:
    relative to v* once v* >= 1, so the gap's own rounding, which grows
    with v*, never fails a moment vector.  Returns the failure mask and
    what `_taus` needs for the witnesses.
    """
    v_beta = vals[g.inner]
    v_star = np.abs(v_beta)
    v_star[v_star <= _ZERO_INNER] = 0.0
    s, logs, mean = _gaps(g, vals, v_star)
    failed = (vals[g.vertices] < -tol).any(axis=1) | (g.beta_even & (v_beta < -tol)) | (s > tol * np.maximum(1.0, v_star))
    return failed, v_star, logs, mean


def _one_circuit(circuit: Circuit, v: DualVector) -> tuple[ArityGroup, np.ndarray]:
    points = (*circuit.vertices, circuit.inner)
    k = circuit.k
    weights = np.array([[float(mu) for mu in circuit.barycentric]])
    lattice = np.array(points, dtype=object).reshape(k + 1, circuit.n)
    even = np.array([circuit.beta_even])
    group = ArityGroup(np.array([-1]), np.arange(k)[None], np.array([k]), weights, even, lattice)
    return group, np.array([v[p] for p in points], dtype=float)


def circuit_dual_membership(
    circuit: Circuit,
    v: DualVector,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, DualWitness | None]:
    """Dual-cone test for a single circuit, with a certifying witness; the
    rule of `sonc_dual_membership` (`_test_group`)."""
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
) -> MembershipReport:
    """Full dual-cone membership over a support.

    Requires every even-exponent coordinate to be (tol-)nonnegative (the
    single-vertex circuits) and the per-circuit condition for every circuit
    with k >= 2, with the gap's tolerance relative to v* (`_test_group`).  A non-member names the first failing circuit in canonical
    catalog order; a member carries one witness per circuit with k >= 2, in
    that order.
    """
    if v.support != support:
        raise ValueError("dual vector is not indexed by the given support")
    catalog = enumerate_circuits(support)
    vals = np.array(v.as_tuple(), dtype=float)
    passed = []
    for group in catalog.arity_groups:
        if group.k == 1:
            failed = vals[group.inner] < -tol
        else:
            failed, *found = _test_group(group, vals, tol)
            passed.append((group, *found))
        if failed.any():
            return MembershipReport(False, (), catalog.circuit(group, int(failed.argmax())))
    witnesses = []
    for group, v_star, logs, mean in passed:
        taus = map(tuple, _taus(group, v_star, logs, mean).tolist())
        witnesses.extend(map(DualWitness, group.index.tolist(), v_star.tolist(), taus))
    return MembershipReport(True, tuple(witnesses), None)


def _scaled_quartic(v: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """(u, r) with u = v / 2^e, 2^e the power of two just above m = max |v_i|
    when m > 1 (else e = 0), and r = max(1, m) / 2^e.  A check c of degree d,
    c(v) >= -tol * max(1, m)^d, then reads c(u) >= -tol * r^d: the same
    inequality over 2^(e d), in which no power of a large entry is formed."""
    if len(v) != 5:
        raise ValueError("expected a vector of length 5")
    vec = tuple(float(x) for x in v)
    if not all(math.isfinite(x) for x in vec):
        raise ValueError("quartic dual vectors must be finite")
    m = max(1.0, max(abs(x) for x in vec))
    e = math.frexp(m)[1] if m > 1.0 else 0
    return tuple(math.ldexp(x, -e) for x in vec), math.ldexp(m, -e)


def quartic_dual_membership(v: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Closed-form dual-cone test for univariate quartics (support 0..4)."""
    (v0, v1, v2, v3, v4), r = _scaled_quartic(v)  # v scaled by 2^-e
    checks = (  # (degree, value)
        (1, v0),
        (1, v2),
        (1, v4),
        (2, v0 * v2 - v1 ** 2),
        (4, v0 ** 3 * v4 - v1 ** 4),
        (2, v0 * v4 - v2 ** 2),
        (4, v0 * v4 ** 3 - v3 ** 4),
        (2, v2 * v4 - v3 ** 2),
    )
    return all(x >= -tol * r ** d for d, x in checks)


def psd_dual_quartic(v: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Principal-minor test for the 3x3 Hankel moment matrix of (v0..v4)."""
    (v0, v1, v2, v3, v4), r = _scaled_quartic(v)  # v scaled by 2^-e
    checks = (  # (degree, value)
        (1, v0),
        (1, v2),
        (1, v4),
        (2, v0 * v2 - v1 ** 2),
        (2, v0 * v4 - v2 ** 2),
        (2, v2 * v4 - v3 ** 2),
        (3, v0 * v2 * v4 + 2.0 * v1 * v2 * v3 - v2 ** 3 - v0 * v3 ** 2 - v1 ** 2 * v4),
    )
    return all(x >= -tol * r ** d for d, x in checks)


def sage_dual_membership(support: SupportSet, v: DualVector, tol: float = DEFAULT_TOL) -> bool:
    """Dual SAGE membership over a finite support: for every index i some
    tau(i) satisfies v_i log(v_i/v_j) <= (alpha(i) - alpha(j)) . tau(i).

    A point with v_i = 0 passes and one with v_j = 0 < v_i fails, under the
    extended log conventions.  On a positive vector point i fails when
    v_i g_i > tol max(1, v_i), g_i the minimax value over the log-ratio rows
    (alpha(i) - alpha(j), log v_i - log v_j): relative to v_i once v_i >= 1,
    as in `_test_group`, since v_i scales the rounding of g_i too, which an
    absolute tol read as a violation on exact moment vectors from 1e6 up.
    """
    if v.support != support:
        raise ValueError("dual vector is not indexed by the given support")
    vals = np.array([v[p] for p in support.points], dtype=float)
    if (vals < 0.0).any():
        raise ValueError("dual SAGE vectors must be entrywise nonnegative")
    if len(vals) == 1 or not vals.any():
        return True
    if not vals.all():  # some v_j = 0 < v_i
        return False
    try:
        coords = np.array(support.points, dtype=float)
    except OverflowError:
        raise ValueError("dual SAGE exponents must lie in the float range") from None
    logs = np.log(vals)
    for i, vi in enumerate(vals.tolist()):
        others = np.arange(len(vals)) != i
        rows = list(zip((coords[i] - coords[others]).tolist(), (logs[i] - logs[others]).tolist()))
        if vi * lp_min_infeasibility(rows) > tol * max(1.0, vi):
            return False
    return True
