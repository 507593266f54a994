"""Lower bounds for sparse polynomials via sums of nonnegative circuit
polynomials.

The primal program maximizes gamma subject to p - gamma lying in the cone of
sums of nonnegative circuit polynomials supported on supp(p) united with the
constant exponent; it is solved by bisection over a feasibility oracle.  The
oracle itself is a heuristic coordinate ascent, but every certificate it
emits is re-verified by an independent checker, so false positives are
impossible by construction.

The dual program minimizes the coefficient pairing over the dual cone with
the constant coordinate normalized to 1 (the normalization comes from
dualizing the gamma row of the primal).  Moment vectors of local minimizers
seed it, and a recovered point z with matching moments certifies optimality.

Both programs first look at the Newton polytope: a polynomial with an odd or
negative nonzero vertex is unbounded below, which settles the primal, and a
point on the curve exposing that vertex seeds the dual instead.

Values, derivatives and moment vectors come from the polynomial module,
whose arithmetic never raises or warns on overflow.  The multistart descent
runs damped Newton from all its starts at once, as one (S, n) array on the
batch value-gradient-Hessian kernel.  It reads a non-finite value as 1e300
and a non-finite gradient entry as 0, a row whose Hessian leaves the float
range takes a gradient step, a start whose search direction leaves the
float range stops, and the (value, point) pairs it returns are evaluated
again by SparsePolynomial.evaluate.  A start, curve or recovered point whose
moment vector leaves the float range is skipped on the ValueError that
DualVector raises.  Forming the curve point x(t) itself is the one place an
OverflowError is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import optimize as sciopt

from .circuits import CircuitCatalog, SupportTooLargeError, enumerate_circuits, is_even_point
from .dual import sonc_dual_membership
from .nonneg import CircuitPolynomial, is_nonneg_circuit
from .polynomials import DualVector, Exponent, SparsePolynomial, SupportSet, moment_vector, value_gradient_hessian

#: Membership tolerance used when verifying dual iterates.
DUAL_FEAS_TOL = 1e-7


class Status(str, Enum):
    CERTIFIED = "certified"
    DUAL_ONLY = "dual_only"
    OPTIMALITY_CERTIFIED = "optimality_certified"
    INFEASIBLE_UNBOUNDED = "infeasible_unbounded"


class DualSolveError(RuntimeError):
    """Dual solver produced no verified feasible point; carries the best
    unverified iterate when one exists."""

    def __init__(self, message: str, value: float | None, point: DualVector | None) -> None:
        super().__init__(message)
        self.value = value
        self.point = point


@dataclass(frozen=True)
class CertificatePiece:
    circuit_index: int
    c: tuple[float, ...]
    delta: float


@dataclass(frozen=True)
class SoncCertificate:
    """p - gamma as circuit pieces plus an even nonnegative monomial residual."""

    gamma: float
    pieces: tuple[CertificatePiece, ...]
    residual: SparsePolynomial

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "pieces": [
                {"circuit": q.circuit_index, "c": list(q.c), "delta": q.delta} for q in self.pieces
            ],
            "residual": self.residual.to_json_dict(),
        }


@dataclass(frozen=True)
class BoundResult:
    p_sonc: float
    p_dual: float | None
    certificate: SoncCertificate | None
    dual_point: DualVector | None
    optimal_point: tuple[float, ...] | None
    status: Status

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "p_sonc": self.p_sonc if math.isfinite(self.p_sonc) else None,
            "p_dual": self.p_dual,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "dual_point": self.dual_point.to_json_dict() if self.dual_point else None,
            "optimal_point": list(self.optimal_point) if self.optimal_point is not None else None,
        }


def _scale(p: SparsePolynomial) -> float:
    return 1.0 + (max(abs(c) for c in p.coefficients.values()) if p.coefficients else 0.0)


def _extended_support(p: SparsePolynomial) -> SupportSet:
    zero = (0,) * p.n
    return SupportSet(p.n, tuple(set(p.support.points) | {zero}))


def verify_certificate(p: SparsePolynomial, cert: SoncCertificate, catalog: CircuitCatalog) -> bool:
    """Sound re-check, independent of the search that produced the
    certificate: every piece passes the circuit nonnegativity test, the
    residual is even with nonnegative coefficients, and pieces plus residual
    reproduce p - gamma coefficient by coefficient."""
    tol = 1e-7 * _scale(p)
    total: dict[Exponent, float] = {}
    for piece in cert.pieces:
        if not 0 <= piece.circuit_index < len(catalog.circuits):
            return False
        circuit = catalog.circuits[piece.circuit_index]
        try:
            cp = CircuitPolynomial(circuit, piece.c, piece.delta)
        except ValueError:
            return False
        ok, _ = is_nonneg_circuit(cp)
        if not ok:
            return False
        for vert, ci in zip(circuit.vertices, piece.c):
            total[vert] = total.get(vert, 0.0) + ci
        total[circuit.inner] = total.get(circuit.inner, 0.0) + piece.delta
    for exp, coef in cert.residual.coefficients.items():
        if not is_even_point(exp) or coef < -1e-12:
            return False
        total[exp] = total.get(exp, 0.0) + coef
    zero = (0,) * p.n
    want = dict(p.coefficients)
    want[zero] = want.get(zero, 0.0) - cert.gamma
    for exp in set(total) | set(want):
        if abs(total.get(exp, 0.0) - want.get(exp, 0.0)) > tol:
            return False
    return True


def _host_level(consts: list[float], ms: list[float]) -> float:
    """The root L of need(L) = sum_i exp((L - c_i) / m_i) = 1.

    Newton runs on h(L) = log need(L), which is convex and increasing.  From
    L = max(c), where h >= 0, its iterates decrease monotonically to the
    root; it stops once h <= 0 or a step is below 4e-16 max(1, |L|)."""
    level = max(consts)
    for _ in range(100):
        zs = [(level - c0) / m for c0, m in zip(consts, ms)]
        top = max(zs)
        es = [math.exp(z - top) for z in zs]
        total = sum(es)
        h = top + math.log(total)
        if h <= 0.0:
            break
        step = h * total / sum(e / m for e, m in zip(es, ms))
        level -= step
        if step <= 4e-16 * max(1.0, abs(level)):
            break
    return level


def sonc_feasibility(
    p: SparsePolynomial, catalog: CircuitCatalog, budget: int = 5000
) -> SoncCertificate | None:
    """Try to decompose p into nonnegative circuit polynomials plus an even
    nonnegative monomial residual, all supported on the catalog.

    Every odd-exponent or negative coefficient must be covered by inner
    terms of circuits; positive even coefficients are split between circuit
    vertices and the residual.  The split is tuned by coordinate ascent in
    the log domain on the per-piece slack log Theta - log |delta| (inner
    weights proportional to Theta are the exact block optimum; vertex splits
    are equalized by a Newton root, `_host_level`).  The result is rounded
    to exact coverage and re-checked; None means no certificate was found,
    never that one cannot exist.
    """
    support = catalog.support
    for exp in p.coefficients:
        if exp not in support:
            raise ValueError(f"polynomial exponent {exp} missing from the catalog support")
    coeff = {exp: p.coefficients.get(exp, 0.0) for exp in support.points}
    bad = sorted(
        exp
        for exp, c in coeff.items()
        if (not is_even_point(exp) and c != 0.0) or (is_even_point(exp) and c < 0.0)
    )
    hosts = {exp for exp, c in coeff.items() if is_even_point(exp) and c > 0.0}

    if not bad:
        residual = SparsePolynomial.from_terms(
            {e: c for e, c in coeff.items() if c > 0.0}, n=p.n
        )
        cert = SoncCertificate(0.0, (), residual)
        return cert if verify_certificate(p, cert, catalog) else None

    groups: dict[Exponent, list[int]] = {exp: [] for exp in bad}
    usable: list[int] = []
    for idx, circuit in enumerate(catalog.circuits):
        if circuit.k < 2 or circuit.inner not in groups:
            continue
        if all(vert in hosts for vert in circuit.vertices):
            groups[circuit.inner].append(idx)
            usable.append(idx)
    if any(not g for g in groups.values()):
        return None

    circuits = [catalog.circuits[i] for i in usable]
    n_pieces = len(circuits)
    loc_of = {idx: pi for pi, idx in enumerate(usable)}
    group_local = {g: [loc_of[i] for i in idxs] for g, idxs in groups.items()}
    mu = [[float(m) for m in c.barycentric] for c in circuits]

    host_claims: dict[Exponent, list[tuple[int, int]]] = {}
    for pi, c in enumerate(circuits):
        for i, vert in enumerate(c.vertices):
            host_claims.setdefault(vert, []).append((pi, i))

    u = [[1.0 / len(host_claims[vert]) for vert in c.vertices] for c in circuits]
    w = [0.0] * n_pieces

    def log_theta(pi: int) -> float:
        acc = 0.0
        for i, vert in enumerate(circuits[pi].vertices):
            m = mu[pi][i]
            acc += m * (math.log(coeff[vert]) + math.log(u[pi][i]) - math.log(m))
        return acc

    def log_slack(pi: int) -> float:
        return log_theta(pi) - math.log(abs(coeff[circuits[pi].inner])) - math.log(w[pi])

    def update_group(g: Exponent) -> None:
        locs = group_local[g]
        lts = [log_theta(pi) for pi in locs]
        mx = max(lts)
        es = [math.exp(t - mx) for t in lts]
        s = sum(es)
        for pi, e in zip(locs, es):
            w[pi] = max(e / s, 1e-300)

    def update_host(vert: Exponent) -> None:
        claims = host_claims[vert]
        if len(claims) == 1:
            pi, i = claims[0]
            u[pi][i] = 1.0
            return
        consts, ms = [], []
        for pi, i in claims:
            m = mu[pi][i]
            consts.append(log_slack(pi) - m * math.log(u[pi][i]))
            ms.append(m)
        level = _host_level(consts, ms)
        shares = [math.exp(min((level - c0) / m, 700.0)) for c0, m in zip(consts, ms)]
        s = sum(shares)
        for (pi, i), sh in zip(claims, shares):
            u[pi][i] = max(sh / s, 1e-300)

    for g in sorted(groups):
        update_group(g)
    blocks: list[tuple[str, Exponent]] = [("g", g) for g in sorted(groups)]
    blocks += [("h", vkey) for vkey in sorted(host_claims)]
    updates = 0
    prev = -math.inf
    while updates < budget:
        for kind, key in blocks:
            if kind == "g":
                update_group(key)
            else:
                update_host(key)
            updates += 1
        cur = min(log_slack(pi) for pi in range(n_pieces))
        if cur >= 1e-10 or cur <= prev + 1e-14:
            break
        prev = cur

    # Round to exact coverage: the last piece of each inner group absorbs the
    # closure so odd exponents cancel exactly; overdrawn hosts shed the tiny
    # float excess from their largest claim.
    piece_delta = [0.0] * n_pieces
    for g in sorted(groups):
        locs = group_local[g]
        wsum = sum(w[pi] for pi in locs)
        acc = 0.0
        for pi in locs[:-1]:
            d = coeff[g] * (w[pi] / wsum)
            piece_delta[pi] = d
            acc += d
        piece_delta[locs[-1]] = coeff[g] - acc

    piece_c = [[0.0] * circuits[pi].k for pi in range(n_pieces)]
    draw_sum: dict[Exponent, float] = {vert: 0.0 for vert in host_claims}
    for pi, c in enumerate(circuits):
        for i, vert in enumerate(c.vertices):
            amount = coeff[vert] * u[pi][i]
            piece_c[pi][i] = amount
            draw_sum[vert] += amount
    for vert, drawn in draw_sum.items():
        excess = drawn - coeff[vert]
        if excess > 0.0:
            pi, i = max(host_claims[vert], key=lambda t: piece_c[t[0]][t[1]])
            piece_c[pi][i] -= excess

    residual_terms = {}
    for exp, c in coeff.items():
        if not is_even_point(exp) or c <= 0.0:
            continue
        rem = c - draw_sum.get(exp, 0.0)
        if rem > 0.0:
            residual_terms[exp] = rem
    residual = SparsePolynomial.from_terms(residual_terms, n=p.n)
    cert = SoncCertificate(
        0.0,
        tuple(
            CertificatePiece(usable[pi], tuple(piece_c[pi]), piece_delta[pi])
            for pi in range(n_pieces)
        ),
        residual,
    )
    return cert if verify_certificate(p, cert, catalog) else None


#: Random starts of the multistart descent, besides 0 and +-1.
_RANDOM_STARTS = 20


def _local_minima(p: SparsePolynomial, seed: int) -> list[tuple[float, tuple[float, ...]]]:
    """Deterministic multistart descent; (value, point) pairs sorted by value,
    one for each start and one for the point its descent stopped at."""
    n = p.n
    if n == 0:
        return [(p.evaluate(()), ())]
    rng = np.random.default_rng(seed)
    fixed = np.array([np.zeros(n), np.ones(n), -np.ones(n)])
    starts = np.vstack([fixed, rng.uniform(-3.0, 3.0, size=(_RANDOM_STARTS, n))])
    found: list[tuple[float, tuple[float, ...]]] = []
    for end, start in zip(_descend(p, starts), starts):
        for x in (end, start):
            val = p.evaluate(x)
            found.append((val if math.isfinite(val) else 1e300, tuple(float(v) for v in x)))
    found.sort(key=lambda t: t[0])
    return found


def _descend(p: SparsePolynomial, x: np.ndarray) -> np.ndarray:
    """Damped Newton from every row of x at once; the rows where each
    descent stopped.

    The direction is -V diag(1/lambda') V' g, with lambda' = max(|lambda|,
    1e-8 max(1, max |lambda|)) over the eigenpairs (lambda, V) of the
    Hessian, so it always descends (Nocedal-Wright 3.4).  A row whose
    Hessian has a non-finite entry or one beyond 1e150 takes the gradient
    step -g / max(1, ||g||_inf) instead.  Steps are Armijo backtracking
    from 1 (c1 = 1e-4, at most 60 halvings).  A start stops at ||g||_inf <=
    1e-5, a failed line search (which includes a direction beyond the float
    range), a decrease below 1e-15 max(1, |f|), or 200 iterations.  A
    non-finite value reads as 1e300 and a non-finite gradient entry as 0."""

    def derivatives(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vals, grads, hess = value_gradient_hessian(p, pts)
        return np.where(np.isfinite(vals), vals, 1e300), np.where(np.isfinite(grads), grads, 0.0), hess

    x = x.copy()
    f, g, h = derivatives(x)
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(200):
        active &= np.abs(g).max(axis=1) > 1e-5
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        gi, hi = g[idx], h[idx]
        direction = -gi / np.maximum(1.0, np.abs(gi).max(axis=1))[:, None]
        # Rows left out: nan or inf entries, or eigenvalues that could leave the float range.
        tame = (np.abs(hi) <= 1e150).all(axis=(1, 2))
        step = np.ones(idx.size)
        new_x, new_f, new_g, new_h = x[idx], f[idx], gi, hi
        accepted = np.zeros(idx.size, dtype=bool)
        # On extreme inputs the direction, the Armijo target and the trial
        # points can leave the float range; such a start fails its line
        # search and stops.
        with np.errstate(over="ignore", invalid="ignore"):
            if tame.any():
                lam, vec = np.linalg.eigh(hi[tame])
                floor = 1e-8 * np.maximum(1.0, np.abs(lam).max(axis=1))
                lam = np.maximum(np.abs(lam), floor[:, None])
                coords = np.einsum("sji,sj->si", vec, gi[tame]) / lam
                direction[tame] = -np.einsum("sij,sj->si", vec, coords)
            slope = np.einsum("si,si->s", gi, direction)
            pending = np.flatnonzero((slope < 0.0) & np.isfinite(slope) & np.isfinite(direction).all(axis=1))
            for _ in range(61):
                if pending.size == 0:
                    break
                trial = x[idx[pending]] + step[pending, None] * direction[pending]
                tf, tg, th = derivatives(trial)
                ok = tf <= f[idx[pending]] + 1e-4 * step[pending] * slope[pending]
                hit = pending[ok]
                new_x[hit], new_f[hit], new_g[hit], new_h[hit] = trial[ok], tf[ok], tg[ok], th[ok]
                accepted[hit] = True
                pending = pending[~ok]
                step[pending] *= 0.5
        active[idx[~accepted]] = False
        moved = idx[accepted]
        stalled = f[moved] - new_f[accepted] < 1e-15 * np.maximum(1.0, np.abs(new_f[accepted]))
        x[moved], f[moved], g[moved], h[moved] = new_x[accepted], new_f[accepted], new_g[accepted], new_h[accepted]
        active[moved[stalled]] = False
    return x


#: Integer weights w and signs s of the curve x(t) = (s_i t^(w_i)), t > 0.
_Curve = tuple[tuple[int, ...], tuple[float, ...]]


def _unbounded_curve(p: SparsePolynomial) -> _Curve | None:
    """Integer weights w and signs s with p(s_i t^(w_i)) -> -inf as t -> inf,
    or None when the Newton polytope test below finds none.

    p is unbounded below when some nonzero vertex alpha of New(p u {0}) is
    odd or carries a negative coefficient: a weight vector w exposing alpha,
    <w, alpha - beta> > 0 for every other point beta, makes c_alpha s^alpha
    t^<w, alpha> the dominant term along the curve, and s is chosen so that
    this term is negative.  A HiGHS LP with margin 1 (and the least l1 norm,
    so the integer vector stays small) proposes w; its rationalization is
    accepted only when the strict inequalities hold exactly in integers.

    The inner point of a circuit with k >= 2 whose vertices are among the
    points lies in the relative interior of a simplex of other points, so
    it is no vertex and its LP is skipped.  By Caratheodory every non-vertex
    point of a bounded input is such an inner point, so bounded inputs solve
    no LP.  The circuits come from the catalog the later stages use, and
    above its even-point cap every candidate gets its LP.
    """
    zero = (0,) * p.n
    keys = set(p.coefficients) | {zero}
    points = sorted(keys)
    try:
        catalog = enumerate_circuits(_extended_support(p))
        inner = {c.inner for c in catalog.circuits if c.k >= 2 and keys.issuperset(c.vertices)}
    except SupportTooLargeError:
        inner = set()
    for alpha in points:
        coef = p.coefficients.get(alpha, 0.0)
        if alpha == zero or (is_even_point(alpha) and coef > 0.0) or alpha in inner:
            continue
        diffs = [[a - b for a, b in zip(alpha, beta)] for beta in points if beta != alpha]
        # w = u - v with u, v >= 0; <w, alpha - beta> >= 1 for every beta.
        a_ub = -np.array(diffs, dtype=float)
        lp = sciopt.linprog(
            np.ones(2 * p.n), A_ub=np.hstack([a_ub, -a_ub]), b_ub=-np.ones(len(diffs)), method="highs"
        )
        if lp.status != 0:
            continue
        frac = [Fraction(float(u - v)).limit_denominator(1000) for u, v in zip(lp.x[: p.n], lp.x[p.n :])]
        lcm = math.lcm(*(f.denominator for f in frac))
        w = [int(f * lcm) for f in frac]
        g = math.gcd(*w) or 1
        w = tuple(wi // g for wi in w)
        if not all(sum(wi * di for wi, di in zip(w, d)) > 0 for d in diffs):
            continue
        s = [1.0] * p.n
        if coef > 0.0:  # alpha is odd: flip one odd coordinate so s^alpha = -1
            s[next(i for i, e in enumerate(alpha) if e % 2)] = -1.0
        return w, tuple(s)
    return None


def _curve_point(p: SparsePolynomial, curve: _Curve) -> tuple[float, ...] | None:
    """The first x(t) = (s_i t^(w_i)), t = 1, 2, 4, ..., 2^64, with
    p(x(t)) < p(0) - scale and a finite moment vector; None if there is none."""
    w, s = curve
    support = _extended_support(p)
    target = p.coefficients.get((0,) * p.n, 0.0) - _scale(p)
    for k in range(65):
        try:
            x = tuple(si * 2.0 ** (k * wi) for si, wi in zip(s, w))
            if p.evaluate(x) < target:
                moment_vector(x, support)
                return x
        except (ValueError, OverflowError):  # x or a moment beyond the float range
            continue
    return None


#: The primal answer without a certified bound.
_UNBOUNDED = BoundResult(-math.inf, None, None, None, None, Status.INFEASIBLE_UNBOUNDED)


def sonc_lower_bound(p: SparsePolynomial, budget: int = 5000, seed: int = 0) -> BoundResult:
    """Largest gamma with p - gamma certified in the cone, by bisection.

    A polynomial with an odd or negative vertex of its Newton polytope (with
    the origin added) is unbounded below; it is settled there, before any
    search, as infeasible_unbounded.  Otherwise gamma_hi starts at the best
    multistart value of p (always an upper bound on the infimum); a feasible
    lower bracket is found by doubling steps, and failing that the status is
    infeasible_unbounded."""
    if _unbounded_curve(p) is not None:
        return _UNBOUNDED
    return _bisect_bound(p, budget, _local_minima(p, seed)[0][0])


def _bisect_bound(p: SparsePolynomial, budget: int, gamma_hi: float) -> BoundResult:
    """Bracket and bisect gamma below the upper bound gamma_hi."""
    support = _extended_support(p)
    catalog = enumerate_circuits(support)
    scale = _scale(p)
    zero = (0,) * p.n
    constant = p.coefficients.get(zero, 0.0)

    def attempt(gamma: float) -> SoncCertificate | None:
        shifted = dict(p.coefficients)
        shifted[zero] = constant - gamma
        if not math.isfinite(shifted[zero]):  # beyond the float range: no certificate
            return None
        q = SparsePolynomial(support, {e: c for e, c in shifted.items() if c != 0.0})
        cert = sonc_feasibility(q, catalog, budget=budget)
        return replace(cert, gamma=gamma) if cert is not None else None

    cert = attempt(gamma_hi)
    if cert is not None:
        return BoundResult(gamma_hi, None, cert, None, None, Status.CERTIFIED)
    lo = None
    hi = gamma_hi
    step = max(1.0, scale)
    for _ in range(60):
        g = gamma_hi - step
        c = attempt(g)
        if c is not None:
            lo, cert = g, c
            break
        step *= 2.0
    if lo is None:
        return _UNBOUNDED
    for _ in range(100):
        if hi - lo <= 2e-7 * scale:
            break
        mid = 0.5 * (lo + hi)
        c = attempt(mid)
        if c is not None:
            lo, cert = mid, c
        else:
            hi = mid
    return BoundResult(lo, None, cert, None, None, Status.CERTIFIED)


#: Step attempts of the dual descent after its best verified start.
_DUAL_STEPS = 40


def dual_program_solve(p: SparsePolynomial, seed: int = 0) -> tuple[float, DualVector]:
    """Minimize the coefficient pairing over the dual cone, with the constant
    coordinate normalized to 1.

    Moment vectors seed the search: of one point on the exposing curve when
    p is unbounded at its Newton polytope, else of multistart local
    minimizers of p.  Each is verified by the membership oracle.  A
    projected step-shrinking descent along -c then tries to improve while
    keeping verified membership.  Deterministic for a fixed seed."""
    return _dual_solve(p, seed, _unbounded_curve(p), None)


def _dual_solve(
    p: SparsePolynomial, seed: int, curve: _Curve | None, minima: list | None
) -> tuple[float, DualVector]:
    """The dual program from a point on `curve` when there is one, falling
    back to the multistart minima (`minima`, computed here when None)."""
    if curve is not None:
        x = _curve_point(p, curve)
        if x is not None:
            try:
                return _dual_descent(p, [x])
            except DualSolveError:
                pass
    if minima is None:
        minima = _local_minima(p, seed)
    return _dual_descent(p, [z for _, z in minima])


def _dual_descent(p: SparsePolynomial, starts: list) -> tuple[float, DualVector]:
    """Best verified moment vector of the start points, then the descent."""
    support = _extended_support(p)
    catalog = enumerate_circuits(support)
    c_vec = {exp: p.coefficients.get(exp, 0.0) for exp in support.points}
    zero = (0,) * p.n

    def objective(v: DualVector) -> float:
        return sum(c_vec[exp] * v[exp] for exp in support.points)

    def feasible(v: DualVector) -> bool:
        return sonc_dual_membership(support, v, tol=DUAL_FEAS_TOL, catalog=catalog).member

    best_val, best_v = None, None
    for z in starts:
        try:
            v = moment_vector(z, support)
        except ValueError:  # a moment beyond the float range
            continue
        val = objective(v)
        if math.isfinite(val) and (best_val is None or val < best_val) and feasible(v):
            best_val, best_v = val, v
    if best_v is None:
        raise DualSolveError("no feasible dual iterate found", None, None)

    eta = 0.5
    for _ in range(_DUAL_STEPS):
        if eta <= 1e-9:
            break
        trial_vals = {}
        for exp in support.points:
            x = best_v[exp] - eta * c_vec[exp]
            if exp == zero:
                x = 1.0
            elif is_even_point(exp) and x < 0.0:
                x = 0.0
            trial_vals[exp] = x
        trial = DualVector(support, trial_vals)
        val = objective(trial)
        if val < best_val - 1e-12 and math.isfinite(val) and feasible(trial):
            best_val, best_v = val, trial
            eta *= 1.5
        else:
            eta *= 0.5
    return best_val, best_v


def recover_optimizer(
    v: DualVector, support: SupportSet, tol: float = 1e-6
) -> tuple[float, ...] | None:
    """Try to express v as the moment vector (z^alpha) of a point z.

    |z_i| comes from the value at 2*e_i against the constant coordinate when
    both are present, else from any pair of support points differing only in
    coordinate i; signs are brute-forced over the coordinates odd exponents
    can see.  Every support point is verified to relative tolerance before z
    is accepted; None signals failure."""
    n = support.n
    pts = support.points
    vals = {pt: v[pt] for pt in pts}
    zero = (0,) * n
    v0 = vals.get(zero)

    mags: list[float] = []
    for i in range(n):
        if all(pt[i] == 0 for pt in pts):
            mags.append(0.0)
            continue
        square = tuple(2 if j == i else 0 for j in range(n))
        mag: float | None = None
        if v0 is not None and square in vals and v0 > 1e-12:
            ratio = vals[square] / v0
            if ratio < -1e-9:
                return None
            mag = math.sqrt(max(ratio, 0.0))
        else:
            for pa in pts:
                for pb in pts:
                    d = pa[i] - pb[i]
                    if d <= 0 or any(j != i and pa[j] != pb[j] for j in range(n)):
                        continue
                    den = vals[pb]
                    if abs(den) <= 1e-12:
                        continue
                    mag = abs(vals[pa] / den) ** (1.0 / d)
                    break
                if mag is not None:
                    break
        if mag is None:
            return None
        mags.append(mag)

    sign_coords = [i for i in range(n) if mags[i] > 0.0 and any(pt[i] % 2 for pt in pts)]
    if len(sign_coords) > 16:
        return None
    for pattern in product((1.0, -1.0), repeat=len(sign_coords)):
        z = list(mags)
        for i, s in zip(sign_coords, pattern):
            z[i] = s * mags[i]
        try:
            m = moment_vector(z, support)
        except ValueError:  # a moment beyond the float range
            continue
        if all(abs(m[pt] - vals[pt]) <= tol * max(1.0, abs(vals[pt])) for pt in pts):
            return tuple(z)
    return None


def certify_optimality(p: SparsePolynomial, seed: int = 0, budget: int = 5000) -> BoundResult:
    """Primal bound, dual solve, and moment recovery of an optimal point.

    A polynomial that is unbounded at its Newton polytope is settled there:
    p_sonc is -inf, and dual_point and p_dual come from one point on the
    exposing curve, improved by the dual descent.  Otherwise the multistart
    descent runs once and seeds both the primal bracket and the dual.
    Optimality is claimed only when a recovered point's value matches the
    dual objective and the certified primal bound closes the gap, so the
    sandwich p_sonc <= inf p <= p(z) = p_dual pins the infimum."""
    curve = _unbounded_curve(p)
    if curve is not None:
        minima = None
        primal = _UNBOUNDED
    else:
        minima = _local_minima(p, seed)
        primal = _bisect_bound(p, budget, minima[0][0])
    value, v = _dual_solve(p, seed, curve, minima)
    scale = _scale(p)
    support = _extended_support(p)
    z = recover_optimizer(v, support)
    optimal_point = None
    if (
        z is not None
        and abs(p.evaluate(z) - value) <= 1e-6 * scale
        and math.isfinite(primal.p_sonc)
        and value - primal.p_sonc <= 1e-5 * scale
    ):
        status = Status.OPTIMALITY_CERTIFIED
        optimal_point = z
    elif primal.certificate is not None:
        status = Status.CERTIFIED
    else:
        status = Status.DUAL_ONLY
    return BoundResult(primal.p_sonc, value, primal.certificate, v, optimal_point, status)
