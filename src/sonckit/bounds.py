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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy import optimize as sciopt

from .circuits import CircuitCatalog, enumerate_circuits, is_even_point
from .dual import sonc_dual_membership
from .nonneg import CircuitPolynomial, is_nonneg_circuit
from .polynomials import DualVector, Exponent, SparsePolynomial, SupportSet, moment_vector

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
    are equalized by bisection).  The result is rounded to exact coverage
    and re-checked; None means no certificate was found, never that one
    cannot exist.
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

        def need(level: float) -> float:
            return sum(math.exp(min((level - c0) / m, 700.0)) for c0, m in zip(consts, ms))

        hi = max(consts)  # need(hi) >= 1 from its own claim
        lo = min(c0 + m * math.log(1e-12) for c0, m in zip(consts, ms))
        while need(lo) > 1.0:
            lo -= 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if need(mid) > 1.0:
                hi = mid
            else:
                lo = mid
        shares = [math.exp(min((lo - c0) / m, 700.0)) for c0, m in zip(consts, ms)]
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


def _safe_eval(p: SparsePolynomial):
    def f(x) -> float:
        try:
            val = p.evaluate(x)
        except OverflowError:
            return 1e300
        return val if math.isfinite(val) else 1e300

    return f


def _poly_gradient(p: SparsePolynomial, x) -> np.ndarray:
    g = np.zeros(p.n)
    for exp, coef in p.coefficients.items():
        for i, e in enumerate(exp):
            if not e:
                continue
            term = coef * e
            for j, ej in enumerate(exp):
                pw = ej - 1 if j == i else ej
                if pw:
                    term *= x[j] ** pw
            g[i] += term
    return g


def _safe_grad(p: SparsePolynomial):
    def g(x) -> np.ndarray:
        try:
            out = _poly_gradient(p, x)
        except OverflowError:
            return np.zeros(p.n)
        return np.where(np.isfinite(out), out, 0.0)

    return g


def _local_minima(p: SparsePolynomial, seed: int, starts: int = 12) -> list[tuple[float, tuple[float, ...]]]:
    """Deterministic multistart descent; (value, point) pairs sorted by value."""
    n = p.n
    if n == 0:
        return [(p.evaluate(()), ())]
    rng = np.random.default_rng(seed)
    inits = [np.zeros(n), np.ones(n), -np.ones(n)]
    inits += list(rng.uniform(-3.0, 3.0, size=(starts, n)))
    f, g = _safe_eval(p), _safe_grad(p)
    found: list[tuple[float, tuple[float, ...]]] = []
    # Descent on an unbounded polynomial runs off to huge iterates; the
    # resulting overflow warnings are expected noise, not errors.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for x0 in inits:
            res = sciopt.minimize(f, x0, jac=g, method="BFGS", options={"maxiter": 200})
            val = f(res.x)
            if math.isfinite(val):
                found.append((float(val), tuple(float(v) for v in res.x)))
            start_val = f(x0)
            if math.isfinite(start_val):
                found.append((float(start_val), tuple(float(v) for v in x0)))
    found.sort(key=lambda t: t[0])
    return found


def sonc_lower_bound(
    p: SparsePolynomial,
    budget: int = 5000,
    seed: int = 0,
    trace: list | None = None,
) -> BoundResult:
    """Largest gamma with p - gamma certified in the cone, by bisection.

    gamma_hi starts at the best sampled value of p (always an upper bound on
    the infimum); a feasible lower bracket is found by doubling steps, and
    failing that the status is infeasible_unbounded.  When `trace` is a
    list, every oracle call is appended as (gamma, certified)."""
    support = _extended_support(p)
    catalog = enumerate_circuits(support)
    scale = _scale(p)
    zero = (0,) * p.n

    def attempt(gamma: float) -> SoncCertificate | None:
        shifted = dict(p.coefficients)
        shifted[zero] = shifted.get(zero, 0.0) - gamma
        q = SparsePolynomial(support, {e: c for e, c in shifted.items() if c != 0.0})
        cert = sonc_feasibility(q, catalog, budget=budget)
        if trace is not None:
            trace.append((gamma, cert is not None))
        return replace(cert, gamma=gamma) if cert is not None else None

    gamma_hi = min(p.evaluate(x) for _, x in _local_minima(p, seed))
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
        return BoundResult(-math.inf, None, None, None, None, Status.INFEASIBLE_UNBOUNDED)
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


def dual_program_solve(
    p: SparsePolynomial, seed: int = 0, budget: int = 40
) -> tuple[float, DualVector]:
    """Minimize the coefficient pairing over the dual cone, with the constant
    coordinate normalized to 1.

    Moment vectors of multistart local minimizers of p seed the search; each
    is verified by the membership oracle.  A projected step-shrinking
    descent along -c then tries to improve while keeping verified
    membership.  Deterministic for a fixed seed."""
    support = _extended_support(p)
    catalog = enumerate_circuits(support)
    c_vec = {exp: p.coefficients.get(exp, 0.0) for exp in support.points}
    zero = (0,) * p.n

    def objective(v: DualVector) -> float:
        return sum(c_vec[exp] * v[exp] for exp in support.points)

    def feasible(v: DualVector) -> bool:
        return sonc_dual_membership(support, v, tol=DUAL_FEAS_TOL, catalog=catalog).member

    best_val, best_v = None, None
    for _, z in _local_minima(p, seed):
        try:
            v = moment_vector(z, support)
        except ValueError:  # a moment overflowed the float range
            continue
        if feasible(v):
            val = objective(v)
            if best_val is None or val < best_val:
                best_val, best_v = val, v
    if best_v is None:
        raise DualSolveError("no feasible dual iterate found", None, None)

    eta = 0.5
    for _ in range(budget):
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
        if feasible(trial) and objective(trial) < best_val - 1e-12:
            best_val, best_v = objective(trial), trial
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
    from itertools import product

    for pattern in product((1.0, -1.0), repeat=len(sign_coords)):
        z = list(mags)
        for i, s in zip(sign_coords, pattern):
            z[i] = s * mags[i]
        if _verify_moments(z, pts, vals, tol):
            return tuple(z)
    return None


def _verify_moments(z, pts, vals, tol) -> bool:
    for pt in pts:
        m = 1.0
        for zi, e in zip(z, pt):
            if e:
                m *= zi ** e
        if abs(m - vals[pt]) > tol * max(1.0, abs(vals[pt])):
            return False
    return True


def certify_optimality(p: SparsePolynomial, seed: int = 0, budget: int = 5000) -> BoundResult:
    """Primal bound, dual solve, and moment recovery of an optimal point.

    Optimality is claimed only when a recovered point's value matches the
    dual objective and the certified primal bound closes the gap, so the
    sandwich p_sonc <= inf p <= p(z) = p_dual pins the infimum."""
    primal = sonc_lower_bound(p, budget=budget, seed=seed)
    value, v = dual_program_solve(p, seed=seed)
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
