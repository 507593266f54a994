"""Lower bounds for sparse polynomials via sums of nonnegative circuit
polynomials.

The primal maximizes gamma with p - gamma in the cone of sums of
nonnegative circuit polynomials supported on supp(p) and the constant
point.  Its dual has the paper's closed form: minimize the coefficient
pairing over v with v_0 = 1 and |v_beta| <= prod v_alpha^lambda_alpha for
each circuit.  One log-barrier path on that dual, by damped Newton in the
logs of the vertex values, gives both: its multipliers, rounded to exact
coverage, are the certificate pieces, each a `CircuitPolynomial` on its own
`Circuit`, and gamma is what the constant point has left.  An independent
verifier re-checks every certificate; it matches coefficients only to 1e-7
scale (scale = 1 + max |c|), so p_sonc <= inf p holds up to that tolerance.

Every moment vector (z^alpha) of a real point z is a member of that dual
cone, with equality or slack in every circuit's condition, and its pairing
with the coefficients is p(z), which `p.evaluate` forms in the pairing's
order.  `certify_optimality`, the one bound entry, answers an input with
no unbounded witness (below) with the least such value over explicit
candidates, the origin always among them, so it has a dual point, p_dual
>= inf p >= p_sonc, and its z certifies optimality when the two meet.  At
an exact bound the paper's optimum is such a point evaluation, and the
barrier ends near it: the candidates are the origin and z read off the
barrier's vertex values, polished once.
An odd or negative term that is the inner point of no circuit over the
positive even points and the constant leaves its dual coordinate free, so
the bound is -inf.  By Caratheodory such terms exist iff the Newton
polytope has an odd or negative nonzero vertex, and every such vertex is
one, but not every such term is a vertex (x1^3 in 1 + x1^3 - x1^4).  The
primal settles this while grouping its circuits, the one place a catalog
is built (only when some term is odd or negative), and names those terms;
the dual searches only them for a vertex and the integer curve exposing
it, whose weights come from the point of conv{alpha - beta} nearest the
origin.  That curve is the answer: an `UnboundedWitness`, re-checked in
integers by `verify_unbounded`, with p_sonc = p_dual = -inf and no dual
point.  The module imports no scipy.

Values, derivatives and moment vectors come from the polynomial module,
whose arithmetic never raises or warns on overflow.  A barrier point whose
moment vector leaves the float range is skipped on the ValueError that
DualVector raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, _gauss_jordan, enumerate_circuits, is_even_point
from .nonneg import CircuitPolynomial, is_nonneg_circuit
from .polynomials import DualVector, Exponent, SparsePolynomial, SupportSet, moment_vector, value_gradient_hessian


class Status(str, Enum):
    CERTIFIED = "certified"
    DUAL_ONLY = "dual_only"
    OPTIMALITY_CERTIFIED = "optimality_certified"


@dataclass(frozen=True)
class SoncCertificate:
    """p - gamma as circuit polynomials plus an even nonnegative monomial residual;
    each piece carries its circuit and exact weights, so no catalog is needed."""

    gamma: float
    pieces: tuple[CircuitPolynomial, ...]
    residual: SparsePolynomial

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "pieces": [q.to_json_dict() for q in self.pieces],
            "residual": self.residual.to_json_dict(),
        }


class UnboundedWitness(NamedTuple):
    """A nonzero vertex alpha of New(p u {0}), integer weights w exposing it
    and signs s in {-1, 1}^n with c_alpha s^alpha < 0, so that p(s_i
    t^(w_i)) -> -inf as t -> inf; `verify_unbounded` re-checks it."""

    vertex: Exponent
    w: tuple[int, ...]
    s: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"vertex": list(self.vertex), "w": list(self.w), "s": list(self.s)}


@dataclass(frozen=True)
class BoundResult:
    """p_sonc is -inf exactly without a certificate.  p_dual is -inf, and
    dual_point None, exactly when `unbounded` holds a witness; otherwise
    the dual point is the moment vector of a real point, p_dual its pairing."""

    p_sonc: float
    p_dual: float
    certificate: SoncCertificate | None
    dual_point: DualVector | None
    optimal_point: tuple[float, ...] | None
    status: Status
    unbounded: UnboundedWitness | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "p_sonc": self.p_sonc if math.isfinite(self.p_sonc) else None,
            "p_dual": self.p_dual if math.isfinite(self.p_dual) else None,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "dual_point": self.dual_point.to_json_dict() if self.dual_point is not None else None,
            "optimal_point": list(self.optimal_point) if self.optimal_point is not None else None,
            "unbounded": self.unbounded.to_json_dict() if self.unbounded else None,
        }


def _scale(p: SparsePolynomial) -> float:
    return 1.0 + (max(abs(c) for c in p.coefficients.values()) if p.coefficients else 0.0)


def verify_certificate(p: SparsePolynomial, cert: SoncCertificate) -> bool:
    """Re-check, independent of the search and of any catalog: each piece
    (a circuit by construction, whose `Circuit` derived its weights by its
    own exact elimination) passes the nonnegativity test, the residual is
    even with nonnegative coefficients, and pieces plus residual reproduce
    p - gamma coefficient by coefficient, each to within 1e-7 scale."""
    tol = 1e-7 * _scale(p)
    total: dict[Exponent, float] = {}
    for piece in cert.pieces:
        if not is_nonneg_circuit(piece)[0]:
            return False
        for exp, coef in zip((*piece.circuit.vertices, piece.circuit.inner), (*piece.c, piece.delta)):
            total[exp] = total.get(exp, 0.0) + coef
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


def sonc_feasibility(p: SparsePolynomial) -> SoncCertificate | None:
    """Decompose p into nonnegative circuit polynomials plus an even
    nonnegative monomial residual, all supported on supp(p), whose circuit
    catalog this builds (or reads from the cache) when p has an odd or
    negative term.

    p is in the cone when the largest shift at every anchor (`_certify`) is
    >= 0; None means it is not, up to the solve's gap and the checker."""
    return _certify(p, p.support, None)[0]


def _certify(
    p: SparsePolynomial, support: SupportSet, keep: Exponent | None
) -> tuple[SoncCertificate | None, dict[Exponent, float], list[Exponent]]:
    """The checked certificate of p - gamma x^keep over `support`, gamma the
    largest shift at keep (0 when keep is None), the barrier's value at each
    circuit vertex, and the sorted odd or negative terms (bad points) that
    no circuit covers: the module's one boundedness test, as any of them
    makes p unbounded below.  (None, {}, those terms) when there are some,
    (None, {}, []) when the path fails, a piece rounds to no circuit
    polynomial or the checker rejects.  Each bad point is covered by
    circuits with that inner point and vertices among the positive even
    points and the constant, read with their weights off the arity groups
    (a Circuit is built only per piece), in the order of the bad points,
    then of the catalog, which is built only when there is a bad point.
    Circuits sharing a vertex or an inner point form a component, anchored
    at its least vertex.  One barrier path finds the largest shift at every
    anchor; the other shifts (above 1e-12 scale) and unused positive even
    points form the residual.  Without a bad point no path runs and the
    vertex values are {}."""
    zero, points = (0,) * p.n, support.points
    coeff = {exp: p.coefficients.get(exp, 0.0) for exp in points}
    hosts = {exp for exp, c in coeff.items() if is_even_point(exp) and (c > 0.0 or exp == zero)}
    groups: dict[Exponent, list] = {exp: [] for exp, c in coeff.items() if c != 0.0 and exp not in hosts}
    shifts = {zero: coeff[zero]} if zero in coeff else {}
    residual = {exp: coeff[exp] for exp in hosts if exp != zero}
    pieces: tuple[CircuitPolynomial, ...] = ()
    vertices: dict[Exponent, float] = {}
    taken: dict[Exponent, float] = {}
    if groups:
        bad = sorted(groups)
        is_bad, is_host = (np.array([exp in s for exp in points]) for s in (groups, hosts))
        for g in enumerate_circuits(support).arity_groups:  # k = 1 never matches: its inner point is its vertex
            for r in np.flatnonzero(is_bad[g.inner] & is_host[g.vertices].all(axis=1)).tolist():
                groups[points[g.inner[r]]].append((tuple(points[j] for j in g.vertices[r].tolist()), g.weights[r]))
        uncovered = [beta for beta in bad if not groups[beta]]
        if uncovered:
            return None, {}, uncovered
        rows = [(beta, verts, mu) for beta in bad for verts, mu in groups[beta]]
        used = sorted({v for _, verts, _ in rows for v in verts})
        pos = {v: j for j, v in enumerate(used)}
        lam, parent = np.zeros((len(rows), len(used))), list(range(len(used)))

        def root(j: int) -> int:  # the least vertex of j's component
            while parent[j] != j:
                j = parent[j]
            return j

        for r, (beta, verts, mu) in enumerate(rows):
            lam[r, [pos[v] for v in verts]] = mu
            for v in verts:  # joined to the first vertex of beta's first circuit
                a, b = root(pos[v]), root(pos[groups[beta][0][0][0]])
                parent[max(a, b)] = min(a, b)
        fixed = np.array([root(j) == j for j in range(len(used))])
        grp = np.repeat(np.arange(len(bad)), [len(groups[beta]) for beta in bad])
        p_bad, p_host = np.array([coeff[beta] for beta in bad]), np.array([coeff[v] for v in used])
        path = _central_path(lam, grp, p_host, ~fixed, np.abs(p_bad))
        if path is None:
            return None, {}, []
        vertices = dict(zip(used, path[1].tolist()))
        cs, deltas = _round_pieces(lam, grp, p_bad, p_host, fixed, *path)
        taken = dict(zip(used, cs.sum(axis=0).tolist()))  # each vertex's coefficient, summed as the checker adds it
        # An anchor keeps its shift; the pieces take all of a free vertex (a
        # shortfall leaves p - gamma unmatched, and the checker rejects).
        for j, v in enumerate(used):
            residual.pop(v, None)
            if fixed[j]:
                shifts[v] = coeff[v] - taken[v]
        try:  # a coefficient rounded to 0 or past the float range is no circuit polynomial
            pieces = tuple(
                CircuitPolynomial(Circuit(verts, beta), tuple(cs[r, pos[v]] for v in verts), deltas[r])
                for r, (beta, verts, _) in enumerate(rows)
                if deltas[r] != 0.0
            )
        except ValueError:
            return None, {}, []
    gamma = 0.0
    if keep is not None:  # p_keep - gamma must reproduce the pieces' sum
        at_keep = taken.get(keep, 0.0)
        gamma = coeff[keep] - at_keep
        while coeff[keep] - gamma < at_keep:
            gamma = math.nextafter(gamma, -math.inf)
        shifts[keep] = coeff[keep] - gamma - at_keep
    residual.update({a: shift for a, shift in shifts.items() if shift > 1e-12 * _scale(p)})
    cert = SoncCertificate(gamma, pieces, SparsePolynomial.from_terms(residual, n=p.n))
    return (cert, vertices, []) if math.isfinite(gamma) and verify_certificate(p, cert) else (None, {}, [])


#: Growth of t per stage; the path stops at gap nu / t <= _GAP max(scale,
#: |objective|).  In the first stage t follows down to _FOLLOW nu / |objective|.
_T_GROWTH, _GAP, _FOLLOW = 30.0, 1e-8, 100.0


# The barrier runs on Python floats.  Where NumPy gives an IEEE value (a
# zero divisor, exp past the float range, log of 0 or less), math raises,
# so these give NumPy's value and a nan or inf flows on as it did there.
# Sums run left to right, as NumPy adds up to 8 terms (builtin sum() rounds
# otherwise from Python 3.12 on).
def _div(x: float, y: float) -> float:
    return x / y if y else x * math.copysign(math.inf, y)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expm1(x: float) -> float:
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _log_sum(xs: list) -> float:
    total = 0.0
    for x in xs:
        total += math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan
    return total


def _dot(x: list, y: list) -> float:
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _dots(rows: list, x: list) -> list:
    out = []
    for row in rows:
        total = 0.0
        for a, b in zip(row, x):
            total += a * b
        out.append(total)
    return out


def _span_sums(xs: list, spans: list) -> list:
    """Each span's sum as np.add.reduceat adds up to 8 terms: x_f + (((0.0 +
    x_f+1) + x_f+2) + ...), or x_f alone."""
    sums = []
    for f, e in spans:
        total = xs[f]
        if e - f > 1:
            rest = 0.0
            for x in xs[f + 1 : e]:
                rest += x
            total += rest
        sums.append(total)
    return sums


def _central_path(lam: np.ndarray, grp: np.ndarray, p_host: np.ndarray, free: np.ndarray, p_bad: np.ndarray):
    """(t, v, G, G - u, G + u), as arrays, at the end of the central path of
    the dual, or None when a stage does not settle in 300 steps or a step is
    not finite.  The dual is min sum_a p_a v_a - sum_beta |p_beta| u_beta
    with v = 1 at the anchors and u_beta <= G_C(v) = prod_a v_a^lambda_a for
    each circuit C (row C of `lam`, bad point grp[C]); its barrier -sum_C
    log(G_C^2 - u^2) - sum_free log v_a has parameter nu = 2 #C + #free.
    Each u is eliminated exactly (`_eliminate`), and damped Newton runs in
    z = log v on the free v (Schur-complement Hessian H + R'R, one
    `_newton_step`, Armijo while the decrement exceeds 1/4; the Schur rows R
    vanish, and are skipped, when each bad point has one circuit).  A step x
    takes z to z + tau x, tau = min(1, log 10 / max(-x)) before halving, so
    no vertex value falls below a tenth of itself in one step.  A stage ends
    at decrement 1, the last one only when the decrement stops falling.  The
    arrays are read once: a system has a few free vertices and circuits, so
    a step is a few hundred operations on Python floats and no array call."""
    first = np.flatnonzero(np.diff(grp, prepend=-1)).tolist()
    free_at, grp, p_host, p_bad = np.flatnonzero(free).tolist(), grp.tolist(), p_host.tolist(), p_bad.tolist()
    lf = lam[:, free].tolist()
    lft, lf0, ph = [list(col) for col in zip(*lf)], [lf[f] for f in first], [p_host[j] for j in free_at]
    dlf = [[x - y for x, y in zip(row, lf0[i])] for row, i in zip(lf, grp)]
    outer = [[[x * y for x, y in zip(ci, cj)] for cj in lft] for ci in lft]  # H = sum_C coef_C lf_C lf_C'
    spans, multi = list(zip(first, [*first[1:], len(lf)])), len(first) < len(lf)
    nu = 2.0 * len(lf) + len(free_at)
    scale = 1.0 + max(max(map(abs, p_host)), max(p_bad))

    # A point is (log G of each bad point's first circuit, log G_C minus that,
    # v), so a tie between circuits resolves to the precision of the difference.
    # With one circuit per bad point the differences and the gaps d to the
    # least G are identically 0, and state and moved do not form them.
    def state(point: tuple, t: float) -> tuple:
        lg0, r, v = point
        tp = [t * x for x in p_bad]
        if multi:
            gmin, d = [], []
            for (f, e), x in zip(spans, lg0):
                least = r[f]
                for y in r[f + 1 : e]:  # np.minimum: a nan wins
                    least = y if y < least or y != y else least
                gmin.append(_exp(x + least))
                d += [gmin[-1] * _expm1(y - least) for y in r[f:e]]
            s = _eliminate(gmin, tp, d, spans)
            gg, low, high, g = [], [], [], []
            for x, i in zip(d, grp):
                y = gmin[i]
                gg.append(y)
                low.append(x + s[i])
                high.append(x + 2.0 * y - s[i])
                g.append(y + x)
        else:
            g = gg = [_exp(x) for x in lg0]
            low = _eliminate(g, tp)
            high = [2.0 * x - y for x, y in zip(g, low)]
        inverse = _span_sums([_div(1.0, x * y) for x, y in zip(low, high)], spans)
        pu = 0.0  # p_bad . u, u = t p_bad / (2 inverse)
        for x, y, z in zip(p_bad, tp, inverse):
            pu += x * _div(y, 2.0 * z)
        objective = _dot(p_host, v) - pu
        phi = t * objective - _log_sum([v[j] for j in free_at]) - _log_sum(low) - _log_sum(high)
        return point, v, g, gg, low, high, objective, phi

    def moved(point: tuple, step: list) -> tuple:
        lg0, r, v = point
        v = list(v)
        for j, x in zip(free_at, step):
            v[j] *= _exp(x)
        lg0 = [x + y for x, y in zip(lg0, _dots(lf0, step))]
        return lg0, [x + y for x, y in zip(r, _dots(dlf, step))] if multi else r, v

    t, objective, first_stage = nu / scale, 0.0, True
    current = (([0.0] * len(first), [0.0] * len(lf), [1.0] * len(p_host)),)
    while True:
        final = nu / t <= _GAP * max(scale, abs(objective))
        current, last = state(current[0], t), math.inf
        for _ in range(300):
            point, v, g, gg, low, high, objective, phi = current
            apb, ww, rho, coef = [], [], [], []
            for x, y, z in zip(g, low, high):
                a, b = _div(x, y), _div(x, z)
                aa, bb = a * a, b * b
                w = aa + bb
                apb.append(a + b)
                ww.append(w)
                rho.append(_div(aa - bb, w))
                coef.append(_div(4.0 * a * a * b * b, w) - a - b)
            ab = _dots(lft, apb)
            grad = [t * x * v[j] - 1.0 - y for x, j, y in zip(ph, free_at, ab)]
            rows = []
            if multi:  # the Schur term of each bad point, as centered rows (no cancellation)
                kappa = [_div(x, y) for x, y in zip(gg, g)]
                weight = [w * k * x for w, k, x in zip(ww, kappa, rho)]
                den = _span_sums([w * (k * k) for w, k in zip(ww, kappa)], spans)
                num = [_span_sums([w * x for w, x in zip(weight, col)], spans) for col in lft]
                zbar = [[_div(col[i], y) for col in num] for i, y in enumerate(den)]
                rows = [
                    [math.sqrt(w) * (x * z - k * y) for z, y in zip(row, zbar[i])]
                    for w, x, k, row, i in zip(ww, rho, kappa, lf, grp)
                ]
            hess = [_dots(row, coef) for row in outer]
            for i, x in enumerate(ab):
                hess[i][i] += 1.0 + x
            step = _newton_step(hess, rows, grad)
            dec = -_dot(grad, step) if step is not None else math.nan
            if not math.isfinite(dec):
                return None
            if dec <= (0.0 if final else 1.0) or dec >= last:
                break
            tau, last = min(1.0, math.log(10.0) / max(-min(step), 1e-300)), (dec if dec <= 0.25 else math.inf)
            for _ in range(40 if dec > 0.25 else 1):
                trial = state(moved(point, [tau * x for x in step]), t)
                if dec <= 0.25 or trial[-1] < phi and trial[-1] <= phi - 1e-4 * tau * dec:
                    break
                tau *= 0.5
            else:  # no decrease above phi's float resolution: the stage ends where it stands
                break
            current = trial
            if first_stage and t * abs(current[6]) > _FOLLOW * nu:
                t = _FOLLOW * nu / abs(current[6])
                current, last = state(current[0], t), math.inf
        else:
            return None
        if not (t and math.isfinite(objective)):  # the first stage takes t to 0 after an infinite objective
            return None
        if final or nu / t <= _GAP * max(scale, abs(objective)):
            return t, np.array(v), np.array(g), np.array(low), np.array(high)
        t, first_stage = t * _T_GROWTH, False


def _eliminate(gmin: list, a: list, d: list | None = None, spans: list | None = None) -> list:
    """The slack s = min_C G_C - u per bad point at the u that minimizes
    -a u - sum_C log(G_C^2 - u^2), a = t |p_beta|: for one circuit s = lo =
    G (1 + 1/(r + A)) / (1 + r), A = a G, r = hypot(1, A), with G = gmin.
    When some bad point has more than one circuit, `spans` holds each bad
    point's circuit range [f, e) and d = G_C - min G, and a Newton from lo
    runs one bad point at a time, each step clipped to [lo, max(lo, min(k /
    a, min G))] for k = e - f circuits, until every bad point moves by at
    most 1e-15 s in the same step (at most 50 steps).  Its sums over a bad
    point's circuits add as np.add.reduceat does up to 8 circuits, so the
    floats are those of the array form; from 9 circuits on, NumPy sums
    pairwise and the last bits may differ.  A zero divisor gives the signed
    infinity (or nan) of IEEE division, and a nan stays nan through the
    clip."""
    s = []
    for g, ai in zip(gmin, a):
        big = ai * g
        r = math.hypot(1.0, big)
        s.append(g * (1.0 + 1.0 / (r + big)) / (1.0 + r))
    if spans is None:
        return s
    points = []
    for (f, e), g, ai, li in zip(spans, gmin, a, s):
        cap = (e - f) / ai if ai else math.inf
        hi = cap if cap < g else g  # np.minimum, then np.maximum: a tie takes the second
        hi = hi if hi > li else li
        points.append((li, hi, ai, d[f], d[f] + 2.0 * g, [(x, x + 2.0 * g) for x in d[f + 1 : e]]))
    for _ in range(50):
        done = True
        for i, (li, hi, ai, x0, top0, rest) in enumerate(points):
            si, num, den = s[i], 0.0, 0.0
            for x, top in rest:
                x, y = x + si, top - si
                low = 1.0 / x if x else math.copysign(math.inf, x)
                high = 1.0 / y if y else math.copysign(math.inf, y)
                num += low - high
                den += low * low + high * high
            x, y = x0 + si, top0 - si  # the first circuit's terms come last, as reduceat adds them
            low = 1.0 / x if x else math.copysign(math.inf, x)
            high = 1.0 / y if y else math.copysign(math.inf, y)
            num, den = low - high + num - ai, low * low + high * high + den
            x = si + (num / den if den else num * math.inf)
            new = li if x <= li else hi if x >= hi else x  # nan passes through
            done = done and abs(new - si) <= 1e-15 * si
            s[i] = new
        if done:
            break
    return s


def _newton_step(hess: list, rows: list, grad: list) -> list | None:
    """Solve (hess + rows' rows) d = -grad, of any order, by one Gaussian
    elimination without pivoting on the upper triangle of the system scaled
    to a unit diagonal: the matrix is symmetric positive definite, so that
    is backward stable however large the rows are (circuits of one bad point
    near a tie).  None when a diagonal entry is not positive or a pivot is
    0; a nan or inf entry gives a step that is not finite."""
    n = len(grad)
    system = [hess[i][i:] + [-g] for i, g in enumerate(grad)]  # row i: columns i.., then the right-hand side
    for r in rows:
        for i, row in enumerate(system):
            x = r[i]
            for j in range(i, n):
                row[j - i] += x * r[j]
    scale = []
    for row in system:
        if not row[0] > 0.0:
            return None
        scale.append(1.0 / math.sqrt(row[0]))
    for i, row in enumerate(system):
        for j in range(i, n):
            row[j - i] *= scale[i] * scale[j]
        row[-1] *= scale[i]
    for k, pivots in enumerate(system):
        if not pivots[0]:
            return None
        for i in range(k + 1, n):
            row, f = system[i], pivots[i - k] / pivots[0]
            for j in range(len(row)):
                row[j] -= f * pivots[i - k + j]
    step = [0.0] * n
    for k in range(n - 1, -1, -1):
        row, total = system[k], system[k][-1]
        for j in range(k + 1, n):
            total -= row[j - k] * step[j]
        step[k] = total / row[0]
    return [x * s for x, s in zip(step, scale)]


def _round_pieces(lam, grp, p_bad, p_host, fixed, t, v, g, low, high) -> tuple[np.ndarray, np.ndarray]:
    """Vertex coefficients (circuits x vertices) and deltas of the pieces:
    y+- = 1 / (t (G -+ u)) give c_a = (y+ + y-) lambda_a G / v_a and |delta|
    = |y+ - y-|, so Theta = y+ + y- >= |delta|.  p_beta is split in
    proportion to y+ y-, and each free vertex gives its full coefficient in
    proportion to c_a.  A piece without an anchor hands a shortfall Theta <
    |delta| to an anchored piece of its bad point, if any, and each anchored
    piece sets its anchor coefficient where Theta = |delta|, rounded up to
    the least positive float where it underflows (a larger c raises Theta)."""
    first, anchored = np.flatnonzero(np.diff(grp, prepend=-1)), (lam[:, fixed] > 0.0).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        cs = ((g / low + g / high) / t)[:, None] * lam / v
        share = np.minimum.reduceat(low * high, first)[grp] / (low * high)
        deltas = p_bad[grp] * share / np.add.reduceat(share, first)[grp]
        cs[deltas == 0.0] = 0.0
        totals = cs.sum(axis=0)
        cs[:, ~fixed] *= p_host[~fixed] / np.where(totals > 0.0, totals, 1.0)[~fixed]
        log_theta = np.where((lam > 0.0) & ~fixed, lam * (np.log(cs) - np.log(lam)), 0.0).sum(axis=1)
        for r in np.flatnonzero(~anchored & (log_theta < np.log(np.abs(deltas)))):
            takers = np.flatnonzero(anchored & (grp == grp[r]))
            if takers.size:
                theta = np.copysign(np.exp(log_theta[r]), deltas[r])
                deltas[takers[0]] += deltas[r] - theta
                deltas[r] = theta
        r, j = np.nonzero((lam > 0.0) & fixed)
        least = np.where(deltas[r] != 0.0, np.nextafter(0.0, 1.0), 0.0)
        cs[r, j] = np.maximum(lam[r, j] * np.exp((np.log(np.abs(deltas[r])) - log_theta[r]) / lam[r, j]), least)
    return np.nan_to_num(cs), deltas


def _descend(p: SparsePolynomial, x: np.ndarray) -> np.ndarray:
    """Damped Newton from x; the point where the descent stopped.

    The direction is -V diag(1/lambda') V' g over the Hessian's eigenpairs,
    lambda' = max(|lambda|, 1e-8 max(1, max |lambda|)), so it always
    descends (Nocedal-Wright 3.4); a Hessian with an entry beyond 1e150 or
    a non-finite one gives -g / max(1, ||g||_inf).  Armijo steps from 1 (c1
    = 1e-4, at most 60 halvings).  The descent stops at ||g||_inf <= 1e-5, a
    failed line search, a decrease below 1e-15 max(1, |f|), or 200
    iterations.  Points are judged by `value_gradient_hessian`, whose value
    is p.evaluate's; a non-finite value reads as 1e300, a gradient entry as 0."""

    def derivatives(pt: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        val, grad, hess = value_gradient_hessian(p, pt)
        return (val if math.isfinite(val) else 1e300), np.where(np.isfinite(grad), grad, 0.0), hess

    f, g, h = derivatives(x)
    for _ in range(200):
        if np.abs(g).max() <= 1e-5:
            break
        direction = -g / max(1.0, np.abs(g).max())
        # On extreme inputs the direction, the Armijo target and the trial
        # points can leave the float range; the line search then fails.
        with np.errstate(over="ignore", invalid="ignore"):
            if (np.abs(h) <= 1e150).all():  # no nan or inf, no eigenvalue beyond the float range
                lam, vec = np.linalg.eigh(h)
                lam = np.maximum(np.abs(lam), 1e-8 * max(1.0, np.abs(lam).max()))
                direction = -np.einsum("ij,j->i", vec, np.einsum("ji,j->i", vec, g) / lam)
            slope = float(np.einsum("i,i->", g, direction))
            if not (slope < 0.0 and math.isfinite(slope) and np.isfinite(direction).all()):
                break
            step = 1.0
            for _ in range(61):
                trial = x + step * direction
                tf, tg, th = derivatives(trial)
                if tf <= f + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                break
        stalled = f - tf < 1e-15 * max(1.0, abs(tf))
        x, f, g, h = trial, tf, tg, th
        if stalled:
            break
    return x


def _nearest_point(diffs: list[list[int]]) -> list[Fraction] | None:
    """The point x of the convex hull of the rows d nearest the origin,
    scaled so that its least pairing <x, d> is 1, or None when some pairing
    is <= 0 (the origin is in the hull).  Unscaled, <x, d> >= |x|^2 for
    every row.

    Wolfe's algorithm (Math. Program. 11, 1976) in exact integers: x =
    S' lam over a corral S of affinely independent rows, lam convex and
    kept as integer numerators over one denominator.  A major cycle adds
    the row of least pairing with x while that is below |x|^2, so off
    aff(S).  A minor cycle solves [S S' 1; 1' 0][mu; -nu] = [0; 1] by
    `_gauss_jordan`, mu over a pivot made positive: S' mu is aff(S)'s
    nearest point.  If mu > 0 it becomes lam; else lam moves toward mu
    until weights reach 0, and those rows leave S.  |x| falls at every
    major cycle and fixes its corral, so no corral comes back and the
    search ends with no cap and no tolerance."""

    def dot(u: list[int], v: list[int]) -> int:
        return sum(a * b for a, b in zip(u, v))

    corral = [min(range(len(diffs)), key=lambda i: dot(diffs[i], diffs[i]))]
    lam, den = [1], 1
    while True:
        x = [sum(l * diffs[c][i] for l, c in zip(lam, corral)) for i in range(len(diffs[0]))]
        pairings = [dot(x, d) for d in diffs]
        j = min(range(len(diffs)), key=pairings.__getitem__)
        if pairings[j] * den >= dot(x, x):
            break
        corral, lam = [*corral, j], [*lam, 0]
        while True:
            k = len(corral)
            system = [[dot(diffs[a], diffs[b]) for b in corral] + [1, 0] for a in corral] + [[1] * k + [0, 1]]
            det = _gauss_jordan(system, k + 1)
            mu = [row[-1] if det > 0 else -row[-1] for row in system[:k]]
            det = abs(det)
            if all(m > 0 for m in mu):
                lam, den = mu, det
                break
            # The step theta = a / b to the first lam_i = 0 on the way; then lam
            # = (1 - theta) lam + theta mu over den * b * det.
            theta = min(Fraction(l * det, l * det - m * den) for l, m in zip(lam, mu) if m <= 0)
            a, b = theta.numerator, theta.denominator
            lam, den = [(b - a) * l * det + a * m * den for l, m in zip(lam, mu)], den * b * det
            corral, lam = [c for c, l in zip(corral, lam) if l > 0], [l for l in lam if l > 0]
    return [Fraction(xi, pairings[j]) for xi in x] if pairings[j] > 0 else None


def verify_unbounded(p: SparsePolynomial, witness: UnboundedWitness) -> bool:
    """Exact re-check of an unbounded witness, in integers, no tolerance:
    the lengths are n, alpha is a nonzero point of supp p, s is in {-1,
    1}^n with c_alpha s^alpha < 0, and <w, alpha - beta> > 0 for every
    other beta in supp p u {0}.  Then c_alpha s^alpha t^<w, alpha> is the
    dominant term of p(s_i t^(w_i)), so p -> -inf along the curve."""
    alpha, w, s = witness
    shape = len(alpha) == len(w) == len(s) == p.n and all(type(x) is int for x in (*w, *s)) and set(s) <= {1, -1}
    if not (shape and alpha in p.coefficients and any(alpha)):
        return False
    odd = sum(a for a, si in zip(alpha, s) if si == -1) % 2  # s^alpha = (-1)^odd
    others = (set(p.coefficients) | {(0,) * p.n}) - {alpha}
    negative = (p.coefficients[alpha] < 0.0) != bool(odd)
    return negative and all(sum(wi * (a - b) for wi, a, b in zip(w, alpha, beta)) > 0 for beta in others)


def _unbounded_curve(p: SparsePolynomial, uncovered: list[Exponent]) -> UnboundedWitness | None:
    """The witness that p is unbounded below, or None when none of the
    `uncovered` terms (`_certify`'s, tried in order) is a vertex that the
    test below exposes.

    p is unbounded below when some nonzero vertex alpha of New(p u {0}) is
    odd or carries a negative coefficient: a weight vector w exposing alpha,
    <w, alpha - beta> > 0 for every other point beta, makes c_alpha s^alpha
    t^<w, alpha> the dominant term along the curve, and s makes it
    negative.  By Caratheodory every such vertex is an uncovered term, and
    a bounded input has none, so it runs no search.  The point x of
    conv{alpha - beta} nearest the origin (`_nearest_point`) has <x, alpha -
    beta> >= |x|^2 > 0, so it proposes w; its rationalization must pass
    `verify_unbounded`, which no non-vertex does.  No float point on the
    curve is formed, so no weight is too large."""
    points = sorted(set(p.coefficients) | {(0,) * p.n})
    for alpha in uncovered:
        diffs = [[a - b for a, b in zip(alpha, beta)] for beta in points if beta != alpha]
        x = _nearest_point(diffs)
        if x is None:
            continue
        # At the least pairing max(1, L / 1000), L the largest l1 norm of a
        # row, rounding each weight by at most 1/2000 moves no pairing by
        # half of it, so the rationalized w exposes alpha too.
        margin = Fraction(max(1000, max(sum(map(abs, d)) for d in diffs)), 1000)
        frac = [(xi * margin).limit_denominator(1000) for xi in x]
        lcm = math.lcm(*(f.denominator for f in frac))
        w = [int(f * lcm) for f in frac]
        g = math.gcd(*w) or 1
        s = [1] * p.n
        if p.coefficients[alpha] > 0.0:  # alpha is odd: flip one odd coordinate so s^alpha = -1
            s[next(i for i, e in enumerate(alpha) if e % 2)] = -1
        witness = UnboundedWitness(alpha, tuple(wi // g for wi in w), tuple(s))
        if verify_unbounded(p, witness):
            return witness
    return None


def _barrier_points(p: SparsePolynomial, vertices: dict[Exponent, float]) -> list[tuple[float, ...]]:
    """The origin, the point z read off the barrier's vertex values and the
    point its descent stops at; the origin alone without vertex values (no
    certificate, or no bad point).  log|z| solves log v_alpha = alpha . log|z|
    over the vertices in least squares, a coordinate no vertex uses is 0,
    and the signs of the coordinates odd exponents can see are the pattern
    of least value, tried in full up to 16 of them (else the origin alone)."""
    origin = (0.0,) * p.n
    if not vertices:
        return [origin]
    exps = np.array(list(vertices), dtype=float)
    with np.errstate(over="ignore"):
        mags = np.exp(np.linalg.lstsq(exps, np.log(list(vertices.values())), rcond=None)[0])
    mags[~exps.any(axis=0)] = 0.0
    odd = [i for i in range(p.n) if mags[i] > 0.0 and any(exp[i] % 2 for exp in p.coefficients)]
    if len(odd) > 16:
        return [origin]
    zs = np.tile(mags, (2 ** len(odd), 1))
    zs[:, odd] *= np.array(list(product((1.0, -1.0), repeat=len(odd))))
    z = min(zs, key=lambda x: (math.isnan(val := p.evaluate(x)), val))  # nan last
    return [origin, tuple(z.tolist()), tuple(_descend(p, z).tolist())]


def _best_moment(p: SparsePolynomial, support: SupportSet, points: list) -> tuple[float, DualVector, tuple[float, ...]]:
    """(p(z), moment vector of z over `support`, z) at the point z of least
    finite value with finite moments, the first such in `points` on a tie;
    p(z) is their pairing with p's coefficients.  A moment vector is a dual
    member as it is, so no oracle re-tests it, and only the chosen one is
    built; `points` starts with the origin, whose moment vector e_0 always
    counts."""
    values = [p.evaluate(z) for z in points]
    for i in sorted((i for i, val in enumerate(values) if math.isfinite(val)), key=values.__getitem__):
        try:
            return values[i], moment_vector(points[i], support), points[i]
        except ValueError:  # a moment beyond the float range
            continue


def certify_optimality(p: SparsePolynomial, seed: int = 0) -> BoundResult:
    """Primal bound, dual point, and an optimal point where the two meet.

    When some odd or negative term has no circuit and the curve exposing an
    odd or negative vertex exists (`_unbounded_curve`), that witness is the
    answer: p_sonc = p_dual = -inf, with no certificate and no dual point.
    Otherwise the barrier solve gives the primal, and the dual point is the
    moment vector of the candidate z of least value among the barrier
    points (`_barrier_points`), which without a certificate or a bad point
    are the origin alone, p_dual = p(z).  Optimality is claimed when the
    certified bound closes the gap to 1e-5 scale: inf p then lies in
    [p_sonc, p_dual] up to the verifier's 1e-7 scale tolerance on p_sonc and
    the rounding of p(z).  The search is deterministic: `seed` is accepted
    for callers that still pass it and ignored."""
    zero = (0,) * p.n
    support = SupportSet(p.n, tuple(set(p.support.points) | {zero}))
    cert, vertices, uncovered = _certify(p, support, zero)
    witness = _unbounded_curve(p, uncovered)
    if witness is not None:
        return BoundResult(-math.inf, -math.inf, None, None, None, Status.DUAL_ONLY, witness)
    p_dual, v, z = _best_moment(p, support, _barrier_points(p, vertices))
    closed = cert is not None and p_dual - cert.gamma <= 1e-5 * _scale(p)
    status = Status.OPTIMALITY_CERTIFIED if closed else Status.CERTIFIED if cert else Status.DUAL_ONLY
    return BoundResult(cert.gamma if cert else -math.inf, p_dual, cert, v, z if closed else None, status)
