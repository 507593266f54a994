"""Seeded inputs and independent reference answers for the benchmark.

Nothing here imports sonckit: the generators emit plain data (polynomial
text, dual-vector JSON, term maps) and the references recompute what the
outputs must satisfy with numpy and scipy alone, so a check never trusts
the code it checks.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from scipy.optimize import linprog

#: Acceptance criterion 9 draws its 100 random polynomials from this seed.
CRITERION9_SEED = 109

#: Draws within this relative distance of a dual-cone boundary are dropped,
#: so float round-off cannot flip a reference verdict.
BOUNDARY_MARGIN = 1e-6


# ---------------------------------------------------------------- polynomials

class Poly:
    """A generated polynomial: the text handed to the parser plus the exact
    term map used by the checks."""

    def __init__(self, n: int, terms: dict[tuple[int, ...], float]) -> None:
        self.n = n
        self.terms = {e: c for e, c in sorted(terms.items()) if c != 0.0}
        self.text = poly_text(self.terms)
        self.exps = np.array(list(self.terms), dtype=float).reshape(len(self.terms), n)
        self.coefs = np.array(list(self.terms.values()))
        self.scale = 1.0 + float(np.max(np.abs(self.coefs)))

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """p on each row of xs (0**0 = 1, which numpy's power already gives)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.prod(xs[:, None, :] ** self.exps[None, :, :], axis=2) @ self.coefs


def poly_text(terms: dict[tuple[int, ...], float]) -> str:
    """``c*x1^a*x2^b`` terms joined by signs; repr keeps every coefficient exact."""
    parts = []
    for exp, coef in terms.items():
        factors = [f"x{i + 1}^{e}" for i, e in enumerate(exp) if e]
        body = "*".join([repr(abs(coef))] + factors)
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {body}" if parts or coef < 0 else body)
    return " ".join(parts)


def _random_sparse_terms(rng: np.random.Generator, n: int, max_degree: int, max_terms: int) -> dict:
    # Same draw sequence as the test suite's random_sparse_poly.
    terms: dict[tuple[int, ...], float] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        while True:
            exp = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=n))
            if sum(exp) <= max_degree:
                break
        mag = 10.0 ** rng.uniform(-3, 3)
        terms[exp] = terms.get(exp, 0.0) + float(rng.choice([-1.0, 1.0]) * mag)
    return terms


def mixed_polys(count: int = 100) -> list[Poly]:
    """Criterion 9's random polynomials, in its order: n in {1,2}, degree
    <= 6, <= 5 terms, |coef| in 10^[-3,3]."""
    rng = np.random.default_rng(CRITERION9_SEED)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 3))
        out.append(Poly(n, _random_sparse_terms(rng, n, 6, 5)))
    return out


def _simplex_interior(n: int, two_d: int) -> list[tuple[int, ...]]:
    return [a for a in itertools.product(range(1, two_d), repeat=n) if sum(a) < two_d]


#: The bound-sonc draw; see run.BoundSonc for why it is fixed.
SONC_SEED = 0

#: (n, 2d) pairs, cycled so every pass over the pool has the same mix.
SONC_SHAPES = [(n, two_d) for two_d in (4, 6, 8) for n in (1, 2, 3)]


def sonc_polys(seed: int, count: int = 2 * len(SONC_SHAPES)) -> list[Poly]:
    """Bounded, SONC-certifiable polynomials whose Newton polytope is the
    even simplex conv{0, 2d e_i}: positive constant and x_i^{2d} terms plus
    1..n+3 interior terms of either sign."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, two_d = SONC_SHAPES[i % len(SONC_SHAPES)]
        terms = {(0,) * n: 10.0 ** rng.uniform(-1, 1)}
        for j in range(n):
            terms[tuple(two_d if t == j else 0 for t in range(n))] = 10.0 ** rng.uniform(-1, 1)
        interior = _simplex_interior(n, two_d)
        k = int(rng.integers(1, n + 4))
        for idx in rng.choice(len(interior), size=min(k, len(interior)), replace=False):
            terms[interior[idx]] = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
        out.append(Poly(n, terms))
    return out


def sample_points(rng: np.random.Generator, n: int, count: int = 256) -> np.ndarray:
    """Soundness probes: the origin plus points at three radii."""
    pts = [np.zeros((1, n))]
    for radius in (0.5, 1.5, 3.0):
        pts.append(rng.uniform(-radius, radius, size=(count // 3, n)))
    return np.vstack(pts)


def check_bound(poly: Poly, out: dict, probes: np.ndarray) -> str | None:
    """Why a `sonckit bound` result is wrong, or None when it passes: weak
    duality, p_sonc below every probed value, and p(z) = p_dual at a
    claimed optimal point."""
    status = out.get("status")
    if status not in ("certified", "dual_only", "optimality_certified", "infeasible_unbounded"):
        return f"unknown status {status!r}"
    p_sonc, p_dual, z = out.get("p_sonc"), out.get("p_dual"), out.get("optimal_point")
    certified = status in ("certified", "optimality_certified")
    if certified and (p_sonc is None or out.get("certificate") is None):
        return "certified status without a finite bound and certificate"
    if status == "optimality_certified" and z is None:
        return "optimality_certified without an optimal point"
    scale = poly.scale
    if p_sonc is not None and p_dual is not None and p_sonc > p_dual + 1e-5 * scale:
        return f"weak duality fails: p_sonc {p_sonc} > p_dual {p_dual}"
    if p_sonc is not None:
        low = float(np.min(poly.evaluate(probes)))
        if p_sonc > low + 1e-6 * scale:
            return f"unsound bound: p_sonc {p_sonc} above sampled value {low}"
    if z is not None:
        pz = float(poly.evaluate(np.array([z]))[0])
        if p_dual is None or abs(pz - p_dual) > 1e-6 * scale:
            return f"optimal point value {pz} does not match p_dual {p_dual}"
    return None


# ------------------------------------------------------------------ supports

def dense_support(n: int, d: int) -> list[tuple[int, ...]]:
    return sorted(a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d)


def _is_even(point) -> bool:
    return all(e % 2 == 0 for e in point)


def reference_circuits(points: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int, np.ndarray]]:
    """Circuits with k >= 2 vertices by float linear algebra: every
    affinely independent even subset (numpy rank) with every other point
    whose least-squares barycentric coordinates are exact and positive.
    Returns (vertex indices, inner index, barycentric weights)."""
    n = len(points[0])
    pts = np.array(points, dtype=float)
    lifted = np.hstack([np.ones((len(points), 1)), pts]).T  # (n+1) x |A|
    even = [i for i, p in enumerate(points) if _is_even(p)]
    found = []
    for k in range(2, n + 2):
        for verts in itertools.combinations(even, k):
            m = lifted[:, verts]
            if np.linalg.matrix_rank(m) < k:
                continue
            others = [j for j in range(len(points)) if j not in verts]
            rhs = lifted[:, others]
            mu, *_ = np.linalg.lstsq(m, rhs, rcond=None)
            exact = np.linalg.norm(m @ mu - rhs, axis=0) <= 1e-8
            inside = np.all(mu > 1e-9, axis=0)
            for col in np.flatnonzero(exact & inside):
                found.append((verts, others[col], mu[:, col]))
    return found


def moment_vector(x: np.ndarray, points) -> np.ndarray:
    return np.prod(np.asarray(x, dtype=float)[None, :] ** np.array(points, dtype=float), axis=1)


def dual_vector_json(points, values) -> str:
    """The `sonckit check dual-member` input form."""
    return json.dumps(
        {"n": len(points[0]), "points": [list(p) for p in points], "values": [float(v) for v in values]}
    )


class DualOracle:
    """The paper's quantifier-free dual SONC test on one support: v is a
    member iff its even coordinates are >= 0 and |v_beta| <= prod_j
    v_alpha(j)^lambda_j for every circuit.  `count` is the number of
    circuits, the k = 1 ones (one per even point) included."""

    def __init__(self, points) -> None:
        self.points = points
        self.exps = np.array(points, dtype=float)
        self.even = np.array([_is_even(p) for p in points])
        circuits = reference_circuits(points)
        self.count = int(self.even.sum()) + len(circuits)
        self.weights = np.zeros((len(circuits), len(points)))
        self.inner = np.array([beta for _, beta, _ in circuits], dtype=int)
        for row, (verts, _, mu) in enumerate(circuits):
            self.weights[row, list(verts)] = mu

    def verdict(self, v: np.ndarray) -> bool | None:
        """Membership, or None within BOUNDARY_MARGIN of the boundary."""
        if np.any(v[self.even] < 0.0):
            return False
        with np.errstate(divide="ignore"):
            slack = self.weights @ np.log(np.where(self.even, v, 1.0)) - np.log(np.abs(v[self.inner]))
        if np.any(np.abs(slack) < BOUNDARY_MARGIN):
            return None
        return bool(np.all(slack > 0.0))


def sage_reference(points, v: np.ndarray) -> bool | None:
    """Dual SAGE membership by HiGHS: for every i some tau has
    v_i log(v_i/v_j) <= (alpha_i - alpha_j).tau for all j != i.  None when
    an optimum lies within BOUNDARY_MARGIN of feasibility."""
    pts = np.array(points, dtype=float)
    n = pts.shape[1]
    for i in range(len(points)):
        others = [j for j in range(len(points)) if j != i]
        a = pts[i] - pts[others]
        b = v[i] * np.log(v[i] / v[others])
        # min t  s.t.  b_j - a_j.tau <= t
        res = linprog(
            np.r_[np.zeros(n), 1.0],
            A_ub=np.hstack([-a, -np.ones((len(others), 1))]),
            b_ub=-b,
            bounds=[(None, None)] * (n + 1),
            method="highs",
        )
        if res.status == 3:  # unbounded: every row clears with any slack
            continue
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        if abs(res.fun) < BOUNDARY_MARGIN * (1.0 + float(np.max(np.abs(b)))):
            return None
        if res.fun > 0.0:
            return False
    return True


# ---------------------------------------------------------------- dual-batch

DUAL_BATCH_SUPPORTS = {
    "univariate-0..8": [(i,) for i in range(9)],
    "dense-n2-d6": dense_support(2, 6),
    "dense-n3-d4": dense_support(3, 4),
}


def _mixture(rng: np.random.Generator, oracle: DualOracle, positive: bool) -> np.ndarray:
    """Three weighted moment vectors, odd coordinates then scaled by one
    U(0.8, 1.6) factor: below 1 stays a member, above 1 may fail deeply."""
    v = np.zeros(len(oracle.points))
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, size=oracle.exps.shape[1])
        v += rng.uniform(0.0, 1.0) * np.prod((np.abs(x) if positive else x) ** oracle.exps, axis=1)
    v[~oracle.even] *= rng.uniform(0.8, 1.6)
    return v


#: Members, and as many non-members, drawn per dual-batch support.
DUAL_PER_CLASS = 64


def dual_batch(seed: int, per_class: int = DUAL_PER_CLASS, sage_every: int = 4) -> list[dict]:
    """Query vectors on fixed supports: `per_class` members and as many
    non-members per support, each with its reference verdict; every
    `sage_every`-th entrywise-positive vector also gets a dual SAGE query."""
    rng = np.random.default_rng(seed)
    columns = []
    for name, points in DUAL_BATCH_SUPPORTS.items():
        oracle = DualOracle(points)
        picked: dict[bool, list] = {True: [], False: []}
        draw = 0
        while min(len(picked[True]), len(picked[False])) < per_class:
            v = _mixture(rng, oracle, positive=draw % 2 == 0)
            draw += 1
            verdict = oracle.verdict(v)
            if verdict is not None and len(picked[verdict]) < per_class:
                picked[verdict].append(v)
        entries = [(v, True) for v in picked[True]] + [(v, False) for v in picked[False]]
        order = rng.permutation(len(entries))
        column, positives = [], 0
        for idx in order:
            v, member = entries[idx]
            sage = None
            if np.all(v > 0.0):
                positives += 1
                if positives % sage_every == 0:
                    sage = sage_reference(points, v)
            column.append(
                {
                    "support": name,
                    "points": points,
                    "values": v,
                    "member": member,
                    "sage": sage,
                    "even": int(oracle.even.sum()),
                    "circuits": oracle.count,
                }
            )
        columns.append(column)
    # Interleave the supports so every prefix carries the same mix.
    return [item for row in zip(*columns) for item in row]


# -------------------------------------------------------------- catalog-cold

CATALOG_SUPPORTS = {
    "dense-n2-d8": (2, 8),
    "dense-n2-d6": (2, 6),
    "dense-n3-d4": (3, 4),
}


def _dense_subset(rng: np.random.Generator, n: int, d: int, keep: float = 0.75) -> list[tuple[int, ...]]:
    """The dense support minus a fixed share of its even and of its odd
    points; the simplex vertices 0 and d*e_i always stay."""
    points = dense_support(n, d)
    corners = {(0,) * n} | {tuple(d if t == i else 0 for t in range(n)) for i in range(n)}
    kept = set(corners)
    for parity in (True, False):
        pool = [p for p in points if _is_even(p) == parity and p not in corners]
        take = int(round(keep * len(pool)))
        kept.update(pool[i] for i in rng.choice(len(pool), size=take, replace=False))
    return sorted(kept)


#: The catalog-cold subsets are one fixed draw: the circuit count, and so
#: the cost, grows steeply with the even points kept, and seed-varying
#: subsets made runs unsteady.  Query vectors still follow the run's seed.
CATALOG_SUBSET_SEED = 0


def catalog_cold(seed: int) -> list[dict]:
    """Fresh supports, each with a moment-vector query and the reference
    circuit count: each full dense support, then a random dense subset
    of it."""
    subset_rng = np.random.default_rng(CATALOG_SUBSET_SEED)
    supports = []
    for name, (n, d) in CATALOG_SUPPORTS.items():
        full = dense_support(n, d)
        subset = _dense_subset(subset_rng, n, d)
        supports += [(name, full), (name + "-subset", subset)]
    oracles = [DualOracle(points) for _, points in supports]
    rng = np.random.default_rng(seed)
    out = []
    for (name, points), oracle in zip(supports, oracles):
        v = moment_vector(rng.uniform(-1.5, 1.5, size=len(points[0])), points)
        out.append(
            {
                "support": name,
                "text": dual_vector_json(points, v),
                "even": int(oracle.even.sum()),
                "circuits": oracle.count,
            }
        )
    return out
