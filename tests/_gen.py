"""Shared random generators and brute-force oracles for the test suite.

Run as a script, it prints three lines from whatever sonckit is on the path,
so two trees compare their outputs by one command each.  The first holds
the number of bound inputs (`bound_inputs()`), the sha256 of their
`certify_optimality` JSON lines, the barrier's Newton steps, state
evaluations and multi-circuit states over them (calls of
`bounds._newton_step`, of `bounds._eliminate`, and of `bounds._eliminate`
with the gaps d given, the states whose slacks take its Newton solve
because some bad point has more than one circuit), and the number of
answers that carry an unbounded witness (`unbounded` not null).  The
second holds the number of dual vectors (`dual_inputs()`), the sha256 of their
`sonc_dual_membership` verdicts, violated circuits, witness circuit
indices and v* (tau left out), the member count and the largest
witness-row residual (`witness_residual`).  The third holds the number
of row sets (`nearest_point_inputs()`), the sha256 of the points
`bounds._nearest_point` gives them and the count of None among those:

    PYTHONPATH=src python tests/_gen.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from sonckit import (
    AffinelyDependentError,
    Circuit,
    DualVector,
    SparsePolynomial,
    SupportSet,
    barycentric_coordinates,
    certify_optimality,
    enumerate_circuits,
    parse_polynomial,
    sonc_dual_membership,
)
from sonckit.bounds import _certify, _descend, _nearest_point, _unbounded_curve
from sonckit.polynomials import MAX_EXPONENT


def random_support(rng: np.random.Generator, n: int, max_points: int = 8, max_entry: int = 8) -> SupportSet:
    """A random lattice support with at least one point, mixed parity."""
    count = int(rng.integers(1, max_points + 1))
    pts = {tuple(int(x) for x in rng.integers(0, max_entry + 1, size=n)) for _ in range(count)}
    return SupportSet.of(sorted(pts), n=n)


def random_circuit(rng: np.random.Generator, n: int | None = None, k: int | None = None) -> Circuit:
    """A random circuit: even affinely independent vertices plus a lattice
    point of their relative interior (found by rounding convex combinations)."""
    for _ in range(400):
        nn = n if n is not None else int(rng.integers(1, 4))
        kk = k if k is not None else int(rng.integers(2, min(nn + 1, 4) + 1))
        verts = set()
        while len(verts) < kk:
            verts.add(tuple(2 * int(x) for x in rng.integers(0, 5, size=nn)))
        verts = tuple(sorted(verts))
        try:
            ok_indep = _affinely_independent_oracle(verts)
        except Exception:
            continue
        if not ok_indep:
            continue
        weights = rng.dirichlet(np.ones(kk))
        target = tuple(int(round(sum(w * v[t] for w, v in zip(weights, verts)))) for t in range(nn))
        if target in verts:
            continue
        if barycentric_coordinates(verts, target) is None:
            continue
        return Circuit(verts, target)
    raise AssertionError("failed to sample a random circuit")


def _affinely_independent_oracle(points) -> bool:
    m = np.array([[1] * len(points)] + [[v[t] for v in points] for t in range(len(points[0]))], float)
    return np.linalg.matrix_rank(m) == len(points)


def brute_force_circuits(support: SupportSet) -> set:
    """Independent (float linear algebra) enumeration of all circuits.

    Returns {(vertices, beta)} for k >= 2 with vertices sorted; affine
    independence by numpy rank, relative interior by least-squares
    barycentric signs."""
    pts = support.points
    n = support.n
    even = [p for p in pts if all(e % 2 == 0 for e in p)]
    found = set()
    for kk in range(2, n + 2):
        for verts in itertools.combinations(even, kk):
            m = np.array([[1.0] * kk] + [[v[t] for v in verts] for t in range(n)])
            if np.linalg.matrix_rank(m) < kk:
                continue
            for beta in pts:
                if beta in verts:
                    continue
                rhs = np.array([1.0] + [float(b) for b in beta])
                mu, *_ = np.linalg.lstsq(m, rhs, rcond=None)
                if np.linalg.norm(m @ mu - rhs) > 1e-8:
                    continue
                if np.all(mu > 1e-9):
                    found.add((tuple(sorted(verts)), beta))
    return found


def exact_circuits(support: SupportSet) -> list:
    """Every circuit by exhaustive search in exact arithmetic: each set of
    even points against each support point, by barycentric_coordinates.

    Returns the (vertices, inner) pairs in the catalog's order: by arity,
    then vertices, then inner point."""
    found = []
    for k in range(1, support.n + 2):
        for verts in itertools.combinations(support.even_points(), k):
            try:
                found += [(verts, beta) for beta in support.points if barycentric_coordinates(verts, beta)]
            except AffinelyDependentError:
                continue
    return found


def simplex_with_odd_points(n: int, odd: int, seed: int = 0) -> SupportSet:
    """The origin, 2 e_i and `odd` distinct random points with an odd entry
    and entries mostly 0, some 1 or 3: n + 1 affinely independent even
    points, so every one of the 2^(n+1) - 1 vertex sets gets eliminated."""
    rng = np.random.default_rng(seed)
    pts = {(0,) * n} | {tuple(2 * (t == i) for t in range(n)) for i in range(n)}
    while len(pts) < n + 1 + odd:
        p = tuple(int(x) for x in rng.choice([0] * 10 + [1, 1, 3], size=n))
        if any(x % 2 for x in p):
            pts.add(p)
    return SupportSet.of(sorted(pts), n=n)


def random_sparse_poly(
    rng: np.random.Generator, n: int, max_degree: int = 8, max_terms: int = 10
) -> SparsePolynomial:
    terms = {}
    count = int(rng.integers(1, max_terms + 1))
    for _ in range(count):
        while True:
            exp = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=n))
            if sum(exp) <= max_degree:
                break
        mag = 10.0 ** rng.uniform(-3, 3)
        terms[exp] = terms.get(exp, 0.0) + float(rng.choice([-1.0, 1.0]) * mag)
    return SparsePolynomial.from_terms(terms, n=n)


def criterion9_polys() -> list[SparsePolynomial]:
    """Acceptance criterion 9's 100 random polynomials (rng 109): n in
    {1, 2}, degree <= 6, <= 5 terms."""
    rng = np.random.default_rng(109)
    return [random_sparse_poly(rng, int(rng.integers(1, 3)), max_degree=6, max_terms=5) for _ in range(100)]


def sweep_draws() -> list[SparsePolynomial]:
    """The 700 sweep draws (rng 7): n in {1, 2, 3}, degree <= 8, <= 7 terms."""
    rng = np.random.default_rng(7)
    return [random_sparse_poly(rng, int(rng.integers(1, 4)), max_degree=8, max_terms=7) for _ in range(700)]


def golden_inputs() -> list[SparsePolynomial]:
    """The inputs of tests/data/bound_golden.json: Motzkin, 1 - 3*x1^2 + x1^4,
    criterion 9's 100 and the bound-sonc workload's 18."""
    return [parse_polynomial(MOTZKIN_TEXT), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys(), *even_simplex_polys()]


def bound_inputs() -> list[SparsePolynomial]:
    """The 820 bound inputs in golden order: `golden_inputs()`, then the 700
    sweep draws."""
    return golden_inputs() + sweep_draws()


def even_simplex_polys(seed: int = 0, count: int = 18) -> list[SparsePolynomial]:
    """Bounded polynomials over the even simplex conv{0, 2d e_i}: a positive
    constant and x_i^2d, (n, 2d) cycling over n = 1..3 within 2d = 4, 6, 8,
    plus 1..n+3 interior terms of either sign.  Seed 0 and count 18 give the
    inputs of the bound-sonc benchmark workload."""
    rng = np.random.default_rng(seed)
    polys = []
    for i in range(count):
        n, two_d = 1 + i % 3, (4, 6, 8)[i // 3 % 3]
        terms = {(0,) * n: 10.0 ** rng.uniform(-1, 1)}
        for j in range(n):
            terms[tuple(two_d if t == j else 0 for t in range(n))] = 10.0 ** rng.uniform(-1, 1)
        interior = [a for a in itertools.product(range(1, two_d), repeat=n) if sum(a) < two_d]
        k = int(rng.integers(1, n + 4))
        for idx in rng.choice(len(interior), size=min(k, len(interior)), replace=False):
            terms[interior[idx]] = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
        polys.append(SparsePolynomial.from_terms(terms, n=n))
    return polys


#: Random starts of the multistart oracle, besides 0 and +-1.
RANDOM_STARTS = 20


def multistart_min(p: SparsePolynomial) -> float:
    """The least value of p over the starts 0, +-1 and RANDOM_STARTS
    uniform draws from [-3, 3]^n (rng 0) and the points where
    `bounds._descend` from each of them stops; a non-finite value reads as
    1e300."""
    if p.n == 0:
        return p.evaluate(())
    n = p.n
    draws = np.random.default_rng(0).uniform(-3.0, 3.0, size=(RANDOM_STARTS, n))
    starts = np.vstack([np.zeros(n), np.ones(n), -np.ones(n), draws])
    values = [p.evaluate(x) for start in starts for x in (_descend(p, start), start)]
    return min(val if math.isfinite(val) else 1e300 for val in values)


def bound_parts(p: SparsePolynomial) -> tuple:
    """What `certify_optimality` reads off its one solve at the constant
    point: the certificate and vertex values of `bounds._certify`, and the
    unbounded witness `bounds._unbounded_curve` finds on the terms no
    circuit covers (None when there is none)."""
    zero = (0,) * p.n
    cert, vertices, uncovered = _certify(p, SupportSet(p.n, tuple(set(p.support.points) | {zero})), zero)
    return cert, vertices, _unbounded_curve(p, uncovered)


def abs_coefficient_eval(p: SparsePolynomial, x) -> float:
    """|p| evaluated at |x|: all coefficients replaced by absolute values."""
    total = 0.0
    for exp, coef in p.coefficients.items():
        term = abs(coef)
        for xi, e in zip(x, exp):
            if e:
                term *= abs(float(xi)) ** e
        total += term
    return total


def pairing(p: SparsePolynomial, points, values) -> float:
    """sum_e p_e v_e over the dual vector's points, added left to right.
    Builtin sum() rounds floats differently from Python 3.12 on, so an
    exact comparison with p_dual goes through this one loop."""
    total = 0.0
    for e, v in zip(points, values):
        total += p.coefficients.get(tuple(e), 0.0) * v
    return total


def eval_on_points(p: SparsePolynomial, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of p on rows of xs."""
    total = np.zeros(len(xs))
    for exp, coef in p.coefficients.items():
        term = np.full(len(xs), coef)
        for i, e in enumerate(exp):
            if e:
                term = term * xs[:, i] ** e
        total += term
    return total


def moment_mixture(rng: np.random.Generator, atoms: int = 3) -> np.ndarray:
    """A random nonnegative mixture of univariate-quartic moment vectors;
    its Hankel matrix is automatically positive semidefinite."""
    v = np.zeros(5)
    for _ in range(atoms):
        x = rng.uniform(-1.5, 1.5)
        w = rng.uniform(0.0, 1.0)
        v += w * np.array([1.0, x, x ** 2, x ** 3, x ** 4])
    return v


def near_quartic_boundary(v, margin: float = 1e-4) -> bool:
    """True when any of the eight quartic dual-cone inequality values is
    within `margin` of zero (used to exclude undecidable boundary draws)."""
    v0, v1, v2, v3, v4 = (float(x) for x in v)
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
    return any(abs(x) < margin for x in checks)


MOTZKIN_TEXT = "1 + x1^2*x2^4 + x1^4*x2^2 - 3*x1^2*x2^2"


def dense_support(n: int, d: int) -> SupportSet:
    return SupportSet.of([a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d], n=n)


def dual_inputs(per_support: int = 16) -> list[DualVector]:
    """A fixed draw (rng 5) on dense n1d8, n2d6 and n3d4: per support,
    `per_support` mixtures of one to three moment vectors at points of
    [-1.5, 1.5]^n, every second one with its odd coordinates then scaled by
    one U(0.8, 1.6) factor, which may push it out of the dual cone."""
    rng = np.random.default_rng(5)
    vectors = []
    for n, d in ((1, 8), (2, 6), (3, 4)):
        A = dense_support(n, d)
        exps = np.array(A.points, dtype=float)
        odd = np.array([any(e % 2 for e in p) for p in A.points])
        for i in range(per_support):
            v = np.zeros(len(exps))
            for _ in range(int(rng.integers(1, 4))):
                v += rng.uniform(0.0, 1.0) * np.prod(rng.uniform(-1.5, 1.5, size=n) ** exps, axis=1)
            if i % 2:
                v[odd] *= rng.uniform(0.8, 1.6)
            vectors.append(DualVector(A, dict(zip(A.points, v.tolist()))))
    return vectors


def witness_residual(circuit: Circuit, v: DualVector, v_star: float, tau) -> float:
    """max_j |b_j - s - (beta - alpha(j)) . tau| relative to the rows' scale,
    max_j of |b_j - s| + sum_i |(beta - alpha(j))_i tau_i|.  The residual is
    exact, with b_j - s = v* (sum_i lambda_i g_i - g_j) for the floats
    g_j = log v_alpha(j) and the exact weights lambda, so the rows are
    consistent and only the witness's own rounding shows."""
    if v_star == 0.0:
        return 0.0
    logs = [Fraction(math.log(v[a])) for a in circuit.vertices]
    mean = sum(mu * g for mu, g in zip(circuit.barycentric, logs))
    residual = scale = Fraction(0)
    for a, g in zip(circuit.vertices, logs):
        rhs = Fraction(v_star) * (mean - g)
        terms = [(b - x) * Fraction(t) for b, x, t in zip(circuit.inner, a, tau)]
        residual = max(residual, abs(rhs - sum(terms)))
        scale = max(scale, abs(rhs) + sum(map(abs, terms)))
    return float(residual / scale) if scale else 0.0


def nearest_point_inputs() -> list[list[list[int]]]:
    """The 500 seeded row sets (rng 20) of the nearest-point oracle test:
    m <= 12 rows of n <= 4 entries in [-8, 8], cycling over five families:
    as drawn; duplicated rows; collinear, through the origin or on one side
    of it; each entry shifted by -2^20, 0 or 2^20; and every row shifted by
    one vector of entries -2^20 or 2^20, so the rows cluster far from the
    origin."""
    rng = np.random.default_rng(20)
    sets = []
    for i in range(500):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        rows = rng.integers(-8, 9, size=(m, n))
        if i % 5 == 1:
            rows = rows[rng.integers(0, max(1, m // 2), size=m)]
        elif i % 5 == 2:
            rows = rng.integers(-4 if i % 10 == 2 else 1, 5, size=(m, 1)) * rows[:1]
        elif i % 5 == 3:
            rows = rows + rng.choice([-MAX_EXPONENT, 0, MAX_EXPONENT], size=(m, n))
        elif i % 5 == 4:
            rows = rows + rng.choice([-MAX_EXPONENT, MAX_EXPONENT], size=n)
        sets.append(rows.tolist())
    return sets


def _counted(fn, calls: list[int], multi: list[int] | None = None):
    def wrapper(*args):
        calls[0] += 1
        if multi is not None:
            multi[0] += len(args) > 2 and args[2] is not None
        return fn(*args)

    return wrapper


if __name__ == "__main__":
    from sonckit import bounds

    steps, states, multi = [0], [0], [0]
    bounds._newton_step, bounds._eliminate = _counted(bounds._newton_step, steps), _counted(bounds._eliminate, states, multi)
    polys = bound_inputs()
    blobs = [certify_optimality(p).to_json_dict() for p in polys]
    lines = [json.dumps(blob, sort_keys=True) for blob in blobs]
    unbounded = sum(blob["unbounded"] is not None for blob in blobs)
    counts = f"steps={steps[0]} states={states[0]} multi={multi[0]} unbounded={unbounded}"
    print(len(polys), hashlib.sha256("\n".join(lines).encode()).hexdigest(), counts)

    vectors, lines, members, residual = dual_inputs(), [], 0, 0.0
    for v in vectors:
        report = sonc_dual_membership(v.support, v)
        members += report.member
        circuits = enumerate_circuits(v.support).circuits
        blob = report.to_json_dict()
        for w, entry in zip(report.witnesses, blob.get("witnesses", ())):
            residual = max(residual, witness_residual(circuits[w.circuit_index], v, w.v_star, w.tau))
            del entry["tau"]
        lines.append(json.dumps(blob, sort_keys=True))
    print(len(vectors), hashlib.sha256("\n".join(lines).encode()).hexdigest(), f"members={members} residual={residual:.1e}")

    points = [_nearest_point(diffs) for diffs in nearest_point_inputs()]
    lines = [json.dumps(None if x is None else [str(xi) for xi in x]) for x in points]
    print(len(points), hashlib.sha256("\n".join(lines).encode()).hexdigest(), f"none={points.count(None)}")
