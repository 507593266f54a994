"""End-to-end acceptance suite.

Each criterion runs at its stated size and tolerance, prints one PASS/FAIL
line (visible with ``pytest -s``), and asserts both the result and the
runtime budget.  Criterion 10 re-verifies every certificate emitted by
criterion 9, so the two share a module-level store and must run in file
order (pytest's default).
"""

import math
import time

import numpy as np
import pytest

from sonckit import (
    Circuit,
    CircuitPolynomial,
    DualVector,
    Status,
    SupportSet,
    certify_optimality,
    circuit_number,
    enumerate_circuits,
    entropy_iff_expcone,
    entropy_minimizer,
    is_nonneg_circuit,
    moment_vector,
    parse_polynomial,
    psd_dual_quartic,
    quartic_dual_membership,
    relative_entropy,
    sonc_dual_membership,
    verify_certificate,
    verify_entropy_witness,
)

from _gen import (
    MOTZKIN_TEXT,
    brute_force_circuits,
    eval_on_points,
    moment_mixture,
    near_quartic_boundary,
    random_circuit,
    random_sparse_poly,
    random_support,
)

A4 = SupportSet.of([(i,) for i in range(5)])

_BOUND_RESULTS: list = []  # filled by criterion 9, consumed by criterion 10


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {name} ({elapsed * 1e3:.1f} ms, limit {limit * 1e3:.0f} ms)")
    assert ok, f"criterion {num} failed: {name}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def circuits_1000():
    rng = np.random.default_rng(101)
    return [random_circuit(rng) for _ in range(1000)]


def test_criterion_1_circuit_numbers():
    motzkin = Circuit([(0, 0), (2, 4), (4, 2)], (2, 2))
    quad = Circuit([(0,), (2,)], (1,))
    t0 = time.perf_counter()
    theta_m = circuit_number((1.0, 1.0, 1.0), motzkin)
    theta_q = circuit_number((1.0, 1.0), quad)
    elapsed = time.perf_counter() - t0
    ok = abs(theta_m - 3.0) <= 1e-12 * 3.0 and abs(theta_q - 2.0) <= 1e-12 * 2.0
    _report(1, "circuit numbers (3 and 2)", ok, elapsed, 1e-3)


def test_criterion_2_circuit_enumeration():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    cat = enumerate_circuits(A4)
    got = [(c.vertices, c.inner) for c in cat.circuits if c.k == 2]
    ok = got == [
        (((0,), (2,)), (1,)),
        (((0,), (4,)), (1,)),
        (((0,), (4,)), (2,)),
        (((0,), (4,)), (3,)),
        (((2,), (4,)), (3,)),
    ]
    for _ in range(50):
        n = int(rng.integers(1, 4))
        A = random_support(rng, n, max_points=8)
        catalog = enumerate_circuits(A)
        mine = {(c.vertices, c.inner) for c in catalog.circuits if c.k >= 2}
        ok = ok and mine == brute_force_circuits(A)
        ok = ok and tuple(c.inner for c in catalog.circuits if c.k == 1) == A.even_points()
    elapsed = time.perf_counter() - t0
    _report(2, "enumeration vs brute force (50 supports)", ok, elapsed, 5.0)


def test_criterion_3_number_vs_witness(circuits_1000):
    rng = np.random.default_rng(103)
    data = [
        (c, tuple(10.0 ** rng.uniform(-2, 2, size=c.k))) for c in circuits_1000
    ]
    t0 = time.perf_counter()
    disagreements = 0
    for c, coefs in data:
        theta = circuit_number(coefs, c)
        for rel in (-1e-4, 1e-4):
            p = CircuitPolynomial(c, coefs, -theta * (1.0 + rel))
            by_number, wit = is_nonneg_circuit(p)
            by_witness = wit is not None and verify_entropy_witness(p, wit)
            if by_number != by_witness or by_number != (rel <= 0):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(3, "circuit number vs entropy witness (1000 circuits)", disagreements == 0, elapsed, 5.0)


def test_criterion_4_entropy_minimizer(circuits_1000):
    rng = np.random.default_rng(104)
    data = [
        (c, tuple(10.0 ** rng.uniform(-2, 2, size=c.k)), 10.0 ** rng.uniform(-2, 2, size=100))
        for c in circuits_1000
    ]
    t0 = time.perf_counter()
    ok = True
    for c, coefs, rhos in data:
        nu, val = entropy_minimizer(c, coefs)
        theta = circuit_number(coefs, c)
        ok = ok and abs(val + theta) <= 1e-10 * theta
        mu = tuple(float(m) for m in c.barycentric)
        ec = tuple(math.e * x for x in coefs)
        for rho in rhos:
            if val > relative_entropy(tuple(rho * m for m in mu), ec) + 1e-10 * max(1.0, theta):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(4, "closed-form minimizer beats 100 scalings (1000 circuits)", ok, elapsed, 5.0)


def test_criterion_5_expcone_equivalence():
    rng = np.random.default_rng(105)
    nus = 10.0 ** rng.uniform(-3, 3, size=100000)
    lams = 10.0 ** rng.uniform(-3, 3, size=100000)
    deltas = rng.uniform(-10, 10, size=100000)
    t0 = time.perf_counter()
    disagreements = tested = 0
    for nu, lam, delta in zip(nus, lams, deltas):
        margin = abs(nu * math.log(nu / lam) - delta) / max(1.0, nu)
        if margin < 1e-7:
            continue
        tested += 1
        a, b = entropy_iff_expcone(nu, lam, delta)
        disagreements += a != b
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and tested >= 99000
    _report(5, f"entropy vs exponential cone ({tested} triples)", ok, elapsed, 2.0)


def test_criterion_6_quartic_dual_oracle():
    rng = np.random.default_rng(106)
    enumerate_circuits(A4)  # warm the cached catalog before timing
    t0 = time.perf_counter()
    disagreements = tested = 0
    while tested < 10000:
        vec = rng.uniform(-2, 2, size=5)
        if near_quartic_boundary(vec):
            continue
        tested += 1
        v = DualVector(A4, {(i,): float(x) for i, x in enumerate(vec)})
        generic = sonc_dual_membership(A4, v).member
        closed = quartic_dual_membership(vec)
        disagreements += generic != closed
    inclusion_ok = True
    for i in range(10000):
        vec = moment_mixture(rng)
        if not psd_dual_quartic(vec):
            inclusion_ok = False
            continue
        if not quartic_dual_membership(vec):
            inclusion_ok = False
        if i % 100 == 0:
            v = DualVector(A4, {(j,): float(x) for j, x in enumerate(vec)})
            if not sonc_dual_membership(A4, v, tol=1e-7).member:
                inclusion_ok = False
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and inclusion_ok
    _report(6, "generic vs closed-form quartic dual (2x10^4 points)", ok, elapsed, 60.0)


def test_criterion_7_separating_point():
    enumerate_circuits(A4)  # warm the cached catalog before timing
    vec = [2.0, 0.0, 1.0, 1.0, 1.0]
    v = DualVector(A4, {(i,): x for i, x in enumerate(vec)})
    t0 = time.perf_counter()
    ok = (
        sonc_dual_membership(A4, v).member
        and quartic_dual_membership(vec)
        and not psd_dual_quartic(vec)
    )
    elapsed = time.perf_counter() - t0
    _report(7, "separating point (2,0,1,1,1)", ok, elapsed, 0.010)


def test_criterion_8_moment_vectors():
    rng = np.random.default_rng(108)
    cases = []
    while len(cases) < 1000:
        n = int(rng.integers(1, 4))
        A = random_support(rng, n, max_points=7, max_entry=6)
        x = rng.uniform(-3.0, 3.0, size=n)
        if rng.uniform() < 0.15:
            x[int(rng.integers(0, n))] = 0.0
        v = moment_vector(tuple(x), A)
        if all(math.isfinite(val) for val in v.as_tuple()):
            cases.append((A, v))
    t0 = time.perf_counter()
    ok = all(sonc_dual_membership(A, v, tol=1e-7).member for A, v in cases)
    elapsed = time.perf_counter() - t0
    _report(8, "moment vectors all dual-feasible (1000 points)", ok, elapsed, 30.0)


def test_criterion_9_optimization_end_to_end():
    rng = np.random.default_rng(109)
    t0 = time.perf_counter()
    motzkin = parse_polynomial(MOTZKIN_TEXT)
    r1 = certify_optimality(motzkin)
    ok = (
        r1.status is Status.OPTIMALITY_CERTIFIED
        and abs(r1.p_sonc) <= 1e-6
        and max(abs(z - 1.0) for z in r1.optimal_point) <= 1e-4
    )
    _BOUND_RESULTS.append((motzkin, r1))

    quartic = parse_polynomial("1 + x1^4 - 3*x1^2")
    r2 = certify_optimality(quartic)
    ok = ok and (
        r2.status is Status.OPTIMALITY_CERTIFIED
        and abs(r2.p_sonc - (-1.25)) <= 1e-6
        and abs(r2.optimal_point[0] ** 2 - 1.5) <= 1e-4
    )
    _BOUND_RESULTS.append((quartic, r2))

    for _ in range(100):
        n = int(rng.integers(1, 3))
        p = random_sparse_poly(rng, n, max_degree=6, max_terms=5)
        scale = 1.0 + max(abs(c) for c in p.coefficients.values())
        r = certify_optimality(p)
        _BOUND_RESULTS.append((p, r))
        if math.isfinite(r.p_sonc):
            if r.p_sonc > r.p_dual + 1e-5 * scale:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(9, "bounds, optimality, weak duality (102 instances)", ok, elapsed, 120.0)


def test_criterion_10_certificate_soundness():
    assert _BOUND_RESULTS, "criterion 9 must run first"
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    ok = True
    for p, r in _BOUND_RESULTS:
        if r.certificate is None:
            continue
        if not verify_certificate(p, r.certificate):
            ok = False
        scale = 1.0 + max(abs(c) for c in p.coefficients.values()) if p.coefficients else 1.0
        if p.n:
            xs = rng.uniform(-3.0, 3.0, size=(10000, p.n))
            if float(eval_on_points(p, xs).min()) < r.certificate.gamma - 1e-6 * scale:
                ok = False
        elif p.evaluate(()) < r.certificate.gamma - 1e-6 * scale:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(10, f"certificate soundness ({len(_BOUND_RESULTS)} results)", ok, elapsed, 60.0)
