"""Feasibility decomposition, lower bounds, dual program, optimality."""

import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import minimize

from sonckit import (
    CertificatePiece,
    Circuit,
    CircuitPolynomial,
    SoncCertificate,
    Status,
    SparsePolynomial,
    SupportSet,
    UnboundedWitness,
    certify_optimality,
    enumerate_circuits,
    is_nonneg_circuit,
    moment_vector,
    parse_polynomial,
    sonc_dual_membership,
    sonc_feasibility,
    verify_certificate,
    verify_unbounded,
)
from sonckit import bounds
from sonckit import dual
from sonckit.bounds import _nearest_point
from sonckit.circuits import SupportTooLargeError, is_even_point
from sonckit.polynomials import MAX_EXPONENT, serialize_polynomial, value_gradient_hessian

from _gen import (
    MOTZKIN_TEXT,
    RANDOM_STARTS,
    bound_parts,
    criterion9_polys,
    eval_on_points,
    even_simplex_polys,
    golden_inputs,
    multistart_min,
    nearest_point_inputs,
    pairing,
    random_sparse_poly,
    random_support,
    sweep_draws,
)

#: Membership tolerance for the dual points the bound returns.
DUAL_FEAS_TOL = 1e-7


def motzkin():
    return parse_polynomial(MOTZKIN_TEXT)


def _record_solves(monkeypatch) -> list:
    """Wrap bounds._central_path, the barrier solve, so that every call appends its circuit rows."""
    calls = []
    real = bounds._central_path

    def recording(lam, *args):
        calls.append(lam)
        return real(lam, *args)

    monkeypatch.setattr(bounds, "_central_path", recording)
    return calls


def _record_nearest_points(monkeypatch) -> list:
    """Wrap bounds._nearest_point, the curve's search, so that every call appends its rows."""
    calls = []
    real = bounds._nearest_point

    def recording(diffs):
        calls.append(diffs)
        return real(diffs)

    monkeypatch.setattr(bounds, "_nearest_point", recording)
    return calls


def _record_lps(monkeypatch) -> list:
    """Wrap scipy.optimize.linprog, which the dual SAGE test imports on each use, so that every call appends its arguments."""
    lps = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        lps.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return lps


def _exposing_lp(diffs: list) -> int:
    """HiGHS status of the LP for w with <w, d> >= 1 for every row d and least
    l1 norm: 0 when one exists, 2 when none does (the origin is in the hull)."""
    rows = np.array(diffs, dtype=float)
    c = np.ones(2 * rows.shape[1])
    return scipy.optimize.linprog(c, A_ub=np.hstack([-rows, rows]), b_ub=-np.ones(len(rows)), method="highs").status


def _assert_nearest(diffs: list, x: list) -> None:
    """x has least pairing exactly 1 with the rows d and is a nonnegative
    combination of the rows it pairs to 1 with: the point of their hull
    nearest the origin, scaled.  Where float nnls cannot confirm the
    combination (active rows nearly antiparallel near 2^20), it must hold
    exactly (`_exact_cone_combination`)."""
    pairings = [sum(a * b for a, b in zip(x, d)) for d in diffs]
    assert min(pairings) == 1, diffs
    active = [d for d, q in zip(diffs, pairings) if q == 1]
    residual = scipy.optimize.nnls(np.array(active, dtype=float).T, np.array(x, dtype=float))[1]
    assert residual <= 1e-9 * math.hypot(*map(float, x)) or _exact_cone_combination(active, x), diffs


def _exact_cone_combination(rows: list, x: list) -> bool:
    """Whether x = sum_i c_i r_i exactly, with every c_i >= 0, over some
    linearly independent subset of the rows (Caratheodory: one exists when
    any nonnegative combination does).  Each subset's c solves its Gram
    system R R' c = R x in Fractions."""
    x = [Fraction(xi) for xi in x]
    for k in range(1, len(x) + 1):
        for subset in itertools.combinations(rows, k):
            system = [[Fraction(sum(a * b for a, b in zip(r, q))) for q in (*subset, x)] for r in subset]
            for i in range(k):  # Gauss-Jordan; a zero pivot column means dependent rows
                pivot = next((j for j in range(i, k) if system[j][i]), None)
                if pivot is None:
                    break
                system[i], system[pivot] = system[pivot], system[i]
                for j in range(k):
                    if j != i and system[j][i]:
                        f = system[j][i] / system[i][i]
                        system[j] = [a - f * b for a, b in zip(system[j], system[i])]
            else:
                c = [system[i][k] / system[i][i] for i in range(k)]
                if min(c) >= 0 and [sum(ci * r[t] for ci, r in zip(c, subset)) for t in range(len(x))] == x:
                    return True
    return False


def _extended_support_of(A: SupportSet) -> SupportSet:
    return SupportSet(A.n, tuple(set(A.points) | {(0,) * A.n}))


class TestFeasibility:
    def test_motzkin_is_a_single_piece(self):
        p = motzkin()
        cert = sonc_feasibility(p)
        assert cert is not None
        assert len(cert.pieces) == 1
        piece = cert.pieces[0]
        assert piece.inner == (2, 2)
        assert piece.c == pytest.approx((1.0, 1.0, 1.0))
        assert piece.delta == pytest.approx(-3.0)
        assert cert.residual.coefficients == {}
        assert verify_certificate(p, cert)

    def test_residual_only(self):
        p = parse_polynomial("1 + x1^2")
        cert = sonc_feasibility(p)
        assert cert is not None and cert.pieces == ()
        assert cert.residual.coefficients == {(0,): 1.0, (2,): 1.0}

    def test_infeasible_quartic(self):
        p = parse_polynomial("1 + x1^4 - 3*x1^2")
        assert sonc_feasibility(p) is None

    def test_odd_coefficient_without_circuit(self):
        p = parse_polynomial("1 + x1")
        assert sonc_feasibility(p) is None

    def test_split_across_two_circuits(self):
        # x^2 draws from both (0,2;1)-type circuits: 2 + x^4 - 2.5x^2 needs
        # the (0,4;2) circuit; 2*sqrt(2) > 2.5 so it is feasible
        p = parse_polynomial("2 + x1^4 - 2.5*x1^2")
        cert = sonc_feasibility(p)
        assert cert is not None
        assert verify_certificate(p, cert)

    def test_recovers_constructed_decompositions(self):
        # instances built as explicit sums of nonneg circuit polynomials with
        # margin, plus even monomials; every one must be certified
        rng = np.random.default_rng(61)
        attempted = produced = 0
        while attempted < 40:
            n = int(rng.integers(1, 3))
            A = random_support(rng, n, max_points=7, max_entry=6)
            catalog = enumerate_circuits(_extended_support_of(A))
            higher = [c for c in catalog.circuits if c.k >= 2]
            if not higher:
                continue
            attempted += 1
            terms: dict = {}
            for _ in range(int(rng.integers(1, 4))):
                circuit = higher[int(rng.integers(0, len(higher)))]
                coefs = tuple(10.0 ** rng.uniform(-1, 1, size=circuit.k))
                theta = sum(
                    float(m) * (math.log(ci) - math.log(float(m)))
                    for ci, m in zip(coefs, circuit.barycentric)
                )
                sign = -1.0 if circuit.beta_even else rng.choice([-1.0, 1.0])
                delta = sign * math.exp(theta) * rng.uniform(0.1, 0.8)
                for vert, ci in zip(circuit.vertices, coefs):
                    terms[vert] = terms.get(vert, 0.0) + ci
                terms[circuit.inner] = terms.get(circuit.inner, 0.0) + delta
            for exp in catalog.support.even_points():
                if rng.uniform() < 0.3:
                    terms[exp] = terms.get(exp, 0.0) + rng.uniform(0.0, 2.0)
            p = type(motzkin()).from_terms(terms, n=n)
            if not all(e in catalog.support for e in p.coefficients):
                attempted -= 1
                continue
            q = type(p)(catalog.support, dict(p.coefficients))
            cert = sonc_feasibility(q)
            if cert is None:
                continue
            produced += 1
            assert verify_certificate(q, cert)
            for piece in cert.pieces:
                cp = CircuitPolynomial(Circuit(piece.vertices, piece.inner), piece.c, piece.delta)
                assert is_nonneg_circuit(cp)[0]
        assert produced == attempted


def _from_json(blob: dict) -> SoncCertificate:
    """The certificate a reader rebuilds from its JSON alone."""
    pieces = tuple(
        CertificatePiece(tuple(map(tuple, q["vertices"])), tuple(q["beta"]), tuple(q["c"]), q["delta"])
        for q in blob["pieces"]
    )
    return SoncCertificate(blob["gamma"], pieces, SparsePolynomial.from_json_dict(blob["residual"]))


def _tampered(cert: SoncCertificate, **fields) -> SoncCertificate:
    """cert with its first piece's fields replaced."""
    first = dataclasses.replace(cert.pieces[0], **fields)
    return SoncCertificate(cert.gamma, (first, *cert.pieces[1:]), cert.residual)


class TestSelfDescribingCertificate:
    """A certificate is checked on its own JSON: each piece names its
    circuit by vertices and inner point, and no catalog is read."""

    def test_checks_on_its_own_json(self):
        checked = 0
        for p in golden_inputs():
            cert = certify_optimality(p).certificate
            if cert is None:
                continue
            blob = json.loads(json.dumps(cert.to_json_dict()))
            assert [sorted(q) for q in blob["pieces"]] == [["beta", "c", "delta", "vertices"]] * len(cert.pieces)
            assert _from_json(blob) == cert
            assert verify_certificate(p, _from_json(blob))
            checked += 1
        assert checked == 37

    @pytest.mark.parametrize(
        "text, fields",
        [
            ("1 + x1^4 - 3*x1^2", {"vertices": ((0,), (3,))}),  # an odd vertex
            ("1 + x1^4 - 3*x1^2", {"vertices": ((0,), (2,), (4,)), "c": (2.25, 1.0, 1.0)}),  # affinely dependent
            ("1 + x1^4 - 3*x1^2", {"inner": (4,)}),  # beta is a vertex
            (MOTZKIN_TEXT, {"inner": (1, 2)}),  # beta on the edge from 0 to (2, 4)
            (MOTZKIN_TEXT, {"vertices": ((0, 0), (2, 2), (4, 4))}),  # affinely dependent
        ],
    )
    def test_tampered_circuit_is_rejected(self, text, fields):
        p = parse_polynomial(text)
        cert = certify_optimality(p).certificate
        assert verify_certificate(p, cert)
        assert verify_certificate(p, _tampered(cert, **fields)) is False

    def test_reordered_coefficients_are_rejected(self):
        p = parse_polynomial("1 + x1^4 - 3*x1^2")
        cert = certify_optimality(p).certificate
        (piece,) = cert.pieces
        assert piece.vertices == ((0,), (4,)) and piece.c[0] != piece.c[1]
        assert verify_certificate(p, _tampered(cert, c=piece.c[::-1])) is False

    def test_bound_path_builds_one_circuit_per_piece(self, monkeypatch):
        built = []
        post_init = Circuit.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        enumerate_circuits.cache_clear()
        for p in [motzkin(), *even_simplex_polys()]:
            built.clear()
            r = certify_optimality(p)
            assert r.certificate is not None
            assert [(c.vertices, c.inner) for c in built] == [(q.vertices, q.inner) for q in r.certificate.pieces]
        # The inner point x^2 of the circuit {0, x^4} is no vertex, and x^5 has no circuit.
        built.clear()
        r = certify_optimality(parse_polynomial("1 + x1^4 - 3*x1^2 + x1^5"))
        assert r.certificate is None and r.status is Status.DUAL_ONLY
        assert built == []


def _extended(p):
    return SupportSet(p.n, tuple(set(p.support.points) | {(0,) * p.n}))


class TestLowerBound:
    def test_motzkin_bound_zero(self):
        r = certify_optimality(motzkin())
        assert r.certificate is not None and r.status in (Status.CERTIFIED, Status.OPTIMALITY_CERTIFIED)
        assert abs(r.p_sonc) <= 1e-6

    def test_shifted_quadratic(self):
        r = certify_optimality(parse_polynomial("1 + x1^2"))
        assert abs(r.p_sonc - 1.0) <= 1e-6

    def test_quartic_closed_form(self):
        r = certify_optimality(parse_polynomial("1 + x1^4 - 3*x1^2"))
        assert abs(r.p_sonc - (-1.25)) <= 1e-6

    def test_constant(self):
        r = certify_optimality(parse_polynomial("7"))
        assert r.p_sonc == pytest.approx(7.0, abs=1e-9)

    def test_unbounded_reports_infeasible(self):
        r = certify_optimality(parse_polynomial("x1"))
        assert r.status is Status.DUAL_ONLY and r.certificate is None
        assert r.p_sonc == -math.inf

    def test_certificate_matches_reported_gamma(self):
        p = parse_polynomial("1 + x1^4 - 3*x1^2")
        r = certify_optimality(p)
        assert r.certificate.gamma == r.p_sonc
        assert verify_certificate(p, r.certificate)

    def test_trace_is_monotone(self):
        # p - gamma is certified exactly up to the reported bound: every
        # gamma below it certifies, every gamma above it fails
        for text in (MOTZKIN_TEXT, "1 + x1^4 - 3*x1^2", "1 + x1^6 - 2*x1^3 + 0.5*x1^2"):
            p = parse_polynomial(text)
            bound = certify_optimality(p).p_sonc
            catalog = enumerate_circuits(_extended(p))
            zero = (0,) * p.n
            trace = []
            for gamma in bound + np.array([-1.0, -1e-2, -1e-4, 1e-4, 1e-2, 1.0]):
                coeffs = dict(p.coefficients)
                coeffs[zero] = coeffs.get(zero, 0.0) - gamma
                q = type(p)(catalog.support, {e: c for e, c in coeffs.items() if c != 0.0})
                trace.append(sonc_feasibility(q) is not None)
            assert trace == [True] * 3 + [False] * 3, text

    def test_feasible_gamma_set_is_a_ray(self):
        p = parse_polynomial("1 + x1^4 - 3*x1^2")
        catalog = enumerate_circuits(_extended(p))
        flags = []
        for gamma in np.linspace(-3.0, 0.5, 36):
            coeffs = dict(p.coefficients)
            coeffs[(0,)] = coeffs.get((0,), 0.0) - gamma
            q = type(p)(catalog.support, {e: c for e, c in coeffs.items() if c != 0.0})
            flags.append(sonc_feasibility(q) is not None)
        # monotone: True...True False...False
        assert flags == sorted(flags, reverse=True)
        switch = flags.index(False)
        assert np.linspace(-3.0, 0.5, 36)[switch] >= -1.25 - 1e-9


def _even_simplex_terms(rng) -> dict:
    """A positive constant and x^2d, 2d in 4..12, with 1-3 interior terms:
    odd ones of either sign, even ones negative."""
    two_d = 2 * int(rng.integers(2, 7))
    terms = {(0,): 10.0 ** rng.uniform(-1, 1), (two_d,): 10.0 ** rng.uniform(-1, 1)}
    for a in rng.choice(np.arange(1, two_d), size=int(rng.integers(1, 4)), replace=False):
        mag = 10.0 ** rng.uniform(-1, 1)
        terms[(int(a),)] = -mag if a % 2 == 0 else float(rng.choice([-1.0, 1.0])) * mag
    return terms


def _simplex_sonc_value(terms: dict) -> float:
    """min over t >= 0 of c_0 + c_2d t^2d - sum |c_i| t^(a_i), the SONC value
    of a univariate even-simplex polynomial, from the real roots of the
    derivative."""
    top = max(e for (e,) in terms)
    inner = [(e, abs(c)) for (e,), c in terms.items() if 0 < e < top]
    deriv = np.zeros(top)  # coefficients of t^(top-1), ..., t^0
    deriv[0] = top * terms[(top,)]
    for a, c in inner:
        deriv[top - a] -= a * c
    roots = [r.real for r in np.roots(deriv) if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0.0]
    return min(terms[(0,)] + terms[(top,)] * t**top - sum(c * t**a for a, c in inner) for t in [0.0, *roots])


#: Inputs whose bound the bisection over coordinate ascent left far from
#: the SONC value: (coefficients, p_sonc, relative tolerance, status).
GAP_INPUTS = [
    ({(0,): 4.3275484811873905, (5,): -1.2741572245398474, (7,): -4.972587301179067, (8,): 1.7906591442303808},
     -422.80092, 1e-8, Status.OPTIMALITY_CERTIFIED),
    ({(3,): 1.4098224022779333, (4,): -10.263221598388144, (6,): 0.033370062625645305},
     -147986.162, 1e-8, Status.OPTIMALITY_CERTIFIED),
    ({(1,): 1.2093659962943597, (5,): 227.75520882698635, (6,): 8.956241577311502},
     -1.6222714e8, 1e-7, Status.OPTIMALITY_CERTIFIED),
    # Bottoms out near x = -8046; the bisection certified no bound at all.
    ({(3,): 7.164935125015811, (5,): 61.58628418644621, (6,): 0.00638155336655631}, -3.4532e20, 1e-4, Status.CERTIFIED),
]


class TestExactBound:
    def test_matches_univariate_oracle(self):
        rng = np.random.default_rng(20290)
        for _ in range(200):
            terms = _even_simplex_terms(rng)
            r = certify_optimality(SparsePolynomial.from_terms(terms, n=1))
            want = _simplex_sonc_value(terms)
            scale = 1.0 + max(map(abs, terms.values()))
            assert abs(r.p_sonc - want) <= 1e-6 * max(scale, abs(want)), terms

    @pytest.mark.parametrize("terms, want, rel, status", GAP_INPUTS)
    def test_closes_the_gap(self, terms, want, rel, status):
        p = SparsePolynomial.from_terms(terms, n=1)
        r = certify_optimality(p)
        assert r.p_sonc == pytest.approx(want, rel=rel)
        assert r.status is status
        assert verify_certificate(p, r.certificate)
        scale = 1.0 + max(map(abs, terms.values()))
        assert r.p_sonc <= r.p_dual + 1e-12 * max(scale, abs(r.p_dual))


class TestDualProgram:
    """The dual value and point of `certify_optimality`."""

    def test_quartic(self):
        r = certify_optimality(parse_polynomial("1 + x1^4 - 3*x1^2"))
        value, v = r.p_dual, r.dual_point
        assert value == pytest.approx(-1.25, abs=1e-5)
        assert v[(0,)] == 1.0
        assert v[(2,)] == pytest.approx(1.5, abs=1e-4)
        assert v[(4,)] == pytest.approx(2.25, abs=1e-4)

    def test_motzkin(self):
        r = certify_optimality(motzkin())
        value, v = r.p_dual, r.dual_point
        assert value == pytest.approx(0.0, abs=1e-5)
        assert v.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-4)

    def test_shifted_quadratic(self):
        r = certify_optimality(parse_polynomial("1 + x1^2"))
        value, v = r.p_dual, r.dual_point
        assert value == pytest.approx(1.0, abs=1e-6)
        assert v[(2,)] == pytest.approx(0.0, abs=1e-6)

    def test_returned_point_is_always_feasible(self):
        # A returned dual point is feasible; an unbounded answer returns its
        # witness in place of one.  The draw runs on until 20 dual points.
        rng = np.random.default_rng(62)
        points = 0
        while points < 20:
            n = int(rng.integers(1, 3))
            p = random_sparse_poly(rng, n, max_degree=6, max_terms=5)
            r = certify_optimality(p)
            value, v = r.p_dual, r.dual_point
            if r.unbounded is not None:
                assert v is None and value == -math.inf and verify_unbounded(p, r.unbounded)
                continue
            points += 1
            support = _extended(p)
            assert sonc_dual_membership(support, v, tol=1e-7).member
            assert v[(0,) * n] == 1.0
            assert value == pytest.approx(
                sum(p.coefficients.get(e, 0.0) * v[e] for e in support.points), rel=1e-12, abs=1e-12
            )


class TestBarrierPoints:
    """The point read off the barrier's vertex values (`_barrier_points`)."""

    @staticmethod
    def barrier_point(p):
        points = bounds._barrier_points(p, bound_parts(p)[1])
        assert points[0] == (0.0,) * p.n and len(points) == 3
        return points[1]

    def test_quartic_moments(self):
        z = self.barrier_point(parse_polynomial("1 + x1^4 - 3*x1^2"))
        assert z == pytest.approx((math.sqrt(1.5),), rel=1e-8)

    def test_motzkin_all_ones(self):
        assert self.barrier_point(motzkin()) == pytest.approx((1.0, 1.0), rel=1e-8)

    def test_sign_recovery(self):
        # The odd term 2 x^3 is least at x = -1.5, where p is -0.6875.
        z = self.barrier_point(parse_polynomial("1 + x1^4 + 2*x1^3"))
        assert z == pytest.approx((-1.5,), rel=1e-8)

    def test_prefers_nonnegative_representative(self):
        z = self.barrier_point(parse_polynomial("1 + x1^4 + x2^4 - 2*x1^2 - 2*x2^2"))
        assert z == pytest.approx((1.0, 1.0), rel=1e-8)

    def test_unused_coordinate_defaults_to_zero(self):
        # x2 is in no circuit vertex: absent, or only in positive even terms.
        for p in [parse_polynomial("1 + x1^4 - 3*x1^2", n=2), parse_polynomial("1 + x1^4 - 3*x1^2 + x1^2*x2^2 + x2^4")]:
            z = self.barrier_point(p)
            assert z[1] == 0.0 and z[0] == pytest.approx(math.sqrt(1.5), rel=1e-8)


def _backward_error(hess, rows, grad, d) -> float:
    """|A d + grad| / (|A| |d| + |grad|) with A = hess + rows' rows and the
    residual formed exactly, so an ill-conditioned A adds no rounding; 0 for
    an exact solve (the final steps, where grad and d can both be 0)."""
    exact = [[Fraction(x) for x in row] for row in rows]
    A = [[Fraction(h) + sum(r[i] * r[j] for r in exact) for j, h in enumerate(hrow)] for i, hrow in enumerate(hess)]
    res = [sum(a * Fraction(x) for a, x in zip(row, d)) + Fraction(g) for row, g in zip(A, grad)]
    norm = lambda xs: math.hypot(*map(float, xs))
    return norm(res) and norm(res) / (norm([a for row in A for a in row]) * norm(d) + norm(grad))


class TestNewtonStep:
    """`_newton_step` on seeded SPD systems of 1-4 unknowns, and on the barrier's own."""

    @staticmethod
    def check(rng, f, big):
        """Draw a system of f unknowns with `big` rows of norm 1e2-1e8, as
        circuits of one bad point near a tie give, and up to two of norm < 1;
        check the step's backward error with those rows and with none."""
        q = rng.normal(size=(f, f))
        hess, grad = q @ q.T + 0.1 * np.eye(f), rng.normal(size=f)
        units = rng.normal(size=(big + int(rng.integers(0, 3)), f))
        units /= np.linalg.norm(units, axis=1)[:, None]
        norms = np.concatenate([10.0 ** rng.uniform(2, 8, size=big), rng.uniform(0.0, 1.0, size=len(units) - big)])
        rows = units * norms[:, None]
        for r in (rows.tolist(), []):
            d = bounds._newton_step(hess.tolist(), r, grad.tolist())
            assert _backward_error(hess, r, grad, d) <= 1e-12

    @pytest.mark.parametrize("big", [0, 1, 2, 3])
    def test_solves_the_system(self, big):
        rng = np.random.default_rng(100 + big)
        for _ in range(50):
            self.check(rng, int(rng.integers(big + 1, 5)), big)

    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_big_rows_spanning_every_direction(self, f):
        # The step along such rows is tiny next to the gradient.
        rng = np.random.default_rng(200 + f)
        for _ in range(50):
            self.check(rng, f, f + int(rng.integers(0, 2)))

    @pytest.mark.parametrize("f", [5, 6, 7, 8])
    def test_orders_beyond_the_barriers(self, f):
        # The barrier's systems have 1-3 unknowns on every input so far; the
        # elimination is written for any order.
        rng = np.random.default_rng(300 + f)
        for _ in range(20):
            self.check(rng, f, int(rng.integers(0, f + 1)))

    @pytest.mark.parametrize(
        "hess",
        [
            [[1.0, 1.0], [1.0, 1.0]],
            [[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1.0, math.inf], [math.inf, 1.0]],
        ],
    )
    def test_singular_or_not_positive_definite(self, hess):
        d = bounds._newton_step(hess, [], [1.0] * len(hess))
        assert d is None or not all(map(math.isfinite, d))

    @pytest.mark.parametrize(
        "broken",
        [
            lambda n: [[1.0] * n for _ in range(n)],
            lambda n: [[0.0] * n for _ in range(n)],
            lambda n: [[1.0 if i == j else math.nan for j in range(n)] for i in range(n)],
        ],
        ids=["singular", "not positive", "nan"],
    )
    def test_a_failed_step_ends_the_path(self, monkeypatch, broken):
        # Each barrier system of bound-sonc's inputs with two or more free
        # vertices, its Hessian replaced: the path returns None, and nothing
        # raises or warns.
        solves, path, step = [], bounds._central_path, bounds._newton_step
        monkeypatch.setattr(bounds, "_central_path", lambda *args: solves.append(args) or path(*args))
        for p in even_simplex_polys():
            certify_optimality(p)
        monkeypatch.setattr(bounds, "_newton_step", lambda hess, rows, grad: step(broken(len(grad)), [], grad))
        solves = [args for args in solves if args[3].sum() >= 2]
        assert len(solves) >= 10
        for args in solves:
            assert path(*args) is None

    def test_barrier_steps_are_backward_stable(self, monkeypatch):
        errors, real = [], bounds._newton_step

        def recording(hess, rows, grad):
            d = real(hess, rows, grad)
            errors.append(_backward_error(hess, rows, grad, d))
            return d

        monkeypatch.setattr(bounds, "_newton_step", recording)
        for p in golden_inputs():
            certify_optimality(p)
        assert len(errors) > 500 and max(errors) <= 1e-12


def _eliminate_arrays(gmin, a, d, sizes) -> np.ndarray:
    """The array form of `bounds._eliminate` that its scalar loop replaced:
    one Newton over every bad point at once, its sums by np.add.reduceat."""
    grp = np.repeat(np.arange(len(sizes)), sizes)
    first = np.flatnonzero(np.diff(grp, prepend=-1))
    big = a * gmin
    r = np.hypot(1.0, big)
    s = lo = gmin * (1.0 + 1.0 / (r + big)) / (1.0 + r)
    if len(first) < len(grp):
        hi = np.maximum(np.minimum(sizes / a, gmin), lo)
        top = d + 2.0 * gmin[grp]
        for _ in range(50):
            sg = s[grp]
            low, high = 1.0 / (d + sg), 1.0 / (top - sg)
            change = (np.add.reduceat(low - high, first) - a) / np.add.reduceat(np.square(low) + np.square(high), first)
            new = np.minimum(np.maximum(s + change, lo), hi)
            if (np.abs(new - s) <= 1e-15 * s).all():
                return new
            s = new
    return s


class TestEliminate:
    """`_eliminate` against its array form, on seeded states of 1-6 bad
    points: min G = 10^U(-4, 4), a min G = 10^U(-8, 8), and gaps d to the
    least G that are exact ties (d = 0) for the first circuit and 3 in 10
    others, else min G 10^U(-12, 3).  Up to 8 circuits per bad point the
    floats must be the same, bit for bit, and also on degenerate states."""

    @staticmethod
    def draw(rng, sizes):
        gmin = 10.0 ** rng.uniform(-4.0, 4.0, size=len(sizes))
        a = 10.0 ** rng.uniform(-8.0, 8.0, size=len(sizes)) / gmin
        starts = np.cumsum(sizes) - sizes
        d = np.repeat(gmin, sizes) * 10.0 ** rng.uniform(-12.0, 3.0, size=int(sizes.sum()))
        d[rng.random(len(d)) < 0.3] = 0.0
        d[starts] = 0.0
        return gmin, a, d

    @staticmethod
    def eliminate(gmin, a, d, sizes):
        """The call `_central_path` makes: d and the spans only when some bad point has more than one circuit."""
        if (sizes == 1).all():
            return bounds._eliminate(gmin.tolist(), a.tolist())
        ends = np.cumsum(sizes).tolist()
        return bounds._eliminate(gmin.tolist(), a.tolist(), d.tolist(), list(zip([0, *ends[:-1]], ends)))

    def test_matches_the_array_form(self):
        rng = np.random.default_rng(29)
        with np.errstate(all="ignore"):
            for _ in range(400):
                sizes = rng.integers(1, 9, size=int(rng.integers(1, 7)))
                gmin, a, d = self.draw(rng, sizes)
                assert np.array_equal(self.eliminate(gmin, a, d, sizes), _eliminate_arrays(gmin, a, d, sizes))

    @pytest.mark.parametrize("case", ["zero", "subnormal", "inf", "nan d", "a zero"])
    def test_degenerate_states(self, case):
        # min G of 0 divides by d + s = 0, which Python raises on; inf makes
        # lo nan, and nan must stay nan through the clip.
        rng = np.random.default_rng(30)
        with np.errstate(all="ignore"):
            for _ in range(100):
                sizes = rng.integers(1, 9, size=int(rng.integers(1, 7)))
                sizes[0] = max(sizes[0], 2)
                gmin, a, d = self.draw(rng, sizes)
                i = int(rng.integers(len(sizes)))
                if case == "nan d":
                    d[int(rng.integers(len(d)))] = math.nan
                elif case == "a zero":
                    a[i] = 0.0
                else:
                    gmin[i] = {"zero": 0.0, "subnormal": 5e-324, "inf": math.inf}[case]
                want = _eliminate_arrays(gmin, a, d, sizes)
                assert np.array_equal(self.eliminate(gmin, a, d, sizes), want, equal_nan=True)

    def test_many_circuits_within_4_ulps(self):
        """From 9 circuits on NumPy sums pairwise and the loop in order, so
        a sum may differ in its last bits, and the stop at a move of 1e-15 s
        (about 4.5 ulps) may then come a step earlier or later: on these
        draws, with 9-20 circuits at the first bad point, the slacks agree
        within 4 ulps."""
        rng = np.random.default_rng(31)
        with np.errstate(all="ignore"):
            for _ in range(200):
                sizes = rng.integers(1, 9, size=int(rng.integers(1, 7)))
                sizes[0] = rng.integers(9, 21)
                gmin, a, d = self.draw(rng, sizes)
                want = _eliminate_arrays(gmin, a, d, sizes)
                assert (np.abs(self.eliminate(gmin, a, d, sizes) - want) <= 4 * np.spacing(want)).all()


class TestRoundPieces:
    """`_round_pieces` on hand-built path values."""

    def test_shortfall_moves_to_the_anchored_piece(self):
        # Bad point x^3 over the hosts 1, x^2 and x^4, with the constant the
        # anchor: (x^2, x^4; x^3) has no anchor and (1, x^4; x^3) has one.
        # x^2 is small, so the unanchored piece's Theta falls short of its share.
        used = [(0,), (2,), (4,)]
        lam = np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]])
        grp, p_bad, p_host = np.array([0, 0]), np.array([-1.0]), np.array([1.0, 0.01, 1.0])
        fixed = np.array([True, False, False])
        g = np.ones(2)
        cs, deltas = bounds._round_pieces(lam, grp, p_bad, p_host, fixed, 1.0, np.ones(3), g, 0.5 * g, 1.5 * g)
        assert cs[0, 1:] == pytest.approx([0.01, 0.4], rel=1e-15)  # x^4 split 1.25 : 1.875 of theta
        theta = 2.0 * math.sqrt(0.01 * 0.4)
        assert theta < 0.5  # the even split of p_bad would leave the piece negative
        assert deltas[0] == pytest.approx(-theta, rel=1e-12)
        assert deltas[0] + deltas[1] == pytest.approx(-1.0, rel=1e-15)
        for r in range(2):
            on = np.flatnonzero(lam[r])
            circuit = Circuit(tuple(used[j] for j in on), (3,))
            piece = CircuitPolynomial(circuit, tuple(cs[r, on].tolist()), float(deltas[r]))
            assert is_nonneg_circuit(piece)[0], r


class TestCertifyOptimality:
    # Each bad coefficient is so small that its piece's anchor coefficient
    # underflows; rounded up to the least float, the piece stays nonnegative.
    @pytest.mark.parametrize(
        "text",
        [
            "x1^2 - 1e-200*x1 + 1",
            "x1^4 - 1e-300*x1^2 + 1",
            "x1^2*x2^2 + 1 - 1e-200*x1*x2",
            "1e300*x1^4 - 1e-300*x1^2 + 1e300",
            "x1^2 + 1e-300*x1 + 1",
            "x1^6 + x1^2*x2^4 + 1 - 1e-250*x1*x2 - 1e-250*x1^3",
        ],
    )
    def test_tiny_bad_coefficients_are_certified(self, text):
        p = parse_polynomial(text)
        r = certify_optimality(p)
        assert r.status is Status.OPTIMALITY_CERTIFIED and verify_certificate(p, r.certificate)
        assert r.p_sonc <= p.evaluate(r.optimal_point)
        assert sonc_feasibility(p) is not None

    @pytest.mark.parametrize("k", [-1000, 300, 900])
    def test_golden_inputs_at_power_of_two_scales(self, k):
        # Every coefficient stays a normal float, so the scaling is exact; the
        # barrier's floats then meet exp and log near the ends of their range.
        for p in golden_inputs():
            q = SparsePolynomial.from_terms({a: math.ldexp(c, k) for a, c in p.coefficients.items()}, n=p.n)
            r = certify_optimality(q)
            assert r.certificate is None or verify_certificate(q, r.certificate), serialize_polynomial(p)

    def test_barrier_calls_no_lapack_solve(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise AssertionError("np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", refusing)
        for p in even_simplex_polys():
            assert certify_optimality(p).certificate is not None

    def test_enumerates_at_most_once(self, monkeypatch):
        # One catalog per call, and none when no term is odd or negative.
        calls = []
        real = bounds.enumerate_circuits

        def counting(support):
            calls.append(support)
            return real(support)

        monkeypatch.setattr(bounds, "enumerate_circuits", counting)
        for p in [motzkin(), *criterion9_polys(), *even_simplex_polys(), parse_polynomial("1 + x1^2*x2^4")]:
            calls.clear()
            certify_optimality(p)
            bad = any(c < 0.0 or not is_even_point(exp) for exp, c in p.coefficients.items())
            assert len(calls) == bad, p.coefficients

    def test_quartic(self):
        r = certify_optimality(parse_polynomial("1 + x1^4 - 3*x1^2"))
        assert r.status is Status.OPTIMALITY_CERTIFIED
        assert r.p_sonc == pytest.approx(-1.25, abs=1e-6)
        assert r.p_dual == pytest.approx(-1.25, abs=1e-5)
        assert r.optimal_point[0] ** 2 == pytest.approx(1.5, abs=1e-5)

    def test_motzkin(self):
        r = certify_optimality(motzkin())
        assert r.status is Status.OPTIMALITY_CERTIFIED
        assert abs(r.p_sonc) <= 1e-6
        assert r.optimal_point == pytest.approx((1.0, 1.0), abs=1e-5)

    def test_shifted_quadratic(self):
        r = certify_optimality(parse_polynomial("1 + x1^2"))
        assert r.status is Status.OPTIMALITY_CERTIFIED
        assert r.optimal_point == pytest.approx((0.0,), abs=1e-7)

    @pytest.mark.parametrize("text", ["3*x1^2*x2^4", "x1^2", "1 + x1^2", "7"])
    def test_no_bad_point_is_settled_at_the_origin(self, text):
        # p is its constant plus nonnegative monomials, so p(0) is its minimum.
        p = parse_polynomial(text)
        r = certify_optimality(p)
        assert r.status is Status.OPTIMALITY_CERTIFIED
        assert r.optimal_point == (0.0,) * p.n
        assert r.p_dual == r.p_sonc == p.coefficients.get((0,) * p.n, 0.0)

    def test_optimal_point_is_the_dual_points_z(self):
        # p_dual is p(z), computed once: the pairing and a fresh evaluation agree to the bit.
        claimed = 0
        for p in [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys(), *even_simplex_polys()]:
            r = certify_optimality(p)
            if r.status is not Status.OPTIMALITY_CERTIFIED:
                continue
            claimed += 1
            support = _extended(p)
            assert moment_vector(r.optimal_point, support) == r.dual_point
            assert r.p_dual == pairing(p, support.points, r.dual_point.as_tuple())
            assert r.p_dual == p.evaluate(r.optimal_point), p.coefficients
        assert claimed == 29

    def test_unbounded_gives_dual_only(self):
        r = certify_optimality(parse_polynomial("x1"))
        assert r.status is Status.DUAL_ONLY
        assert r.p_sonc == -math.inf
        assert r.optimal_point is None

    def test_weak_duality_random(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            p = random_sparse_poly(rng, n, max_degree=6, max_terms=5)
            scale = 1.0 + max(abs(c) for c in p.coefficients.values())
            r = certify_optimality(p)
            if math.isfinite(r.p_sonc):
                assert r.p_sonc <= r.p_dual + 1e-5 * scale

    def test_weak_duality_to_rounding_on_criterion_9(self):
        # p_dual is p at an explicit point, so it can undercut the certified
        # bound by no more than the rounding of the two sums.
        for p in [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys()]:
            r = certify_optimality(p)
            if math.isfinite(r.p_sonc):
                scale = 1.0 + max(abs(c) for c in p.coefficients.values())
                assert r.p_sonc <= r.p_dual + 1e-12 * max(scale, abs(r.p_dual)), p.coefficients

    def test_optimality_claims_survive_random_search(self):
        rng = np.random.default_rng(66)
        instances = [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), parse_polynomial("1 + x1^2")]
        for _ in range(20):
            n = int(rng.integers(1, 3))
            instances.append(random_sparse_poly(rng, n, max_degree=6, max_terms=5))
        claimed = 0
        for p in instances:
            r = certify_optimality(p)
            if r.status is not Status.OPTIMALITY_CERTIFIED:
                continue
            claimed += 1
            scale = 1.0 + max(abs(c) for c in p.coefficients.values())
            xs = rng.uniform(-5.0, 5.0, size=(100000, p.n))
            assert float(eval_on_points(p, xs).min()) >= r.p_dual - 1e-5 * scale
        assert claimed >= 3

    def test_soundness_of_bounds_by_sampling(self):
        rng = np.random.default_rng(64)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 3))
            p = random_sparse_poly(rng, n, max_degree=6, max_terms=5)
            r = certify_optimality(p)
            if not math.isfinite(r.p_sonc):
                continue
            checked += 1
            scale = 1.0 + max(abs(c) for c in p.coefficients.values())
            xs = rng.uniform(-3.0, 3.0, size=(2000, n))
            assert float(eval_on_points(p, xs).min()) >= r.p_sonc - 1e-6 * scale
        assert checked >= 10


#: Bound outputs on criterion 9's inputs and the bound-sonc workload's 18,
#: recorded before the barrier step was restructured (`bound_record`), and
#: on the 700 sweep draws, recorded before the curve search read the
#: solve's uncovered terms.  The answers with an unbounded witness were
#: re-recorded when the witness replaced their curve point: p_dual null and
#: the witness under "unbounded", a key the other answers do not carry.
GOLDEN = Path(__file__).parent / "data" / "bound_golden.json"
SWEEP_GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"


def bound_record(p: SparsePolynomial) -> dict:
    """The input's text, and the status, p_sonc, p_dual, dual point and each
    certificate piece's (vertices, beta) that `certify_optimality` gives for
    it, and its unbounded witness where it has one."""
    blob = certify_optimality(p).to_json_dict()
    pieces = [[q["vertices"], q["beta"]] for q in blob["certificate"]["pieces"]] if blob["certificate"] else None
    keys = ("status", "p_sonc", "p_dual", "dual_point")
    record = {"poly": serialize_polynomial(p), **{key: blob[key] for key in keys}, "pieces": pieces}
    return record | ({"unbounded": blob["unbounded"]} if blob["unbounded"] else {})


def _matches_record(path: Path, polys: list[SparsePolynomial]) -> None:
    """Statuses, circuits and unbounded witnesses exactly; values to 1e-12 of
    max(|value|, scale).  That absorbs no reordering of the barrier's float
    operations on sweep draw 634, whose p_sonc moves by 1e-12 to 7e-12 of
    that under each reordering tried, far below the barrier's stopping gap
    of 1e-8.  The barrier runs on Python floats, so p_sonc depends on no
    BLAS; what is left is the platform's libm (exp, log, log1p, expm1) in
    the barrier, and LAPACK in `_descend` and `_barrier_points`, which set
    p_dual.  An answer with a witness has p_dual and dual_point null, and
    `verify_unbounded` accepts the witness; every other answer has a finite
    p_dual and a dual point whose constant entry is 1."""
    golden = json.loads(path.read_text())
    assert len(golden) == len(polys)
    for p, want in zip(polys, golden):
        got = bound_record(p)
        assert (got["poly"], got["status"], got["pieces"]) == (want["poly"], want["status"], want["pieces"])
        witness = got.get("unbounded")
        assert witness == want.get("unbounded"), want["poly"]
        dual = got["dual_point"]
        if witness:
            assert got["p_dual"] is None and dual is None, want["poly"]
            assert verify_unbounded(p, UnboundedWitness(tuple(witness["vertex"]), tuple(witness["w"]), tuple(witness["s"])))
        else:
            assert math.isfinite(got["p_dual"]) and dual["values"][dual["points"].index([0] * p.n)] == 1.0, want["poly"]
        scale = 1.0 + max(map(abs, p.coefficients.values()))
        for key in ("p_sonc", "p_dual"):
            assert (got[key] is None) == (want[key] is None), (want["poly"], key)
            if want[key] is not None:
                assert abs(got[key] - want[key]) <= 1e-12 * max(abs(want[key]), scale), (want["poly"], key)


class TestBoundGolden:
    def test_outputs_match_the_record(self):
        polys = golden_inputs()
        assert len(polys) == 120
        _matches_record(GOLDEN, polys)

    def test_sweep_matches_the_record(self):
        polys = sweep_draws()
        assert len(polys) == 700
        _matches_record(SWEEP_GOLDEN, polys)


def _along_curve(p, w, s):
    """The terms of p(s_i t^(w_i)) as exact (coefficient, exponent of t) pairs."""
    terms = []
    for exp, coef in p.coefficients.items():
        sign = 1
        for si, e in zip(s, exp):
            sign *= int(si) ** e
        terms.append((Fraction(coef) * sign, sum(wi * e for wi, e in zip(w, exp))))
    return terms


class TestNewtonPolytopeShortcut:
    def test_flagged_curves_descend(self):
        flagged = 0
        for p in criterion9_polys():
            witness = bound_parts(p)[2]
            if witness is None:
                continue
            flagged += 1
            vertex, w, s = witness
            assert all(type(x) is int for x in (*w, *s)) and set(s) <= {1, -1}
            # w exposes a single point alpha of supp(p) u {0}, exactly in integers,
            # the witness's vertex; its term is negative along the curve, so it
            # drives p to -inf.
            points = set(p.coefficients) | {(0,) * p.n}
            height = {beta: sum(wi * b for wi, b in zip(w, beta)) for beta in points}
            top = max(height.values())
            assert [beta for beta in points if height[beta] == top] == [vertex]
            assert top > 0
            terms = _along_curve(p, w, s)
            (lead,) = [c for c, e in terms if e == top]
            assert lead < 0
            # Past T the derivative along the curve is negative: for t >= 1,
            # f'(t) <= t^(N-2) (lead * N * t + sum |c_j e_j|).
            bound = sum(abs(c * e) for c, e in terms if e != top) / (abs(lead) * top)
            k0 = 0
            while 2**k0 < bound:
                k0 += 1
            values = [sum(c * Fraction(2) ** (e * (k0 + k)) for c, e in terms) for k in range(1, 7)]
            assert all(a > b for a, b in zip(values, values[1:]))
            r = certify_optimality(p)
            assert r.status is Status.DUAL_ONLY and r.certificate is None and r.unbounded == witness
            assert r.p_sonc == r.p_dual == -math.inf and r.dual_point is None and r.optimal_point is None
        assert flagged == 83

    @pytest.mark.parametrize("text", [MOTZKIN_TEXT, "1 + x1^4 - 3*x1^2", "1 + x1^2", "7"])
    def test_bounded_not_flagged(self, text):
        assert bound_parts(parse_polynomial(text))[2] is None

    def test_barrier_runs_exactly_on_bounded_inputs(self, monkeypatch):
        # One decision: the barrier solves every input with an odd or negative
        # term and no unbounded curve, and no other.
        calls = _record_solves(monkeypatch)
        without_bad_point = 0
        for p in [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys(), *even_simplex_polys()]:
            bad = any(c < 0.0 or any(e % 2 for e in exp) for exp, c in p.coefficients.items())
            without_bad_point += not bad
            bounded = bound_parts(p)[2] is None
            calls.clear()
            certify_optimality(p)
            assert len(calls) == (bad and bounded), p.coefficients
        assert without_bad_point == 5

    def test_lower_bound_solves_no_lp(self, monkeypatch):
        lps = _record_lps(monkeypatch)
        polys = [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys(), *even_simplex_polys()]
        for p in polys:
            certify_optimality(p)  # the curve of an unbounded input is a nearest-point search
        assert lps == []

    def test_settled_without_oracle_calls(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        r = certify_optimality(parse_polynomial("x1^2*x2 + 1"))
        assert r.status is Status.DUAL_ONLY and r.certificate is None and r.p_sonc == -math.inf
        assert calls == []

    def test_failed_barrier_answers_the_origin(self, monkeypatch):
        # Without a certificate or a curve the origin is the only candidate.
        monkeypatch.setattr(bounds, "_central_path", lambda *args: None)
        p = motzkin()
        r = certify_optimality(p)
        assert r.status is Status.DUAL_ONLY and r.p_sonc == -math.inf
        assert r.dual_point == moment_vector((0.0, 0.0), _extended(p))
        assert r.p_dual == p.evaluate((0.0, 0.0)) == 1.0

    def test_bound_calls_no_membership_oracle(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            return wrapper

        for name in ("sonc_dual_membership", "_test_group"):  # the oracle and the rule it applies
            monkeypatch.setattr(dual, name, counting(getattr(dual, name)))
        for p in [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2"), *criterion9_polys(), *even_simplex_polys()]:
            certify_optimality(p)
        assert calls == []

    def test_face_case_takes_the_origin(self):
        # The bad term x1^3 x2^5 lies inside the edge from x1^8 to x2^8, so the
        # primal has a circuit and there is no curve, but the edge's circuit
        # polynomial is negative and the barrier diverges.
        p = parse_polynomial(
            "0.17899249700312445*x2^8 + 0.005021853314619841*x1 - 90.09472658570888*x1^3*x2^5 + 276.4450271125257*x1^8"
        )
        assert bound_parts(p)[2] is None
        blob = certify_optimality(p).to_json_dict()
        assert blob["status"] == "dual_only" and blob["p_sonc"] is None
        point = blob["dual_point"]
        assert blob["p_dual"] == pairing(p, point["points"], point["values"]) == 0.0

    # The last text keeps a zero term's slot at x1^8: the catalog's circuit
    # ((0,), (8,); 3) must not hide the odd vertex 3.
    @pytest.mark.parametrize(
        "text, vertex",
        [
            ("x1", (1,)),
            ("38.18*x2", (0, 1)),
            ("x1^2*x2 + 1", (2, 1)),
            ("1 - x1^2 + x2^4", (2, 0)),
            ("2 - 3*x1^3*x2 + x1^2", (3, 1)),
            ("1 + x1^3 + 0*x1^8", (3,)),
        ],
        ids=["x1", "38.18*x2", "x1^2*x2 + 1", "1 - x1^2 + x2^4", "2 - 3*x1^3*x2 + x1^2", "1 + x1^3 + 0*x1^8"],
    )
    def test_curve_dual_point(self, text, vertex):
        # The curve is the dual answer: p_dual = -inf with the witness, and no
        # dual point.
        p = parse_polynomial(text)
        r = certify_optimality(p)
        assert r.unbounded == bound_parts(p)[2] and r.unbounded.vertex == vertex
        assert verify_unbounded(p, r.unbounded)
        assert r.status is Status.DUAL_ONLY and r.p_sonc == r.p_dual == -math.inf
        assert r.certificate is r.dual_point is r.optimal_point is None
        blob = r.to_json_dict()
        assert blob["p_sonc"] is blob["p_dual"] is blob["dual_point"] is None
        assert blob["unbounded"] == {"vertex": list(vertex), "w": list(r.unbounded.w), "s": list(r.unbounded.s)}

    # Every float point x(2^k) of these curves overflows; the witness is
    # exact integers all the same.
    @pytest.mark.parametrize(
        "text",
        [
            "x1^1048575",
            "-0.03467973175863058*x3^6 - 42.37608618097827*x2^2*x3 + 0.1244089117813604*x2^6"
            " + 0.014826998243642003*x1^2*x2 - 0.07143013644409962*x1^7*x3",
        ],
    )
    def test_curve_point_past_the_overflow(self, text):
        p = parse_polynomial(text)
        r = certify_optimality(p)
        assert r.status is Status.DUAL_ONLY and r.p_dual == -math.inf and r.dual_point is None
        assert verify_unbounded(p, r.unbounded)
        vertex, w, s = r.unbounded
        assert sum(wi * a for wi, a in zip(w, vertex)) > 1024  # the leading term at t = 2 is 2^that
        assert "Infinity" not in json.dumps(r.to_json_dict())

    def test_vertex_filter_skips_searches_and_keeps_curves(self, monkeypatch):
        searches = _record_nearest_points(monkeypatch)
        polys = criterion9_polys()
        curves = []
        for p in [motzkin(), *polys]:
            before = len(searches)
            curves.append(bound_parts(p)[2])
            if curves[-1] is None:  # bounded: every odd or negative term is a circuit's inner point
                assert len(searches) == before, p.coefficients
        assert curves[0] is None and sum(c is None for c in curves[1:]) == 17

    def test_nearest_point_matches_lp(self):
        # The margin-1 LP the search replaced is the oracle: where it finds w,
        # x is the least-norm vector with every pairing >= 1 (a nonnegative
        # combination of the rows it pairs to 1 with); where it is infeasible
        # (the origin is in the hull), None.  Other statuses are HiGHS failing
        # on rows near 2^20; x must then still be exact.
        face = [[3 - a, 5 - b] for a, b in [(0, 0), (1, 0), (8, 0), (0, 8)]]  # x1^3 x2^5 on an edge
        sets = [face, [[3, 5]], [[2, 0], [2, 0], [-1, 0]], [[1, 1], [2, 2], [3, 3]]]
        # Rows near 2^20 that a float search got wrong: a point that is not
        # the nearest (nnls residual 1.41), and None where HiGHS finds w.
        sets += [
            [[-1048583, -1048583], [-1048575, -1048575], [-7, 1048571], [1048580, 1048582]],
            [
                [1048584, -1048584, -6, -1048576],
                [1, 1048574, -1, -1],
                [-1048574, 1048580, -1, 1048573],
                [1048583, 6, 0, -1048578],
                [-1048574, -8, 1048574, -8],
                [-1048569, -1048574, -1048583, -1048573],
                [1048581, 1048577, -1048580, 5],
            ],
        ]
        # Exact, but float nnls on its two nearly antiparallel active rows
        # leaves residual 0.052 against the bound 7.0e-5.
        sets.append(
            [
                [4, 3, 1048576], [-1048584, -1048580, -1], [-4, -3, -1048570], [4, -4, 1048568], [-1048583, -5, 1048568],
                [-1048583, -5, -5], [-1048568, 1048582, 6], [-1048582, -1048574, 7], [-6, -1048582, 1048584],
            ]
        )
        sets += nearest_point_inputs()
        statuses = []
        for diffs in sets:
            status = _exposing_lp(diffs)
            statuses.append(status)
            x = _nearest_point(diffs)
            assert status != 0 or x is not None, diffs
            assert status != 2 or x is None, diffs
            if x is not None:
                _assert_nearest(diffs, x)
        assert statuses.count(0) > 200 and statuses.count(2) > 150

    @pytest.mark.parametrize("n, m", [(10, 300), (20, 500)])
    def test_nearest_point_on_large_vertex_sets(self, n, m):
        # alpha - beta over m random points beta and the origin, alpha the
        # vertex a random direction exposes: the search has no cycle cap and
        # still ends on the nearest point.
        rng = np.random.default_rng(n)
        for _ in range(3):
            points = sorted({tuple(b) for b in rng.integers(0, 9, size=(m, n)).tolist()} | {(0,) * n})
            c = rng.normal(size=n)
            alpha = max(points, key=lambda b: float(c @ b))
            diffs = [[a - b for a, b in zip(alpha, beta)] for beta in points if beta != alpha]
            x = _nearest_point(diffs)
            assert x is not None
            _assert_nearest(diffs, x)

    def test_curve_matches_lp_per_vertex(self):
        # _unbounded_curve tries the candidate points in order: every one the
        # LP oracle exposes gets a curve, none it finds infeasible does.
        rng = np.random.default_rng(21)
        polys = [
            parse_polynomial(
                "0.17899249700312445*x2^8 + 0.005021853314619841*x1 - 90.09472658570888*x1^3*x2^5 + 276.4450271125257*x1^8"
            )
        ]
        for i in range(300):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            exps = rng.integers(0, 9, size=(m, n))
            if i % 3 == 1:  # collinear: multiples of one direction
                exps = rng.integers(0, 5, size=(m, 1)) * rng.integers(0, 3, size=(1, n))
            elif i % 3 == 2:  # some entries near MAX_EXPONENT
                exps = np.where(rng.random((m, n)) < 0.5, MAX_EXPONENT - exps, exps)
            signs = rng.choice([-1.0, 1.0], size=m)
            polys.append(SparsePolynomial.from_terms({tuple(e): c for e, c in zip(exps.tolist(), signs)}, n=n))
        exposed = 0
        for p in polys:
            zero = (0,) * p.n
            points = sorted(set(p.coefficients) | {zero})
            status = {
                a: _exposing_lp([[x - y for x, y in zip(a, b)] for b in points if b != a])
                for a in points
                if a != zero and not (is_even_point(a) and p.coefficients[a] > 0.0)
            }
            witness = bound_parts(p)[2]
            if witness is None:
                assert 0 not in status.values(), p.coefficients
                continue
            exposed += 1
            alpha, w, s = witness
            height = {b: sum(wi * bi for wi, bi in zip(w, b)) for b in points}
            assert [b for b in points if height[b] == max(height.values())] == [alpha]
            assert all(type(wi) is int for wi in w) and status[alpha] != 2, p.coefficients
            assert p.coefficients[alpha] * math.prod(si**e for si, e in zip(s, alpha)) < 0.0
            assert all(st != 0 for a, st in status.items() if a < alpha), p.coefficients
        assert 100 < exposed < len(polys) - 50

    @pytest.mark.parametrize("last", ["+ x1^41", "- x1^3"])
    def test_above_the_cap_raises(self, last):
        # 21 even points, one over the cap; x1^41 and -x1^3 are bad points.
        p = parse_polynomial("1 + " + " + ".join(f"x1^{e}" for e in range(2, 41, 2)) + " " + last)
        with pytest.raises(SupportTooLargeError):
            certify_optimality(p)


class TestDescent:
    """The descent, from the multistart oracle's starts, against scipy's BFGS from the same starts."""

    @staticmethod
    def scipy_best(p, seed=0, random_starts=RANDOM_STARTS):
        rng = np.random.default_rng(seed)
        starts = [np.zeros(p.n), np.ones(p.n), -np.ones(p.n)]
        starts += list(rng.uniform(-3.0, 3.0, size=(random_starts, p.n)))

        def f(x):
            val = p.evaluate(x)
            return val if math.isfinite(val) else 1e300

        def g(x):
            grad = value_gradient_hessian(p, x)[1]
            return np.where(np.isfinite(grad), grad, 0.0)

        best = math.inf
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            for x0 in starts:
                res = minimize(f, x0, jac=g, method="BFGS", options={"maxiter": 200})
                best = min(best, f(res.x), f(x0))
        return best

    def test_no_worse_than_scipy_bfgs(self):
        polys = [motzkin(), parse_polynomial("1 + x1^4 - 3*x1^2")]
        rng = np.random.default_rng(109)  # criterion 9's draw
        for _ in range(100):
            p = random_sparse_poly(rng, int(rng.integers(1, 3)), max_degree=6, max_terms=5)
            if bound_parts(p)[2] is None:
                polys.append(p)
        assert len(polys) == 19
        for p in polys:
            want = self.scipy_best(p)
            # 1e-9 of the value too: one stiff input bottoms out near
            # -3.45e20, where one float step is 65536.
            tol = 1e-9 * max(1.0 + max(map(abs, p.coefficients.values())), abs(want))
            assert multistart_min(p) <= want + tol, p.coefficients

    def test_no_worse_than_scipy_bfgs_on_even_simplices(self):
        # Fresh bounded draws over the even simplex conv{0, 2d e_i}, against
        # scipy's BFGS from 15 starts: 0, +-1 and 12 uniform draws.
        for p in even_simplex_polys(20271, 60):
            want = self.scipy_best(p, random_starts=12)
            tol = 1e-9 * max(1.0 + max(map(abs, p.coefficients.values())), abs(want))
            assert multistart_min(p) <= want + tol, p.coefficients
