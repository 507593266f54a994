"""Circuit-polynomial nonnegativity decisions and entropy witnesses."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from sonckit import (
    Circuit,
    CircuitPolynomial,
    EntropyWitness,
    as_sparse_polynomial,
    circuit_number,
    is_nonneg_circuit,
    is_nonneg_on_positive_orthant,
    log_circuit_number,
    verify_entropy_witness,
)

from _gen import abs_coefficient_eval, eval_on_points, random_circuit


def motzkin_circuit() -> Circuit:
    return Circuit.make([(0, 0), (2, 4), (4, 2)], (2, 2))


class TestPositiveOrthant:
    def test_motzkin_boundary(self):
        ok, wit = is_nonneg_on_positive_orthant(CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.0))
        assert ok
        assert wit.nu == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_motzkin_below_threshold(self):
        ok, wit = is_nonneg_on_positive_orthant(CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.001))
        assert not ok and wit is None

    def test_positive_delta_always_passes(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = random_circuit(rng)
            coefs = tuple(10.0 ** rng.uniform(-2, 2, size=c.k))
            ok, _ = is_nonneg_on_positive_orthant(CircuitPolynomial(c, coefs, 5.0))
            assert ok


class TestFullSpace:
    def test_odd_inner_two_sided(self):
        c = Circuit.make([(0,), (2,)], (1,))
        assert is_nonneg_circuit(CircuitPolynomial(c, (1.0, 1.0), -2.0))[0]
        assert is_nonneg_circuit(CircuitPolynomial(c, (1.0, 1.0), 2.0))[0]
        assert not is_nonneg_circuit(CircuitPolynomial(c, (1.0, 1.0), -2.01))[0]
        assert not is_nonneg_circuit(CircuitPolynomial(c, (1.0, 1.0), 2.01))[0]

    def test_even_inner_one_sided(self):
        p = CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), 10.0)
        assert is_nonneg_circuit(p)[0]
        assert is_nonneg_circuit(CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.0))[0]
        assert not is_nonneg_circuit(CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.01))[0]

    def test_huge_coefficients_decided_in_log_domain(self):
        c = Circuit.make([(0,), (2,)], (1,))
        # Theta = 2e300 is representable: the tolerance edge is kept.
        ok, wit = is_nonneg_circuit(CircuitPolynomial(c, (1e300, 1e300), -2e300))
        assert ok and wit.nu == pytest.approx((1e300, 1e300), rel=1e-12)
        assert not is_nonneg_circuit(CircuitPolynomial(c, (1e300, 1e300), -2e300 * (1 + 1e-8)))[0]
        # Theta = 2e308 overflows a float; the decision stands without it.
        assert log_circuit_number((1e308, 1e308), c) == pytest.approx(math.log(2.0) + math.log(1e308), rel=1e-15)
        for delta in (-1.7e308, 1.7e308):
            assert is_nonneg_circuit(CircuitPolynomial(c, (1e308, 1e308), delta)) == (True, None)
        assert is_nonneg_on_positive_orthant(CircuitPolynomial(c, (1e308, 1e308), -1.7e308)) == (True, None)
        assert not is_nonneg_circuit(CircuitPolynomial(c, (1e-300, 1e-300), -1e-8))[0]

    def test_single_monomial(self):
        c = Circuit.make([(2, 0)], (2, 0))
        assert is_nonneg_circuit(CircuitPolynomial(c, (1.5,), 0.0))[0]
        assert is_nonneg_circuit(CircuitPolynomial(c, (1.5,), -1.5))[0]
        assert not is_nonneg_circuit(CircuitPolynomial(c, (1.5,), -1.6))[0]

    def test_parity_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            c = random_circuit(rng)
            if c.beta_even:
                continue
            coefs = tuple(10.0 ** rng.uniform(-2, 2, size=c.k))
            delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
            assert (
                is_nonneg_circuit(CircuitPolynomial(c, coefs, delta))[0]
                == is_nonneg_circuit(CircuitPolynomial(c, coefs, -delta))[0]
            )

    def test_rejects_bad_coefficients(self):
        c = Circuit.make([(0,), (2,)], (1,))
        with pytest.raises(ValueError):
            CircuitPolynomial(c, (1.0,), 0.0)
        with pytest.raises(ValueError):
            CircuitPolynomial(c, (1.0, -1.0), 0.0)


class TestWitness:
    def test_motzkin_witness_verifies(self):
        p = CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.0)
        assert verify_entropy_witness(p, EntropyWitness((1.0, 1.0, 1.0)))

    def test_witness_fails_for_deeper_delta(self):
        p = CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -4.0)
        assert not verify_entropy_witness(p, EntropyWitness((1.0, 1.0, 1.0)))

    def test_zero_witness_for_zero_delta(self):
        p = CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), 0.0)
        assert verify_entropy_witness(p, EntropyWitness((0.0, 0.0, 0.0)))

    def test_unbalanced_witness_rejected(self):
        p = CircuitPolynomial(motzkin_circuit(), (1.0, 1.0, 1.0), -3.0)
        assert not verify_entropy_witness(p, EntropyWitness((1.0, 2.0, 1.0)))

    def test_decision_witnesses_always_verify(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            c = random_circuit(rng)
            coefs = tuple(10.0 ** rng.uniform(-2, 2, size=c.k))
            theta = circuit_number(coefs, c)
            sign = -1.0 if c.beta_even else rng.choice([-1.0, 1.0])
            delta = sign * theta * rng.uniform(0.0, 1.0)
            p = CircuitPolynomial(c, coefs, delta)
            ok, wit = is_nonneg_circuit(p)
            assert ok
            assert verify_entropy_witness(p, wit)


class TestAgreementOfRoutes:
    def test_number_vs_witness_decision(self):
        # circuit-number threshold against the existence-of-witness route
        rng = np.random.default_rng(34)
        for _ in range(1000):
            c = random_circuit(rng)
            coefs = tuple(10.0 ** rng.uniform(-2, 2, size=c.k))
            theta = circuit_number(coefs, c)
            for rel in (-1e-6, 1e-6):
                delta = -theta * (1.0 + rel)
                p = CircuitPolynomial(c, coefs, delta)
                by_number, wit = is_nonneg_circuit(p)
                by_witness = wit is not None and verify_entropy_witness(p, wit, tol=1e-9)
                assert by_number == by_witness == (rel <= 0)


class TestSoundness:
    def test_accepted_circuits_are_nonnegative_by_sampling(self):
        rng = np.random.default_rng(35)
        accepted = 0
        while accepted < 20:
            c = random_circuit(rng, n=int(rng.integers(1, 3)))
            coefs = tuple(10.0 ** rng.uniform(-1, 1, size=c.k))
            theta = circuit_number(coefs, c)
            sign = -1.0 if c.beta_even else rng.choice([-1.0, 1.0])
            delta = sign * theta * rng.uniform(0.0, 1.0)
            p = CircuitPolynomial(c, coefs, delta)
            ok, _ = is_nonneg_circuit(p)
            assert ok
            accepted += 1
            sp = as_sparse_polynomial(p)
            xs = rng.uniform(-3.0, 3.0, size=(10000, c.n))
            vals = eval_on_points(sp, xs)
            floors = np.array([-1e-7 * (1.0 + abs_coefficient_eval(sp, x)) for x in xs])
            assert np.all(vals >= floors)

    def test_sharpness_at_threshold(self):
        # with coefficients mu_i * x0^(beta - alpha(i)) the threshold case
        # delta = -Theta = -1 touches zero exactly at x0
        rng = np.random.default_rng(36)
        for _ in range(20):
            c = random_circuit(rng, n=int(rng.integers(1, 3)))
            x0 = rng.uniform(0.5, 2.0, size=c.n)
            coefs = []
            for mi, vert in zip(c.barycentric, c.vertices):
                val = float(mi)
                for xj, bj, aj in zip(x0, c.inner, vert):
                    val *= xj ** (bj - aj)
                coefs.append(val)
            p = CircuitPolynomial(c, tuple(coefs), -circuit_number(tuple(coefs), c))
            sp = as_sparse_polynomial(p)
            grid = rng.uniform(0.0, 3.0, size=(500, c.n))
            best = min(float(v) for v in eval_on_points(sp, grid))
            res = minimize(sp.evaluate, x0 * (1 + rng.uniform(-0.2, 0.2, size=c.n)), method="Nelder-Mead")
            best = min(best, float(res.fun))
            scale = 1.0 + max(abs(x) for x in sp.coefficients.values())
            assert best <= 1e-6 * scale
            assert best >= -1e-9 * scale
