"""Relative entropy, exponential cone and dual, minimizers, scalar dual."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sonckit import (
    Circuit,
    circuit_number,
    entropy_iff_expcone,
    entropy_minimizer,
    exp_cone_dual_member,
    exp_cone_member,
    relative_entropy,
    scalar_dual_member,
    xlogx_over,
)

from _gen import random_circuit


class TestRelativeEntropy:
    def test_identical_vectors(self):
        assert relative_entropy((1.0, 1.0), (1.0, 1.0)) == 0.0

    def test_uniform_against_ones(self):
        d = relative_entropy((1 / 3, 1 / 3, 1 / 3), (1.0, 1.0, 1.0))
        assert d == pytest.approx(-1.0986122886681098, abs=1e-12)

    def test_zero_denominator_is_infinite(self):
        assert relative_entropy((1.0, 0.0), (0.0, 1.0)) == math.inf

    def test_zero_over_zero_convention(self):
        assert relative_entropy((0.0,), (0.0,)) == 0.0
        assert xlogx_over(0.0, 0.0) == 0.0
        assert xlogx_over(0.0, 5.0) == 0.0
        assert xlogx_over(2.0, 0.0) == math.inf

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            relative_entropy((-1.0,), (1.0,))
        with pytest.raises(ValueError):
            relative_entropy((1.0,), (-1.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy((1.0,), (1.0, 1.0))

    def test_midpoint_convexity_in_first_argument(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            k = int(rng.integers(1, 5))
            lam = 10.0 ** rng.uniform(-2, 2, size=k)
            nu1 = 10.0 ** rng.uniform(-2, 2, size=k)
            nu2 = 10.0 ** rng.uniform(-2, 2, size=k)
            mid = relative_entropy(tuple((nu1 + nu2) / 2), tuple(lam))
            avg = (relative_entropy(tuple(nu1), tuple(lam)) + relative_entropy(tuple(nu2), tuple(lam))) / 2
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))


class TestExpCone:
    def test_boundary_point(self):
        assert exp_cone_member((0.0, 1.0, 1.0))

    def test_e_exceeds_two(self):
        assert not exp_cone_member((1.0, 1.0, 2.0))

    def test_closure_ray(self):
        assert exp_cone_member((-5.0, 0.0, 3.0))
        assert not exp_cone_member((5.0, 0.0, 3.0))
        assert not exp_cone_member((-5.0, 0.0, -3.0))

    def test_dual_boundary(self):
        assert exp_cone_dual_member((-1.0, 0.0, math.exp(-1.0)))

    def test_dual_closure_face(self):
        assert exp_cone_dual_member((0.0, 1.0, 1.0))
        assert not exp_cone_dual_member((0.0, -1.0, 1.0))

    def test_dual_interior_violation(self):
        assert not exp_cone_dual_member((-1.0, 0.0, 0.1))

    def test_duality_pairing_nonnegative(self):
        # <(x,y,z),(a,b,c)> >= 0 for members of cone and dual cone
        rng = np.random.default_rng(22)
        members, duals = [], []
        while len(members) < 200:
            y = 10.0 ** rng.uniform(-2, 2)
            x = rng.uniform(-5, 5)
            z = y * math.exp(x / y) * 10.0 ** rng.uniform(0, 1)
            if math.isfinite(z):
                members.append((x, y, z))
        while len(duals) < 200:
            a = -(10.0 ** rng.uniform(-2, 2))
            b = rng.uniform(-5, 5)
            c = -a * math.exp(b / a - 1.0) * 10.0 ** rng.uniform(0, 1)
            if math.isfinite(c):
                duals.append((a, b, c))
        for (x, y, z), (a, b, c) in zip(members, duals):
            assert a * x + b * y + c * z >= -1e-9 * max(1.0, abs(a * x), abs(b * y), abs(c * z))


class TestEntropyIffExpcone:
    def test_boundary_case(self):
        assert entropy_iff_expcone(1.0, 1.0, 0.0) == (True, True)

    def test_negative_delta(self):
        assert entropy_iff_expcone(1.0, 1.0, -0.5) == (False, False)

    def test_strongly_feasible(self):
        assert entropy_iff_expcone(2.0, 2.0 * math.e, 0.0) == (True, True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            entropy_iff_expcone(0.0, 1.0, 0.0)

    def test_equivalence_random(self):
        rng = np.random.default_rng(23)
        disagreements = 0
        for _ in range(20000):
            nu = 10.0 ** rng.uniform(-3, 3)
            lam = 10.0 ** rng.uniform(-3, 3)
            delta = rng.uniform(-10, 10)
            a, b = entropy_iff_expcone(nu, lam, delta)
            disagreements += a != b
        assert disagreements == 0

    def test_equivalence_near_boundary(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            nu = 10.0 ** rng.uniform(-3, 3)
            lam = 10.0 ** rng.uniform(-3, 3)
            d = relative_entropy((nu,), (lam,))
            for off in (-1e-7, -1e-8, 1e-8, 1e-7):
                # offsets measured in the nu-rescaled metric both routes share
                a, b = entropy_iff_expcone(nu, lam, d + off * nu, tol=1e-9)
                assert a == b


class TestEntropyMinimizer:
    def test_motzkin(self):
        c = Circuit([(0, 0), (2, 4), (4, 2)], (2, 2))
        nu, val = entropy_minimizer(c, (1.0, 1.0, 1.0))
        assert nu == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)
        assert val == pytest.approx(-3.0, rel=1e-12)

    def test_univariate_quadratic(self):
        c = Circuit([(0,), (2,)], (1,))
        nu, val = entropy_minimizer(c, (1.0, 1.0))
        assert nu == pytest.approx((1.0, 1.0), rel=1e-12)
        assert val == pytest.approx(-2.0, rel=1e-12)

    def test_coefficients_equal_weights(self):
        c = Circuit([(0,), (4,)], (1,))
        nu, val = entropy_minimizer(c, (0.75, 0.25))
        assert nu == pytest.approx((0.75, 0.25), rel=1e-12)
        assert val == pytest.approx(-1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        c = Circuit([(0,), (2,)], (1,))
        with pytest.raises(ValueError):
            entropy_minimizer(c, (1.0, 0.0))

    def test_beats_scalings_and_matches_circuit_number(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            c = random_circuit(rng)
            coefs = tuple(10.0 ** rng.uniform(-2, 2, size=c.k))
            nu, val = entropy_minimizer(c, coefs)
            theta = circuit_number(coefs, c)
            assert abs(val + theta) <= 1e-10 * theta
            mu = tuple(float(m) for m in c.barycentric)
            ec = tuple(math.e * x for x in coefs)
            for _ in range(100):
                rho = 10.0 ** rng.uniform(-2, 2)
                assert val <= relative_entropy(tuple(rho * m for m in mu), ec) + 1e-10 * max(1.0, theta)

    def test_matches_numeric_scalar_minimization(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            c = random_circuit(rng)
            coefs = tuple(10.0 ** rng.uniform(-1, 1, size=c.k))
            mu = tuple(float(m) for m in c.barycentric)
            ec = tuple(math.e * x for x in coefs)
            res = minimize_scalar(
                lambda rho: relative_entropy(tuple(rho * m for m in mu), ec),
                bounds=(1e-8, 1e4),
                method="bounded",
                options={"xatol": 1e-12},
            )
            _, val = entropy_minimizer(c, coefs)
            assert val == pytest.approx(res.fun, rel=1e-6, abs=1e-9)


class TestScalarDual:
    def test_unit_point(self):
        assert scalar_dual_member(0.0, 1.0, 1.0)

    def test_infeasible(self):
        assert not scalar_dual_member(-1.0, 1.0, 0.1)

    def test_sign_symmetry(self):
        assert scalar_dual_member(0.0, 1.0, -1.0)

    def test_zero_s_conventions(self):
        assert scalar_dual_member(0.0, 0.0, 0.0)
        assert not scalar_dual_member(5.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            scalar_dual_member(0.0, -1.0, 0.0)

    def test_matches_brute_force_minimum(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            s = 10.0 ** rng.uniform(-2, 2)
            t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
            grid = np.linspace(abs(t), max(abs(t) * 4, s, 1.0) * 2, 4001)
            vals = grid * np.log(np.maximum(grid, 1e-300) / s)
            vals[grid == 0.0] = 0.0
            mbrute = float(vals.min())
            r = mbrute + rng.uniform(-0.05, 0.05)
            if abs(r - mbrute) < 1e-4:
                continue
            assert scalar_dual_member(r, s, t) == (mbrute <= r)

    def test_monotonicity(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            s = 10.0 ** rng.uniform(-2, 2)
            t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
            r = rng.uniform(-3, 3)
            if not scalar_dual_member(r, s, t):
                continue
            assert scalar_dual_member(r + rng.uniform(0, 2), s, t)
            assert scalar_dual_member(r, s * (1 + rng.uniform(0, 2)), t)
            assert scalar_dual_member(r, s, t * rng.uniform(0, 1))
