"""Barycentric coordinates, circuit numbers, and catalog enumeration."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from sonckit import (
    AffinelyDependentError,
    Circuit,
    SupportSet,
    SupportTooLargeError,
    affinely_independent,
    barycentric_coordinates,
    circuit_number,
    enumerate_circuits,
    parse_polynomial,
)
from sonckit.circuits import _affine_coordinates

from _gen import MOTZKIN_TEXT, brute_force_circuits, random_circuit, random_support


class TestBarycentric:
    def test_symmetric_triangle(self):
        mu = barycentric_coordinates([(0, 0), (2, 4), (4, 2)], (2, 2))
        assert mu == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]

    def test_univariate_quartic_weights(self):
        assert barycentric_coordinates([(0,), (4,)], (1,)) == [Fraction(3, 4), Fraction(1, 4)]

    def test_vertex_is_not_interior(self):
        assert barycentric_coordinates([(0,), (4,)], (4,)) is None

    def test_outside_hull(self):
        assert barycentric_coordinates([(0,), (4,)], (6,)) is None

    def test_outside_affine_hull(self):
        assert barycentric_coordinates([(0, 0), (2, 0)], (1, 1)) is None

    def test_dependent_vertices_raise(self):
        with pytest.raises(AffinelyDependentError):
            barycentric_coordinates([(0,), (2,), (4,)], (1,))
        with pytest.raises(AffinelyDependentError):
            barycentric_coordinates([(0, 0), (2, 2), (4, 4)], (2, 0))

    def test_exactness_on_random_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = random_circuit(rng)
            assert sum(c.barycentric) == 1
            for t in range(c.n):
                assert sum(m * v[t] for m, v in zip(c.barycentric, c.vertices)) == c.inner[t]
            assert all(m > 0 for m in c.barycentric)

    def test_affinely_independent_helper(self):
        assert affinely_independent([(0, 0), (2, 0), (0, 2)])
        assert not affinely_independent([(0, 0), (2, 2), (4, 4)])

    def test_affinely_independent_empty(self):
        assert affinely_independent([])

    def test_affine_coordinates_split(self):
        # (2,) is interior; the vertex (4,) and (6,) lie on the line, off the
        # open segment; (1, 1) leaves the line.
        outside, interior, det = _affine_coordinates([(0, 0), (4, 0)], [(2, 0), (4, 0), (6, 0), (1, 1)])
        assert outside == [False, False, False, True]
        assert list(interior) == [0]
        assert [Fraction(x, det) for x in interior[0]] == [Fraction(1, 2), Fraction(1, 2)]

    def test_exact_near_exponent_cap(self):
        big = 2**20
        mu = barycentric_coordinates([(0, 0), (big, 2), (2, big)], (1, 1))
        assert mu == [Fraction(big, big + 2), Fraction(1, big + 2), Fraction(1, big + 2)]
        # det = big * (big - 4) - (big - 2)^2 = -4: independent, though barely
        assert affinely_independent([(0, 0), (big, big - 2), (big - 2, big - 4)])
        assert not affinely_independent([(0, 0), (big, big - 2), (big // 2, big // 2 - 1)])


class TestCircuitType:
    def test_single_vertex_convention(self):
        c = Circuit([(2, 0)], (2, 0))
        assert c.k == 1 and c.barycentric == (Fraction(1),) and c.beta_even

    def test_single_vertex_requires_matching_inner(self):
        with pytest.raises(ValueError):
            Circuit([(2, 0)], (0, 0))

    def test_rejects_odd_vertices(self):
        with pytest.raises(ValueError):
            Circuit([(1,), (2,)], (1,))

    def test_rejects_boundary_inner(self):
        with pytest.raises(ValueError):
            Circuit([(0,), (4,)], (0,))

    def test_rejects_dependent_vertices(self):
        # (5/8, 1/4, 1/8) reproduces (1, 1) and sums to 1, but the vertices are collinear.
        with pytest.raises(AffinelyDependentError):
            Circuit(((0, 0), (2, 2), (4, 4)), (1, 1))
        blob = {"vertices": [[0, 0], [2, 2], [4, 4]], "beta": [1, 1], "mu": ["5/8", "1/4", "1/8"], "beta_even": False}
        with pytest.raises(AffinelyDependentError):
            Circuit.from_json_dict(blob)

    def test_weights_follow_the_given_vertex_order(self):
        c = Circuit(((4,), (0,)), (1,))
        assert c.vertices == ((4,), (0,))
        assert c.barycentric == (Fraction(1, 4), Fraction(3, 4))
        assert not c.beta_even

    def test_identity_is_vertices_and_inner(self):
        assert Circuit([[0], [4]], [1]) == Circuit(((0,), (4,)), (1,))
        assert hash(Circuit([[0], [4]], [1])) == hash(Circuit(((0,), (4,)), (1,)))
        assert Circuit(((4,), (0,)), (1,)) != Circuit(((0,), (4,)), (1,))

    def test_json_rejects_wrong_weights(self):
        blob = {"vertices": [[0], [4]], "beta": [1], "mu": ["1/2", "1/2"], "beta_even": False}
        with pytest.raises(ValueError):
            Circuit.from_json_dict(blob)
        assert Circuit.from_json_dict({**blob, "mu": ["3/4", "1/4"]}) == Circuit(((0,), (4,)), (1,))

    def test_json_rejects_flipped_parity(self):
        blob = Circuit(((0,), (4,)), (1,)).to_json_dict()
        with pytest.raises(ValueError):
            Circuit.from_json_dict({**blob, "beta_even": True})
        even = Circuit(((0,), (4,)), (2,)).to_json_dict()
        with pytest.raises(ValueError):
            Circuit.from_json_dict({**even, "beta_even": False})

    def test_json_round_trip(self):
        c = Circuit([(0, 0), (2, 4), (4, 2)], (2, 2))
        blob = c.to_json_dict()
        assert blob["mu"] == ["1/3", "1/3", "1/3"]
        assert Circuit.from_json_dict(blob) == c


class TestCircuitNumber:
    def test_motzkin_is_three(self):
        c = Circuit([(0, 0), (2, 4), (4, 2)], (2, 2))
        assert circuit_number((1.0, 1.0, 1.0), c) == pytest.approx(3.0, rel=1e-12)

    def test_unit_univariate_quadratic(self):
        c = Circuit([(0,), (2,)], (1,))
        assert circuit_number((1.0, 1.0), c) == pytest.approx(2.0, rel=1e-12)

    def test_weights_as_coefficients_give_one(self):
        c = Circuit([(0,), (4,)], (1,))
        assert circuit_number((0.75, 0.25), c) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        c = Circuit([(0,), (2,)], (1,))
        with pytest.raises(ValueError):
            circuit_number((1.0, 0.0), c)
        with pytest.raises(ValueError):
            circuit_number((1.0, -2.0), c)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            c = random_circuit(rng)
            coefs = 10.0 ** rng.uniform(-3, 3, size=c.k)
            t = 10.0 ** rng.uniform(-3, 3)
            lhs = circuit_number(tuple(t * coefs), c)
            rhs = t * circuit_number(tuple(coefs), c)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_log_domain_matches_direct_product(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            c = random_circuit(rng)
            coefs = 10.0 ** rng.uniform(-3, 3, size=c.k)
            direct = 1.0
            for ci, mi in zip(coefs, c.barycentric):
                direct *= (ci / float(mi)) ** float(mi)
            got = circuit_number(tuple(coefs), c)
            assert abs(got - direct) <= 1e-12 * direct


class TestEnumeration:
    def test_univariate_quartic_catalog(self):
        A = SupportSet.of([(i,) for i in range(5)])
        cat = enumerate_circuits(A)
        pairs = [(c.vertices, c.inner) for c in cat.circuits if c.k == 2]
        assert pairs == [
            (((0,), (2,)), (1,)),
            (((0,), (4,)), (1,)),
            (((0,), (4,)), (2,)),
            (((0,), (4,)), (3,)),
            (((2,), (4,)), (3,)),
        ]
        assert [c.inner for c in cat.circuits if c.k == 1] == [(0,), (2,), (4,)]

    def test_motzkin_support(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        cat = enumerate_circuits(p.support)
        higher = [c for c in cat.circuits if c.k >= 2]
        assert len(higher) == 1
        assert higher[0].vertices == ((0, 0), (2, 4), (4, 2))
        assert higher[0].inner == (2, 2)
        assert [c for c in cat.circuits if c.k == 1] == [
            Circuit([v], v) for v in [(0, 0), (2, 2), (2, 4), (4, 2)]
        ]

    def test_single_point(self):
        cat = enumerate_circuits(SupportSet.of([(0, 0)]))
        assert len(cat.circuits) == 1 and cat.circuits[0].k == 1

    def test_no_even_points(self):
        cat = enumerate_circuits(SupportSet.of([(1,), (3,)]))
        assert cat.circuits == ()

    def test_canonical_order_and_dedup(self):
        A = SupportSet.of([(0,), (1,), (2,), (3,), (4,), (6,)])
        cat = enumerate_circuits(A)
        keys = [(c.k, c.vertices, c.inner) for c in cat.circuits]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_cap_on_even_points(self):
        A = SupportSet.of([(2 * i,) for i in range(21)])
        with pytest.raises(SupportTooLargeError):
            enumerate_circuits(A)

    def test_matches_brute_force_on_random_supports(self):
        rng = np.random.default_rng(12)
        supports = [random_support(rng, int(rng.integers(1, 4))) for _ in range(50)]
        # Dense simplex supports and a 75% subset of each.
        for n, d in [(1, 8), (2, 6), (3, 4)]:
            dense = [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d]
            keep = rng.choice(len(dense), size=round(0.75 * len(dense)), replace=False)
            supports += [SupportSet.of(dense, n=n), SupportSet.of([dense[i] for i in sorted(keep)], n=n)]
        for A in supports:
            cat = enumerate_circuits(A)
            got = {(c.vertices, c.inner) for c in cat.circuits if c.k >= 2}
            assert got == brute_force_circuits(A)
            evens = [c.inner for c in cat.circuits if c.k == 1]
            assert tuple(evens) == A.even_points()

    def test_catalog_json_shape(self):
        A = SupportSet.of([(i,) for i in range(5)])
        blob = enumerate_circuits(A).to_json_dict()
        assert set(blob) == {"circuits"}
        entry = blob["circuits"][3]  # first k=2 circuit after the three k=1 entries
        assert entry == {"vertices": [[0], [2]], "beta": [1], "mu": ["1/2", "1/2"], "beta_even": False}
