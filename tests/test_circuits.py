"""Barycentric coordinates, circuit numbers, and catalog enumeration."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sonckit import (
    AffinelyDependentError,
    Circuit,
    DualVector,
    SupportSet,
    SupportTooLargeError,
    affinely_independent,
    barycentric_coordinates,
    certify_optimality,
    circuit_number,
    enumerate_circuits,
    parse_polynomial,
    sonc_dual_membership,
)
from sonckit import circuits as circuits_module

from _gen import (
    MOTZKIN_TEXT,
    brute_force_circuits,
    dense_support,
    exact_circuits,
    random_circuit,
    random_support,
    simplex_with_odd_points,
)


def _pairs(catalog) -> list:
    return [(c.vertices, c.inner) for c in catalog.circuits]


def _huge_exponent_supports() -> list[SupportSet]:
    """Entries near 2**30..2**40: past the int64 guard from the start, or
    crossing it once the minors grow.  A unit offset on the first
    coordinate of some points breaks the parity and the symmetry."""
    rng = np.random.default_rng(14)
    supports = []
    for scale in (2**15, 2**30, 2**35, 2**40):
        for _ in range(12):
            n = int(rng.integers(1, 4))
            base = random_support(rng, n, max_points=7, max_entry=6)
            shift = rng.integers(0, 2, size=len(base))
            supports.append(
                SupportSet.of([(p[0] * scale + int(s), *(e * scale for e in p[1:])) for p, s in zip(base, shift)])
            )
    big = 2**40
    return supports + [SupportSet.of([(0, 0), (big, big - 2), (big - 2, big - 4), (big // 2, big // 2 - 1), (1, 1)])]


class TestBarycentric:
    def test_symmetric_triangle(self):
        mu = barycentric_coordinates([(0, 0), (2, 4), (4, 2)], (2, 2))
        assert mu == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]

    def test_univariate_quartic_weights(self):
        assert barycentric_coordinates([(0,), (4,)], (1,)) == [Fraction(3, 4), Fraction(1, 4)]
        assert barycentric_coordinates([(0, 0), (4, 0)], (2, 0)) == [Fraction(1, 2), Fraction(1, 2)]

    def test_vertex_is_not_interior(self):
        assert barycentric_coordinates([(0,), (4,)], (4,)) is None
        assert barycentric_coordinates([(0, 0), (4, 0)], (4, 0)) is None

    def test_outside_hull(self):
        assert barycentric_coordinates([(0,), (4,)], (6,)) is None
        assert barycentric_coordinates([(0, 0), (4, 0)], (6, 0)) is None

    def test_outside_affine_hull(self):
        assert barycentric_coordinates([(0, 0), (2, 0)], (1, 1)) is None
        assert barycentric_coordinates([(0, 0), (4, 0)], (1, 1)) is None

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

    def test_zero_dimensional_support(self):
        assert _pairs(enumerate_circuits(SupportSet.of([()], n=0))) == [(((),), ())]

    def test_matches_exact_oracle_on_random_supports(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            A = random_support(rng, int(rng.integers(1, 4)))
            assert _pairs(enumerate_circuits(A)) == exact_circuits(A)

    def test_matches_exact_oracle_on_huge_exponents(self):
        for A in _huge_exponent_supports():
            assert _pairs(enumerate_circuits(A)) == exact_circuits(A)

    def test_batches_on_both_sides_of_the_int64_guard(self, monkeypatch):
        # The vertices are about 2**17 apart: the first two steps run in
        # int64, and the 2 x 2 minors (about 2**34) send the third to Python ints.
        s = 2**17
        A = SupportSet.of([(0, 0, 0), (s, 0, 0), (0, s, 0), (0, 0, s), (2, 2, 2), (1, 3, 5), (s // 2, s // 4, 1)])
        dtypes = []
        step = circuits_module._pivot_step

        def recording(mats, *args):
            dtypes.append(mats.dtype)
            return step(mats, *args)

        monkeypatch.setattr(circuits_module, "_pivot_step", recording)
        assert _pairs(enumerate_circuits.__wrapped__(A)) == exact_circuits(A)
        assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes

    def test_memory_stays_bounded_in_high_dimension(self):
        # 2**13 - 1 vertex sets over 213 points; a level at a time would
        # hold over a thousand (13 x 213) matrices at once.
        A = simplex_with_odd_points(12, 200)
        tracemalloc.start()
        try:
            catalog = enumerate_circuits.__wrapped__(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert [c.inner for c in catalog.circuits if c.k == 1] == list(A.even_points())

    def test_matches_exact_oracle_in_eight_variables(self):
        A = simplex_with_odd_points(8, 20)
        assert _pairs(enumerate_circuits(A)) == exact_circuits(A)

    def test_catalog_json_shape(self):
        A = SupportSet.of([(i,) for i in range(5)])
        blob = enumerate_circuits(A).to_json_dict()
        assert set(blob) == {"circuits"}
        entry = blob["circuits"][3]  # first k=2 circuit after the three k=1 entries
        assert entry == {"vertices": [[0], [2]], "beta": [1], "mu": ["1/2", "1/2"], "beta_even": False}


#: Supports whose weights are quotients of integers past 2**53: near 2**61
#: in the first, and in the second a float division of the elimination's
#: numerators by its pivot rounds twice and misses the last bit.
_WEIGHTS_PAST_2_53 = [
    SupportSet.of([(0, 0), (2**30, 0), (0, 2**30 + 2), (2**29 + 1, 2**29 - 1), (2**30 - 2, 2)]),
    SupportSet.of([(0, 0), (720255338, 864365306), (24323708, 867519816), (205303722, 259964689)]),
]


def _exact_map(rows: list[list[int]]) -> list[list[Fraction]]:
    """R'(R R')^-1 for independent integer rows R, by Gauss-Jordan in Fractions."""
    m = len(rows)
    gram = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in rows] for u in rows]
    system = [row + [Fraction(i == j) for j in range(m)] for i, row in enumerate(gram)]
    for col in range(m):
        system[col] = [x / system[col][col] for x in system[col]]
        for i in range(m):
            if i != col:
                system[i] = [x - system[i][col] * y for x, y in zip(system[i], system[col])]
    return [[sum(rows[j][t] * system[j][m + l] for j in range(m)) for l in range(m)] for t in range(len(rows[0]))]


def _reference_solve(cs: list) -> np.ndarray:
    """Each circuit's map with the rows beta - alpha(j), the last one dropped
    and its column 0: float() of the exact entries, so correctly rounded."""
    solve = np.zeros((len(cs), cs[0].n, cs[0].k))
    for r, c in enumerate(cs):
        if c.k > 1:
            rows = [[b - a for a, b in zip(vert, c.inner)] for vert in c.vertices[:-1]]
            solve[r, :, :-1] = [[float(x) for x in row] for row in _exact_map(rows)]
    return solve


class TestArityGroups:
    @pytest.mark.parametrize(
        "supports",
        [
            pytest.param([dense_support(2, 6)], id="2-6"),
            pytest.param([dense_support(3, 4)], id="3-4"),
            pytest.param([A for A in _huge_exponent_supports() if A.even_points()], id="huge-exponents"),
            pytest.param(_WEIGHTS_PAST_2_53, id="weights-past-2^53"),
        ],
    )
    def test_arrays_match_a_per_circuit_reference(self, supports):
        for A in supports:
            catalog = enumerate_circuits(A)
            position = {p: i for i, p in enumerate(A.points)}
            groups = catalog.arity_groups
            assert np.concatenate([g.index for g in groups]).tolist() == list(range(len(catalog)))
            for g in groups:
                cs = [catalog.circuits[i] for i in g.index]
                assert all(c is catalog.circuit(g, r) for r, c in enumerate(cs))
                assert np.array_equal(g.vertices, [[position[a] for a in c.vertices] for c in cs])
                assert np.array_equal(g.inner, [position[c.inner] for c in cs])
                assert np.array_equal(g.weights, [[float(mu) for mu in c.barycentric] for c in cs])
                assert np.array_equal(g.beta_even, [c.beta_even for c in cs])
                assert np.array_equal(g.solve, _reference_solve(cs))

    def test_map_on_both_sides_of_the_int64_guard(self, monkeypatch):
        # Each case records the dtype the map's steps and final product run
        # on.  The first support's lattice is int64, but its Gram entries
        # reach 3 * 2**62, so the map starts on Python ints.  In the second,
        # every step stays in int64, but the final product reads cofactors
        # near 2**56 that no step shows.  Dense n2d6 stays in int64.
        M = 2**31
        int64 = np.dtype(np.int64)
        cases = [
            (SupportSet.of([(0, 0, 0), (M - 2, 0, 0), (M - 2, M - 2, 0), (M - 2, M - 2, M - 2), (M - 3, M - 5, M - 7)]),
             [np.dtype(object)] * 4),
            (SupportSet.of([(1, 2, 2**14), (0, 2, 2**14), (2**14, 0, 2**14), (2**14, 0, 2**15), (2**14 + 2, 6, 0)]),
             [int64] * 3 + [np.dtype(object)]),
            (dense_support(2, 6), [int64] * 5),
        ]
        exact = circuits_module._exact
        for A, dtypes in cases:
            catalog = enumerate_circuits.__wrapped__(A)
            seen = []

            def recording(mats, bound):
                out = exact(mats, bound)
                seen.append(out.dtype)
                return out

            monkeypatch.setattr(circuits_module, "_exact", recording)
            for g in catalog.arity_groups:
                assert g.lattice.dtype == int64
                assert np.array_equal(g.solve, _reference_solve([catalog.circuits[i] for i in g.index]))
            monkeypatch.setattr(circuits_module, "_exact", exact)
            assert seen == dtypes

    def test_solve_is_built_on_first_read(self):
        # Only a member's witnesses read `solve`: enumeration, the barrier
        # solve and a non-member report build no map.
        enumerate_circuits.cache_clear()
        A = dense_support(2, 6)
        v = DualVector(A, {a: 1.0 for a in A.points})
        assert certify_optimality(parse_polynomial(MOTZKIN_TEXT)).certificate is not None
        assert not sonc_dual_membership(A, DualVector(A, {**v.values, (1, 1): 2.0})).member
        groups = [g for g in enumerate_circuits(A).arity_groups if g.k > 1]
        assert groups and all("solve" not in g.__dict__ for g in groups)
        assert sonc_dual_membership(A, v).member
        assert all("solve" in g.__dict__ for g in groups)
