"""Minimax LP, per-circuit and full dual-cone membership (checked against
the per-circuit LP route), SAGE dual, and the closed-form univariate-quartic
oracles."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sonckit import (
    Circuit,
    CircuitPolynomial,
    DualVector,
    SupportSet,
    as_sparse_polynomial,
    circuit_dual_membership,
    circuit_number,
    enumerate_circuits,
    lp_min_infeasibility,
    moment_vector,
    psd_dual_quartic,
    quartic_dual_membership,
    sage_dual_membership,
    sonc_dual_membership,
    xlogx_over,
)
from sonckit.circuits import MAX_EVEN_POINTS

from _gen import dense_support, moment_mixture, near_quartic_boundary, random_circuit, random_support

A4 = SupportSet.of([(i,) for i in range(5)])

#: A point coordinate: 0 or +-10^[-3, 3], integer powers drawn as often as the rest.
COORDINATES = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
)


def dv4(vals) -> DualVector:
    return DualVector(A4, {(i,): float(v) for i, v in enumerate(vals)})


class TestMinimaxLP:
    def test_opposed_unit_rows(self):
        assert lp_min_infeasibility([((1.0,), 0.0), ((-1.0,), 0.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_for_nonpositive(self):
        assert lp_min_infeasibility([((1.0,), 1.0), ((-1.0,), 1.0)]) == pytest.approx(1.0, abs=1e-12)

    def test_single_row_unbounded(self):
        assert lp_min_infeasibility([((1.0,), 5.0)]) == -math.inf

    def test_flat_rows(self):
        assert lp_min_infeasibility([((0.0,), 2.0), ((1.0,), 0.0), ((-1.0,), 0.0)]) == pytest.approx(2.0, abs=1e-12)

    def test_three_way_tie(self):
        # All three rows meet at tau = 0.1; rounded, the sloped rows cross
        # just below the flat level, which is the value.
        rows = [((0.1,), 0.1 + 0.1 * 0.1), ((-0.3,), 0.1 - 0.3 * 0.1), ((0.0,), 0.1)]
        assert lp_min_infeasibility(rows) == 0.1

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            lp_min_infeasibility([])
        with pytest.raises(ValueError):
            lp_min_infeasibility([((1.0,), 0.0), ((1.0, 2.0), 0.0)])

    def _scipy_oracle(self, rows):
        # min t  s.t.  a_j . tau + t >= b_j  via HiGHS
        n = len(rows[0][0])
        a_ub = [[-ai for ai in a] + [-1.0] for a, _ in rows]
        b_ub = [-b for _, b in rows]
        res = linprog(
            [0.0] * n + [1.0], A_ub=a_ub, b_ub=b_ub,
            bounds=[(None, None)] * (n + 1), method="highs",
        )
        if res.status == 3:
            return -math.inf
        assert res.status == 0
        return res.fun

    def test_line_path_matches_scipy(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            rows = [((float(rng.integers(-4, 5)),), float(rng.uniform(-5, 5))) for _ in range(m)]
            t_line = lp_min_infeasibility(rows)
            oracle = self._scipy_oracle(rows)
            if math.isinf(oracle):
                assert t_line == -math.inf
            else:
                assert t_line == pytest.approx(oracle, abs=1e-8)

    def test_simplex_matches_scipy_in_higher_dimension(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 7))
            rows = [
                (tuple(float(x) for x in rng.integers(-4, 5, size=n)), float(rng.uniform(-5, 5)))
                for _ in range(m)
            ]
            t = lp_min_infeasibility(rows)
            oracle = self._scipy_oracle(rows)
            if math.isinf(oracle):
                assert t == -math.inf
            else:
                assert t == pytest.approx(oracle, abs=1e-8)


def circuit_rows(circuit, v, v_star):
    """The rows (beta - alpha(j), v* log(v*/v_alpha(j))) of one circuit's LP."""
    return [
        (tuple(float(b - a) for a, b in zip(vert, circuit.inner)), xlogx_over(v_star, max(v[vert], 0.0)))
        for vert in circuit.vertices
    ]


def lp_gap(circuit, v, v_star) -> float:
    rows = circuit_rows(circuit, v, v_star)
    if any(math.isinf(b) for _, b in rows):
        return math.inf
    return lp_min_infeasibility(rows)


def lp_first_violated(catalog, v, tol):
    """The per-circuit LP route at v* = |v_beta|: the first circuit in
    catalog order that fails, or None for a member."""
    for c in catalog.circuits:
        v_beta = v[c.inner]
        if c.k == 1:
            if v_beta < -tol:
                return c
            continue
        if any(v[a] < -tol for a in c.vertices) or (c.beta_even and v_beta < -tol):
            return c
        if abs(v_beta) > 1e-12 and lp_gap(c, v, abs(v_beta)) > tol:
            return c
    return None


class TestCircuitMembership:
    def setup_method(self):
        self.support = SupportSet.of([(0,), (1,), (2,)])
        self.circuit = Circuit([(0,), (2,)], (1,))

    def dv(self, v0, v1, v2):
        return DualVector(self.support, {(0,): v0, (1,): v1, (2,): v2})

    def test_all_ones(self):
        ok, wit = circuit_dual_membership(self.circuit, self.dv(1.0, 1.0, 1.0))
        assert ok and wit.v_star == pytest.approx(1.0) and wit.tau == pytest.approx((0.0,))

    def test_violating_middle_value(self):
        assert not circuit_dual_membership(self.circuit, self.dv(1.0, 1.5, 1.0))[0]

    def test_sign_of_odd_coordinate_irrelevant(self):
        assert circuit_dual_membership(self.circuit, self.dv(1.0, -1.0, 1.0))[0]

    def test_negative_even_vertex_rejected(self):
        assert not circuit_dual_membership(self.circuit, self.dv(-1.0, 0.5, 1.0))[0]

    def test_zero_inner_value_is_member(self):
        ok, wit = circuit_dual_membership(self.circuit, self.dv(1.0, 0.0, 0.0))
        assert ok and wit.v_star == 0.0

    def test_zero_vertex_with_nonzero_inner_rejected(self):
        assert not circuit_dual_membership(self.circuit, self.dv(1.0, 0.5, 0.0))[0]

    def test_single_vertex_below_tol_rejected(self):
        single = Circuit([(2,)], (2,))
        assert circuit_dual_membership(single, self.dv(1.0, 0.0, -1e-6)) == (False, None)
        assert circuit_dual_membership(single, self.dv(1.0, 0.0, -1e-12))[0]

    def test_matches_scalar_closed_form(self):
        # member iff v1^2 <= v0*v2
        rng = np.random.default_rng(43)
        for _ in range(500):
            v0, v2 = 10.0 ** rng.uniform(-2, 2, size=2)
            v1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
            if abs(v1 * v1 - v0 * v2) < 1e-6 * max(1.0, v0 * v2):
                continue
            ok, _ = circuit_dual_membership(self.circuit, self.dv(v0, v1, v2))
            assert ok == (v1 * v1 <= v0 * v2)

    def test_pinned_v_star_is_optimal(self):
        # The LP gap at any v* >= |v_beta| never beats the gap at v* = |v_beta|
        # once that one exceeds the tolerance, for even and odd inner points,
        # so the search over v* that used to follow could not change a verdict.
        rng = np.random.default_rng(44)
        grid = np.concatenate([np.geomspace(1e-9, 1e3, 40), [0.5, 1.0, 2.0, math.e]])
        failing = 0
        for _ in range(150):
            c = random_circuit(rng)
            support = SupportSet.of(sorted(set(c.vertices) | {c.inner}), n=c.n)
            vals = {p: 10.0 ** rng.uniform(-2, 2) for p in support.points}
            if not c.beta_even:
                vals[c.inner] *= rng.choice([-1.0, 1.0])
            v = DualVector(support, vals)
            pinned = abs(v[c.inner])
            gap = lp_gap(c, v, pinned)
            ok, _ = circuit_dual_membership(c, v)
            assert ok == (gap <= 1e-9)
            if ok:
                continue
            failing += 1
            for step in grid:
                assert lp_gap(c, v, pinned * (1.0 + step)) >= gap - 1e-9 * max(1.0, abs(gap))
        assert failing >= 50

    def test_closed_form_matches_lp(self):
        # At v* = |v_beta| the LP value is s = v* (log v* - sum_j lambda_j
        # log v_alpha(j)), and a member's witness puts every row at slack -s.
        rng = np.random.default_rng(53)
        members = 0
        for _ in range(300):
            c = random_circuit(rng)
            support = SupportSet.of(sorted(set(c.vertices) | {c.inner}), n=c.n)
            v = DualVector(support, {p: 10.0 ** rng.uniform(-2, 2) for p in support.points})
            v_star = v[c.inner]
            mean = sum(float(mu) * math.log(v[a]) for mu, a in zip(c.barycentric, c.vertices))
            s = v_star * (math.log(v_star) - mean)
            rows = circuit_rows(c, v, v_star)
            scale = max(1.0, max(abs(b) for _, b in rows))
            assert s == pytest.approx(lp_gap(c, v, v_star), abs=1e-9 * scale)
            ok, witness = circuit_dual_membership(c, v)
            if not ok:
                continue
            members += 1
            assert witness.v_star == v_star
            for a, b in rows:
                assert b - sum(ai * ti for ai, ti in zip(a, witness.tau)) == pytest.approx(s, abs=1e-9 * scale)
        assert members >= 50


class TestSoncDualMembership:
    def test_separating_point(self):
        report = sonc_dual_membership(A4, dv4([2, 0, 1, 1, 1]))
        assert report.member
        assert len(report.witnesses) == 5
        for w in report.witnesses:
            assert w.circuit_index >= 0

    def test_moment_vector_member(self):
        assert sonc_dual_membership(A4, moment_vector((0.7,), A4)).member

    def test_non_member_names_violated_circuit(self):
        report = sonc_dual_membership(A4, dv4([1, 2, 1, 1, 1]))
        assert not report.member
        assert report.violated_circuit.vertices == ((0,), (2,))
        assert report.violated_circuit.inner == (1,)

    def test_negative_even_coordinate(self):
        report = sonc_dual_membership(A4, dv4([1, 0, -1, 0, 1]))
        assert not report.member
        assert report.violated_circuit.k == 1
        assert report.violated_circuit.inner == (2,)

    def test_support_mismatch_raises(self):
        other = SupportSet.of([(0,), (1,)])
        v = DualVector(other, {(0,): 1.0, (1,): 0.0})
        with pytest.raises(ValueError):
            sonc_dual_membership(A4, v)

    def test_witness_inequalities_hold(self):
        catalog = enumerate_circuits(A4)
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 50:
            vec = rng.uniform(-2, 2, size=5)
            report = sonc_dual_membership(A4, dv4(vec), tol=1e-9)
            if not report.member:
                continue
            checked += 1
            for w in report.witnesses:
                circuit = catalog.circuits[w.circuit_index]
                v_beta = vec[circuit.inner[0]]
                assert w.v_star >= abs(v_beta) - 1e-12 or (w.v_star == 0.0 and abs(v_beta) <= 1e-9)
                for vert in circuit.vertices:
                    lhs = xlogx_over(w.v_star, max(vec[vert[0]], 0.0))
                    rhs = sum((b - a) * t for b, a, t in zip(circuit.inner, vert, w.tau))
                    assert lhs <= rhs + 1e-9 + 1e-12 * abs(rhs)

    def test_member_report_builds_no_circuits(self, monkeypatch):
        support = SupportSet.of([a for a in itertools.product(range(7), repeat=2) if sum(a) <= 6])
        built = []
        post_init = Circuit.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        enumerate_circuits.cache_clear()
        report = sonc_dual_membership(support, moment_vector((0.7, -1.3), support))
        catalog = enumerate_circuits(support)
        assert report.member and len(catalog) == 250
        assert built == []
        # A non-member names the first circuit of the catalog that fails on its own.
        vals = dict(moment_vector((0.7, -1.3), support).values)
        vals[(2, 2)] *= 1.5
        v = DualVector(support, vals)
        report = sonc_dual_membership(support, v)
        first = next(i for i, c in enumerate(catalog.circuits) if not circuit_dual_membership(c, v)[0])
        assert report.violated_circuit == catalog.circuits[first]

    def test_non_member_report_builds_only_its_circuit(self, monkeypatch):
        support = SupportSet.of([a for a in itertools.product(range(9), repeat=2) if sum(a) <= 8])
        vals = dict(moment_vector((0.7, -1.3), support).values)
        vals[(2, 2)] *= 1.5
        v = DualVector(support, vals)
        built = []
        post_init = Circuit.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        enumerate_circuits.cache_clear()
        report = sonc_dual_membership(support, v)  # on a cold catalog
        assert not report.member and built == [report.violated_circuit]
        catalog = enumerate_circuits(support)
        first = next(i for i, c in enumerate(catalog.circuits) if not circuit_dual_membership(c, v)[0])
        assert len(catalog) == 1428 and report.violated_circuit == catalog.circuits[first]
        built.clear()  # a warm catalog hands out the circuit it kept
        assert sonc_dual_membership(support, v).violated_circuit is report.violated_circuit
        assert built == []


class TestAgainstLPRoute:
    """The closed form against the per-circuit LP it replaced."""

    @staticmethod
    def draw(rng, support, mode):
        """A dual vector: a perturbed moment vector (mostly members) or
        independent values with zeros, small negatives and mixed signs."""
        if mode == "moment":
            x = rng.uniform(-2.0, 2.0, size=support.n)
            if rng.uniform() < 0.3:
                x[rng.integers(0, support.n)] = 0.0
            vals = dict(moment_vector(tuple(x), support).values)
            if rng.uniform() < 0.5:
                p = support.points[rng.integers(0, len(support))]
                vals[p] *= 1.0 + rng.normal(0.0, 0.1)
        else:
            vals = {}
            for p in support.points:
                r = rng.uniform()
                if r < 0.15:
                    vals[p] = 0.0
                elif r < 0.2:
                    vals[p] = -10.0 ** rng.uniform(-12, -10)  # inside [-tol, 0)
                elif r < 0.3:
                    vals[p] = -10.0 ** rng.uniform(-3, 1)
                else:
                    vals[p] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        return DualVector(support, vals)

    def test_matches_lp_route_on_random_supports(self):
        rng = np.random.default_rng(54)
        tol = 1e-9
        seen = dict.fromkeys(
            ("member", "nonmember", "even_beta", "odd_beta", "zero_vertex", "zero_beta", "witness_n2", "witness_n3"), 0
        )
        for _ in range(300):
            n = int(rng.integers(1, 4))
            # one planted circuit, so every dimension contributes circuits
            planted = random_circuit(rng, n=n)
            extra = random_support(rng, n, max_points=5, max_entry=6).points
            support = SupportSet.of(sorted({*planted.vertices, planted.inner, *extra}), n=n)
            catalog = enumerate_circuits(support)
            higher = [c for c in catalog.circuits if c.k >= 2]
            for mode in ("moment", "values", "values"):
                v = self.draw(rng, support, mode)
                report = sonc_dual_membership(support, v, tol=tol)
                assert report.violated_circuit == lp_first_violated(catalog, v, tol)
                assert report.member == (report.violated_circuit is None)
                seen["member" if report.member else "nonmember"] += 1
                seen["even_beta"] += any(c.beta_even for c in higher)
                seen["odd_beta"] += any(not c.beta_even for c in higher)
                seen["zero_vertex"] += any(v[a] <= 0.0 for c in higher for a in c.vertices)
                seen["zero_beta"] += any(v[c.inner] == 0.0 for c in higher)
                if report.member:
                    assert [w.circuit_index for w in report.witnesses] == [
                        i for i, c in enumerate(catalog.circuits) if c.k >= 2
                    ]
                    for w in report.witnesses:
                        circuit = catalog.circuits[w.circuit_index]
                        self.check_witness(circuit, v, w, tol)
                    seen[f"witness_n{n}"] = seen.get(f"witness_n{n}", 0) + 1
        assert min(seen.values()) >= 20, seen

    @staticmethod
    def check_witness(circuit, v, w, tol):
        v_beta = abs(v[circuit.inner])
        assert w.v_star == (v_beta if v_beta > 1e-12 else 0.0)
        for vert in circuit.vertices:
            lhs = xlogx_over(w.v_star, max(v[vert], 0.0))
            rhs = sum((b - a) * t for b, a, t in zip(circuit.inner, vert, w.tau))
            assert lhs <= rhs + tol + 1e-12 * max(abs(lhs), abs(rhs))

    def test_extreme_magnitudes_decided_without_overflow(self):
        support = SupportSet.of([(0,), (1,), (2,)])
        cases = [
            ((1e-300, 1e300, 1e300), False),  # |v_1| = 1e300 > 1 = sqrt(v_0 v_2)
            ((1e-300, 1.5e308, 1e300), False),  # the gap itself overflows to +inf
            ((1e300, 1e-300, 1e300), True),
            ((1.7e308, -1.7e308, 1.7e308), True),
            ((5e-324, 5e-324, 5e-324), True),
        ]
        for vals, member in cases:
            v = DualVector(support, dict(zip(support.points, vals)))
            report = sonc_dual_membership(support, v)
            assert report.member == member
            assert all(math.isfinite(t) for w in report.witnesses for t in w.tau)


class TestQuarticOracles:
    def test_separating_point_values(self):
        assert quartic_dual_membership([2, 0, 1, 1, 1])
        assert not psd_dual_quartic([2, 0, 1, 1, 1])

    def test_quartic_rejects(self):
        assert not quartic_dual_membership([1, 0, 0, 1, 1])

    def test_origin(self):
        assert quartic_dual_membership([0, 0, 0, 0, 0])
        assert psd_dual_quartic([0, 0, 0, 0, 0])

    def test_psd_examples(self):
        assert psd_dual_quartic([1, 2, 4, 8, 16])
        assert psd_dual_quartic([1, 0, 1, 0, 1])

    def test_length_checked(self):
        with pytest.raises(ValueError):
            quartic_dual_membership([1, 2, 3])

    @pytest.mark.parametrize("test", [quartic_dual_membership, psd_dual_quartic])
    def test_huge_entries_decided_without_overflow(self, test):
        assert test([1e100, 0, 1, 0, 1])
        assert test([1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308])

    def test_huge_non_member(self):
        # v0^3 v4 - v1^4 = -15e400 lies below -tol * max|v_i|^4 = -1e391.
        assert not quartic_dual_membership([1e100, 2e100, 1e100, 0, 1e100])

    @pytest.mark.parametrize("test", [quartic_dual_membership, psd_dual_quartic])
    def test_tolerance_scales_with_degree(self, test):
        # v2 = -1e10 fails the degree-1 check v2 >= -tol * max|v_i|; a
        # tolerance of tol * max|v_i|^4 = 1e31 would let it pass.
        assert not test([1e10, 0, -1e10, 0, 1e10])
        assert test([1e10, 0, 1e10, 0, 1e10])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        for test in (quartic_dual_membership, psd_dual_quartic):
            with pytest.raises(ValueError):
                test([1, bad, 1, 0, 1])
        with pytest.raises(ValueError):
            dv4([1, 0, bad, 0, 1])

    def test_generic_membership_matches_closed_form(self):
        rng = np.random.default_rng(47)
        tested = 0
        while tested < 2000:
            vec = rng.uniform(-2, 2, size=5)
            if near_quartic_boundary(vec):
                continue
            tested += 1
            assert sonc_dual_membership(A4, dv4(vec)).member == quartic_dual_membership(vec)

    def test_psd_passing_points_pass_quartic(self):
        rng = np.random.default_rng(48)
        for _ in range(2000):
            vec = moment_mixture(rng)
            assert psd_dual_quartic(vec)
            assert quartic_dual_membership(vec)

    def test_membership_scale_invariant(self):
        rng = np.random.default_rng(49)
        for _ in range(200):
            vec = rng.uniform(-2, 2, size=5)
            if near_quartic_boundary(vec):
                continue
            base = sonc_dual_membership(A4, dv4(vec)).member
            for t in (1e-3, 1e3):
                assert sonc_dual_membership(A4, dv4(t * vec)).member == base


class TestMomentFeasibility:
    def test_random_moment_vectors_accepted(self):
        rng = np.random.default_rng(50)
        accepted = 0
        while accepted < 200:
            n = int(rng.integers(1, 4))
            A = random_support(rng, n, max_points=7, max_entry=6)
            x = rng.uniform(-3.0, 3.0, size=n)
            if rng.uniform() < 0.2:
                x[rng.integers(0, n)] = 0.0
            v = moment_vector(tuple(x), A)
            if not all(math.isfinite(val) for val in v.as_tuple()):
                continue
            assert sonc_dual_membership(A, v, tol=1e-7).member
            accepted += 1

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 8)] * n), min_size=1, max_size=12)))
    def test_origin_is_a_member_exactly(self, points):
        # e_0 = (0^alpha), the moment vector of the origin, is what lets the
        # bound always answer: the origin is always one of its candidates.
        n = len(points[0])
        A = SupportSet(n, tuple(set(points) | {(0,) * n}))
        assume(sum(all(e % 2 == 0 for e in pt) for pt in A.points) <= MAX_EVEN_POINTS)
        v = moment_vector((0.0,) * n, A)
        assert sonc_dual_membership(A, v, tol=0.0).member

    # 1000 examples: the first 500 hold no vector whose gap's rounding exceeds an absolute 1e-9.
    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(*[st.integers(0, 8)] * n), min_size=1, max_size=12),
                st.lists(COORDINATES, min_size=n, max_size=n),
            )
        )
    )
    def test_moment_vectors_are_members_at_any_scale(self, case):
        # v* reaches 1e72 here; the gap's tolerance is relative to it.
        points, x = case
        A = SupportSet.of(sorted(set(points)), n=len(x))
        assume(len(A.even_points()) <= MAX_EVEN_POINTS)
        assert sonc_dual_membership(A, moment_vector(tuple(x), A), tol=1e-9).member


class TestPairing:
    def test_pairing_nonnegative_for_members(self):
        rng = np.random.default_rng(51)
        catalog = enumerate_circuits(A4)
        higher = [c for c in catalog.circuits if c.k >= 2]
        done = 0
        while done < 200:
            circuit = higher[int(rng.integers(0, len(higher)))]
            coefs = tuple(10.0 ** rng.uniform(-1, 1, size=circuit.k))
            theta = circuit_number(coefs, circuit)
            sign = -1.0 if circuit.beta_even else rng.choice([-1.0, 1.0])
            q = as_sparse_polynomial(CircuitPolynomial(circuit, coefs, sign * theta * rng.uniform(0, 1)))
            x = rng.uniform(-2.0, 2.0)
            weight = rng.uniform(0.0, 2.0)
            vec = weight * np.array([1.0, x, x ** 2, x ** 3, x ** 4]) + moment_mixture(rng, atoms=1)
            if not sonc_dual_membership(A4, dv4(vec)).member:
                continue
            pairing = sum(q.coefficients.get((i,), 0.0) * vec[i] for i in range(5))
            scale = 1.0 + max(abs(c) for c in q.coefficients.values()) * max(1.0, max(abs(vec)))
            assert pairing >= -1e-7 * scale
            done += 1


def sage_rows(points, vals, i):
    """The rows of the dual SAGE LP for index i, or None when a row is +inf."""
    rows = []
    for j, (p, vj) in enumerate(zip(points, vals)):
        if j != i:
            b = xlogx_over(vals[i], vj)
            if math.isinf(b):
                return None
            rows.append((tuple(float(x - y) for x, y in zip(points[i], p)), b))
    return rows


class TestSageDual:
    def test_line_path_matches_highs_on_embedded_supports(self):
        # A univariate support embedded as {(a, 0)} gives every LP a second
        # tau coordinate with zero coefficients: the same value, solved on
        # HiGHS instead of by the crossing of lines.
        rng = np.random.default_rng(55)
        verdicts = dict.fromkeys((True, False), 0)
        unbounded = 0
        for _ in range(60):
            line = random_support(rng, 1, max_points=6, max_entry=8)
            plane = SupportSet.of([(a, 0) for (a,) in line.points], n=2)
            x = 10.0 ** rng.uniform(-0.5, 0.5)
            moments = [x ** a for (a,) in line.points]
            perturbed = [m * rng.uniform(0.8, 1.6) if a % 2 else m for (a,), m in zip(line.points, moments)]
            zeroed = [0.0 if rng.uniform() < 0.3 else m for m in moments]
            for vals in (moments, perturbed, zeroed):
                member = sage_dual_membership(line, DualVector(line, dict(zip(line.points, vals))))
                assert sage_dual_membership(plane, DualVector(plane, dict(zip(plane.points, vals)))) == member
                verdicts[member] += 1
                for i in range(len(vals)):
                    rows = sage_rows(line.points, vals, i)
                    if not rows:  # a +inf row, or a single point
                        continue
                    t_line = lp_min_infeasibility(rows)
                    t_plane = lp_min_infeasibility([((a[0], 0.0), b) for a, b in rows])
                    if t_line == -math.inf:
                        unbounded += 1
                        assert t_plane == -math.inf
                    else:
                        scale = max(1.0, max(abs(b) for _, b in rows))
                        assert t_plane == pytest.approx(t_line, abs=1e-8 * scale)
        assert min(verdicts.values()) >= 40 and unbounded >= 100, (verdicts, unbounded)

    def test_verdict_at_any_scale(self):
        # By LP duality the value for point i over the log-ratio rows is the
        # largest log v_i - sum_j lambda_j log v_j over the circuits of A with
        # inner point alpha(i).  In 2A every point is even, so its catalog
        # holds them all.  Point i fails when v_i times that value exceeds tol.
        rng = np.random.default_rng(56)
        tol = 1e-9
        decided = dict.fromkeys((True, False), 0)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            A = random_support(rng, n, max_points=8, max_entry=4)
            index = {tuple(2 * e for e in p): i for i, p in enumerate(A.points)}
            circuits = [c for c in enumerate_circuits(SupportSet.of(sorted(index), n=n)).circuits if c.k >= 2]
            x = 10.0 ** rng.uniform(-0.5, 0.5, size=(2, n))
            base = np.array([moment_vector(tuple(xi), A).as_tuple() for xi in x])
            if rng.uniform() < 0.3:
                vals = rng.uniform(0.1, 1.0, size=2) @ base  # a mixture: a member
            else:
                vals = base[0] * np.exp(rng.normal(0.0, 0.5, size=len(A)))
            for k in rng.integers(-30, 31, size=3):
                v = vals * 10.0 ** float(k)
                gaps = np.full(len(A), -math.inf)
                for c in circuits:
                    i = index[c.inner]
                    mean = sum(float(mu) * math.log(v[index[a]]) for mu, a in zip(c.barycentric, c.vertices))
                    gaps[i] = max(gaps[i], math.log(v[i]) - mean)
                dv = DualVector(A, dict(zip(A.points, v.tolist())))
                member = sage_dual_membership(A, dv, tol=tol)
                assert not member or sonc_dual_membership(A, dv, tol=tol).member, (A.points, v.tolist())
                scaled = v * gaps
                if np.all(np.abs(scaled - tol) > 1e-6 * np.maximum(1.0, v)):
                    assert member == (not np.any(scaled > tol)), (A.points, v.tolist())
                    decided[member] += 1
        assert min(decided.values()) >= 40, decided

    def test_sonc_dual_non_member_rejected_without_an_lp(self, monkeypatch):
        # The failing circuit's weights are a dual point of its inner point's
        # LP, so the catalog's closed form rejects before HiGHS runs.
        A = dense_support(2, 6)
        m = moment_vector((0.8, 1.2), A)
        v = DualVector(A, {p: m[p] * (1.5 if any(e % 2 for e in p) else 1.0) for p in A.points})
        assert not sonc_dual_membership(A, v).member
        lps = []
        real = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: lps.append(args) or real(*args, **kwargs))
        assert not sage_dual_membership(A, v)
        assert lps == []

    def test_gap_below_the_lp_tolerance_is_rejected(self):
        # On a moment vector v_(1,1) = sqrt(v_(0,0) v_(2,2)); lowering v_(2,2)
        # by 2e-8 opens a gap near 1e-8, ten times the default tol, on that
        # circuit.  The closed form sees it to rounding; the LPs alone
        # accepted it, HiGHS's value being good only to its feasibility
        # tolerance of about 1e-7.
        A = dense_support(2, 6)
        m = moment_vector((0.8, 1.2), A)
        v = DualVector(A, {p: m[p] * (1 - 2e-8 if p == (2, 2) else 1.0) for p in A.points})
        gap = v[(1, 1)] * (math.log(v[(1, 1)]) - (math.log(v[(0, 0)]) + math.log(v[(2, 2)])) / 2)
        assert gap > 5e-9
        assert not sage_dual_membership(A, v)

    def test_support_over_the_enumeration_cap(self):
        # 0..42 holds 22 even points: no catalog, so the LPs decide alone.
        A = SupportSet.of([(a,) for a in range(43)])
        assert len(A.even_points()) > MAX_EVEN_POINTS
        m = moment_vector((1.1,), A)
        assert sage_dual_membership(A, m)
        assert not sage_dual_membership(A, DualVector(A, {p: m[p] * (1.5 if p[0] % 2 else 1.0) for p in A.points}))

    def test_all_ones(self):
        v = dv4([1, 1, 1, 1, 1])
        assert sage_dual_membership(A4, v)

    def test_moment_vectors_of_positive_points(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            A = random_support(rng, n, max_points=6, max_entry=6)
            x = tuple(10.0 ** rng.uniform(-0.5, 0.5, size=n))
            assert sage_dual_membership(A, moment_vector(x, A))

    def test_large_moment_vectors(self):
        # v_i times the LP value carries v_i's rounding, so an absolute tol
        # fails 3 of these 12 members at scale 1e12: the tolerance is
        # relative to v_i once v_i >= 1.
        A = SupportSet.of(sorted(a for a in itertools.product(range(7), repeat=2) if sum(a) <= 6), n=2)
        for x in 10.0 ** np.random.default_rng(3).uniform(-0.5, 0.5, size=(12, 2)):
            m = moment_vector(tuple(x), A)
            assert sage_dual_membership(A, DualVector(A, {p: 1e12 * m[p] for p in A.points}))

    def test_univariate_pair_always_member(self):
        A = SupportSet.of([(0,), (2,)])
        for y in (0.5, 1.0, 7.3, 100.0):
            v = DualVector(A, {(0,): 1.0, (2,): y})
            assert sage_dual_membership(A, v)

    def test_zero_blocks_when_positive_elsewhere(self):
        A = SupportSet.of([(0,), (2,)])
        v = DualVector(A, {(0,): 1.0, (2,): 0.0})
        # v_i log(v_i/0) = +inf for the i at exponent 0
        assert not sage_dual_membership(A, v)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            sage_dual_membership(A4, dv4([1, -1, 1, 1, 1]))

    def test_single_point_support(self):
        A = SupportSet.of([(3,)])
        assert sage_dual_membership(A, DualVector(A, {(3,): 2.0}))
