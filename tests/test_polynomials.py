"""Parsing, serialization, evaluation and moment vectors."""

import json
import math

import numpy as np
import pytest

from sonckit import (
    DualVector,
    ParseError,
    SparsePolynomial,
    SupportSet,
    moment_vector,
    parse_polynomial,
    serialize_polynomial,
)
from sonckit.polynomials import MAX_VARIABLES, value_gradient_hessian

from _gen import MOTZKIN_TEXT, random_sparse_poly


class TestParse:
    def test_motzkin(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        assert p.n == 2
        assert p.coefficients == {(0, 0): 1.0, (2, 4): 1.0, (4, 2): 1.0, (2, 2): -3.0}

    def test_zero_polynomial(self):
        p = parse_polynomial("0", n=2)
        assert p.coefficients == {}
        assert p.support.points == ((0, 0),)

    def test_like_terms_merge(self):
        p = parse_polynomial("2*x1 - x1")
        assert p.coefficients == {(1,): 1.0}

    def test_implicit_multiplication_and_whitespace(self):
        p = parse_polynomial("  3x1^2 x2 +x2 ")
        assert p.coefficients == {(2, 1): 3.0, (0, 1): 1.0}

    def test_leading_sign(self):
        assert parse_polynomial("-x1 + 2").coefficients == {(1,): -1.0, (0,): 2.0}

    def test_repeated_variable_multiplies(self):
        assert parse_polynomial("x1*x1^2").coefficients == {(3,): 1.0}

    def test_scientific_coefficients(self):
        assert parse_polynomial("1.5e-3*x1").coefficients == {(1,): 1.5e-3}

    def test_declared_dimension(self):
        p = parse_polynomial("x1^2", n=3)
        assert p.coefficients == {(2, 0, 0): 1.0}

    @pytest.mark.parametrize(
        "text, n, coefficients",
        [
            ("x 1 ^ 2", 1, {(2,): 1.0}),
            ("1e+5x1", 1, {(1,): 1e5}),
            ("2.x1", 1, {(1,): 2.0}),
            (".5", 0, {(): 0.5}),
            ("X2", 2, {(0, 1): 1.0}),
            ("x01", 1, {(1,): 1.0}),
            ("*x1", 1, {(1,): 1.0}),
            ("x1^1048576*x1^0", 1, {(1048576,): 1.0}),
            ("\u0663x1^\u0662", 1, {(2,): 3.0}),  # Arabic-Indic digits: 3*x1^2
        ],
    )
    def test_grammar(self, text, n, coefficients):
        p = parse_polynomial(text)
        assert p.n == n and p.coefficients == coefficients

    @pytest.mark.parametrize(
        "text",
        ["", "x1^-2", "x1^2.5", "1 +", "x0", "3*", "x", "2**x1", "x1^2000000", "1 ? 2",
         "x1^", "x1^1048576*x1", "2 3", "x1 2", "- -x1", "2^3"],
    )
    def test_rejects_bad_text(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("1 + x1^-2", 7),
            # A dangling '*' is reported at the '*', not at the whitespace after it.
            ("3 *  ", 2),
            ("+840* 3", 4),
            ("* e", 0),
            # Non-decimal digits such as superscripts are no digits.
            ("x\u00b2", 1),
            ("x1^\u00b2", 3),
            ("2*x1\u00b2", 4),
            ("1e400*x1", 0),  # a number beyond the float range
        ],
    )
    def test_error_carries_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position

    def test_digit_runs_beyond_int_limit(self):
        # int() refuses strings of more than 4300 digits; leading zeros, in any
        # script, are no significant digits, and past the caps' length a token
        # is an error at its position.
        for text, position in [("x" + "1" * 5000, 0), ("1 + x1^" + "9" * 5000, 7), ("x1^" + "0" * 5000 + "12345678", 3)]:
            with pytest.raises(ParseError, match="cap") as err:
                parse_polynomial(text)
            assert err.value.position == position
        assert parse_polynomial("x1^" + "0" * 5000 + "2").coefficients == {(2,): 1.0}
        assert parse_polynomial("x" + "0" * 5000 + "1^\u0660\u0660\u0662").coefficients == {(2,): 1.0}
        assert parse_polynomial("x1^" + "0" * 5000).coefficients == {(0,): 1.0}

    def test_overflowing_sum_of_like_terms(self):
        # Each number is finite; only their sum leaves the float range.
        with pytest.raises(ValueError, match="not finite") as err:
            parse_polynomial("9e307*x1 + 9e307*x1")
        assert not isinstance(err.value, ParseError)

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 + x3", n=2)

    def test_variable_cap(self):
        assert parse_polynomial(f"x{MAX_VARIABLES}").n == MAX_VARIABLES
        with pytest.raises(ParseError, match="cap"):
            parse_polynomial(f"1 + x{MAX_VARIABLES + 1}")
        with pytest.raises(ValueError):
            parse_polynomial("x1", n=MAX_VARIABLES + 1)
        term = {"exp": [0] * MAX_VARIABLES, "coef": 1.0}
        assert SparsePolynomial.from_json_dict({"n": MAX_VARIABLES, "terms": [term]}).n == MAX_VARIABLES
        with pytest.raises(ValueError):
            SparsePolynomial.from_json_dict({"n": MAX_VARIABLES + 1, "terms": [term]})

    def test_constant_polynomial_has_dimension_zero(self):
        p = parse_polynomial("7")
        assert p.n == 0
        assert p.coefficients == {(): 7.0}


class TestSerialize:
    def test_motzkin_round_trip_text(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        assert serialize_polynomial(p) == "1 - 3*x1^2*x2^2 + x1^2*x2^4 + x1^4*x2^2"
        assert parse_polynomial(serialize_polynomial(p)).coefficients == p.coefficients

    def test_zero(self):
        assert serialize_polynomial(parse_polynomial("0")) == "0"

    def test_unit_coefficients(self):
        assert serialize_polynomial(parse_polynomial("x1 - x2")) == "-x2 + x1"

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            p = random_sparse_poly(rng, n)
            q = parse_polynomial(serialize_polynomial(p), n=n)
            assert set(q.coefficients) == set(p.coefficients)
            for exp, coef in p.coefficients.items():
                assert abs(q.coefficients[exp] - coef) <= 1e-15 * abs(coef)

    def test_json_round_trip(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        blob = json.dumps(p.to_json_dict())
        q = SparsePolynomial.from_json_dict(json.loads(blob))
        assert q.coefficients == p.coefficients
        assert q.support == p.support


class TestEvaluate:
    def test_motzkin_at_ones(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        assert p.evaluate((1.0, 1.0)) == 0.0

    def test_origin_gives_constant(self):
        p = parse_polynomial("4.5 + x1*x2 + x2^3")
        assert p.evaluate((0.0, 0.0)) == 4.5

    def test_univariate(self):
        assert parse_polynomial("1 + x1^2").evaluate((2.0,)) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_polynomial("x1").evaluate((1.0, 2.0))

    def test_monomial_multiplicative_on_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            exp = tuple(int(e) for e in rng.integers(0, 9, size=n))
            x = tuple(float(v) for v in rng.integers(-3, 4, size=n))
            mono = SparsePolynomial.from_terms({exp: 1.0}, n=n)
            direct = 1.0
            for xi, e in zip(x, exp):
                direct *= xi ** e
            assert mono.evaluate(x) == direct


    def test_overflow_gives_signed_inf(self):
        # A power beyond the float range enters as +-inf; nothing raises.
        assert parse_polynomial("x1^3").evaluate((-1e200,)) == -math.inf
        assert parse_polynomial("1 + x1^4").evaluate((-1e200,)) == math.inf
        assert math.isnan(parse_polynomial("x1^2 - x2^2").evaluate((1e200, 1e200)))


class TestGradient:
    """Values and gradients of the one-point value-gradient-Hessian kernel."""

    def test_matches_termwise_numpy_reference(self):
        # The kernel multiplies (c alpha_i) by the lowered monomial, the
        # reference c alpha_i by the powers in turn, hence relative 1e-12.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = random_sparse_poly(rng, n, max_terms=6)
            for x in rng.uniform(-2, 2, size=(3, n)):
                _, grad, _ = value_gradient_hessian(p, x)
                want = np.zeros(n)
                for exp, coef in p.coefficients.items():
                    for i, e in enumerate(exp):
                        if e:
                            term = coef * e
                            for j, ej in enumerate(exp):
                                pw = ej - 1 if j == i else ej
                                if pw:
                                    term *= x[j] ** pw
                            want[i] += term
                assert grad.shape == (n,)
                assert grad.tolist() == pytest.approx(want.tolist(), rel=1e-12, abs=1e-300)

    def test_value_is_evaluate_to_the_bit(self):
        # The termwise test's draws, 500 of them: 1500 points.
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            p = random_sparse_poly(rng, n, max_terms=6)
            for x in rng.uniform(-2, 2, size=(3, n)):
                assert value_gradient_hessian(p, x)[0] == p.evaluate(x)

    def test_zero_power_convention(self):
        value, grad, _ = value_gradient_hessian(parse_polynomial("3*x1 + x1*x2^2"), (0.0, 0.0))
        assert value == 0.0 and grad.tolist() == [3.0, 0.0]

    def test_overflow_gives_signed_inf(self):
        value, grad, _ = value_gradient_hessian(parse_polynomial("x1^3*x2"), (1e200, -1.0))
        assert value == -math.inf and grad.tolist() == [-math.inf, math.inf]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            value_gradient_hessian(parse_polynomial("x1"), (1.0, 2.0))


class TestHessian:
    """Second derivatives of the one-point kernel."""

    @staticmethod
    def reference(p, x):
        """Term by term, on Python floats: d^2/dx_i dx_j of c x^alpha."""
        n = len(x)
        want = [[0.0] * n for _ in range(n)]
        for exp, coef in p.coefficients.items():
            for i in range(n):
                for j in range(n):
                    lowered = list(exp)
                    factor = lowered[i]
                    lowered[i] -= 1
                    factor *= lowered[j]
                    lowered[j] -= 1
                    if factor == 0:
                        continue
                    term = coef * factor
                    for xk, ek in zip(x, lowered):
                        if ek:
                            term *= float(xk) ** ek
                    want[i][j] += term
        return want

    def test_matches_termwise_reference(self):
        # Relative 1e-12 for the same reason as the gradient's reference.
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = random_sparse_poly(rng, n, max_terms=6)
            for x in rng.uniform(-2, 2, size=(3, n)):
                hess = value_gradient_hessian(p, x)[2]
                want = self.reference(p, x)
                assert hess.shape == (n, n)
                for row, want_row in zip(hess.tolist(), want):
                    assert row == pytest.approx(want_row, rel=1e-12, abs=1e-300)

    def test_symmetric(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            p = random_sparse_poly(rng, n, max_terms=8)
            for x in rng.uniform(-2, 2, size=(4, n)):
                hess = value_gradient_hessian(p, x)[2]
                assert np.array_equal(hess, hess.T)

    def test_origin_with_exponents_zero_one_two(self):
        p = parse_polynomial("5 + 3*x1 + 2*x1^2 + 7*x1*x2 + x2^2*x3 + 4*x1^2*x2^2")
        _, _, hess = value_gradient_hessian(p, (0.0, 0.0, 0.0))
        assert hess.tolist() == [[4.0, 7.0, 0.0], [7.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_overflow_without_warning(self):
        # Tier-1 turns RuntimeWarning into an error, so a warning fails here.
        p = parse_polynomial("x1^3*x2 + x2^2 + x1*x3^400")
        value, _, hess = value_gradient_hessian(p, (1e200, -1.0, 0.0))
        assert value == -math.inf and hess[1, 1] == 2.0 and hess[0, 0] == -6e200
        assert hess[0, 1] == hess[1, 0] == math.inf and hess[2, 2] == 0.0
        _, _, hess = value_gradient_hessian(p, (-1e200, 2.0, 1e10))
        assert hess[2, 2] == -math.inf and hess[0, 2] == hess[2, 0] == math.inf


class TestMomentVector:
    def test_all_ones(self):
        p = parse_polynomial(MOTZKIN_TEXT)
        v = moment_vector((1.0, 1.0), p.support)
        assert v.as_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_origin_zero_power_convention(self):
        A = SupportSet.of([(0, 0), (1, 0), (2, 3)])
        v = moment_vector((0.0, 0.0), A)
        assert v[(0, 0)] == 1.0 and v[(1, 0)] == 0.0 and v[(2, 3)] == 0.0

    def test_powers_of_two(self):
        A = SupportSet.of([(i,) for i in range(5)])
        assert moment_vector((2.0,), A).as_tuple() == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_agrees_with_monomial_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p = random_sparse_poly(rng, n, max_terms=6)
            x = tuple(rng.uniform(-2, 2, size=n))
            v = moment_vector(x, p.support)
            for exp in p.support.points:
                mono = SparsePolynomial.from_terms({exp: 1.0}, n=n)
                assert v[exp] == pytest.approx(mono.evaluate(x), rel=1e-12, abs=1e-300)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            moment_vector((1.0,), SupportSet.of([(0, 0)]))

    def test_moment_beyond_float_range_is_value_error(self):
        with pytest.raises(ValueError, match="finite"):
            moment_vector((1e200,), SupportSet.of([(0,), (2,)]))


class TestTypes:
    def test_support_sorted_dedup(self):
        A = SupportSet.of([(2, 0), (0, 1), (2, 0)])
        assert A.points == ((0, 1), (2, 0))

    def test_support_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            SupportSet.of([(1, 2), (3,)])

    def test_support_rejects_negative(self):
        with pytest.raises(ValueError):
            SupportSet.of([(-1, 0)])

    def test_polynomial_rejects_key_outside_support(self):
        A = SupportSet.of([(0,)])
        with pytest.raises(ValueError):
            SparsePolynomial(A, {(1,): 1.0})

    def test_polynomial_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparsePolynomial.from_terms({(0,): math.inf})

    def test_dual_vector_keys_exact(self):
        A = SupportSet.of([(0,), (1,)])
        with pytest.raises(ValueError):
            DualVector(A, {(0,): 1.0})
        with pytest.raises(ValueError):
            DualVector(A, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
