"""Deterministic fuzzing of the command line on extreme inputs, and of the
exact bound on bounded polynomials.

Whatever the input, `main` returns 0, 1 or 2 and raises nothing; unless it
exits 2, stdout is strict JSON (no NaN or Infinity), and on exit 2 it is
empty, with one `error:` line on stderr instead of a verdict.
"""

import contextlib
import io
import json
import math
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sonckit import (
    Circuit,
    SparsePolynomial,
    SupportSet,
    UnboundedWitness,
    certify_optimality,
    enumerate_circuits,
    verify_certificate,
    verify_unbounded,
)
from sonckit.cli import _load_polynomial, main
from sonckit.polynomials import MAX_VARIABLES, ParseError, parse_polynomial

from _gen import bound_parts, eval_on_points, multistart_min

#: Zero terms keep x1^60*x2^7 and x1^60*x2^5 in the support, and the moments
#: of a dual candidate point there leave the float range.
OVERFLOWING_MOMENTS = "-0.0*x1^60*x2^7 + 3.5*x2^7 + x1*x2^1000 - 7*x1^1000*x2^60 - 0.0*x1^60*x2^5"

#: A dual SAGE member with entries near 1e40: LP rows v_i log(v_i/v_j) would
#: lie beyond HiGHS's range, the log-ratio rows log v_i - log v_j do not.
SAGE_LARGE_ENTRIES = '{"n":2,"points":[[0,0],[2,0],[0,2],[1,1]],"values":[1e40,3e40,2e40,1e40]}'

#: An exponent beyond the float range: the dual SAGE LP cannot be built, so sage-dual exits 2.
HUGE_EXPONENT = '{"n":1,"points":[[0],[1],[%d]],"values":[1,0.5,1]}' % 10**400

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)

EXPONENTS = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 60, 999, 1000])
MAGNITUDES = st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)).map(lambda s: 10.0**s)
COEFFICIENTS = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDES).map(lambda t: t[0] * t[1]),
    st.sampled_from([0.0, -0.0]),
)


def _term(first: bool, coef: float, factors: list[tuple[int, int]]) -> str:
    """coef times x<index>^<e> over the (index, e) factors, signed."""
    body = "*".join([repr(abs(coef))] + [f"x{i}^{e}" for i, e in factors])
    sign = "-" if math.copysign(1.0, coef) < 0 else ("" if first else "+")
    return sign + body


@st.composite
def polynomial_texts(draw) -> str:
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(COEFFICIENTS, st.lists(EXPONENTS, min_size=n, max_size=n)), min_size=1, max_size=5))
    return " ".join(_term(i == 0, c, [(j + 1, e) for j, e in enumerate(exp) if e]) for i, (c, exp) in enumerate(terms))


#: What may stand where a JSON number is expected.
NON_NUMBERS = st.sampled_from([math.inf, -math.inf, math.nan, None, "x", "11", True, False, [1.0]])


def _spoil(draw, values: list) -> list:
    """Half the time, one entry replaced by a non-finite number or a non-number."""
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(NON_NUMBERS)
    return values


#: Pieces of polynomial text, valid and not.  Every piece that starts with a
#: digit also holds a non-digit, so a variable index has at most two digits:
#: the dimension, and with it the descent, stays small.
TEXT_PIECES = st.sampled_from(
    ["x1", "x2", "x", "X2", "x0", "^", "^2", "^-1", "^2.5", "^1000", "^9999999", "*", "**", "+", "-",
     " ", "2.5", ".", "e", "1e400", "-0.0", "nan", "inf", "(", "x1^2", "+ 1", "- 3*x2^4"]
)


@st.composite
def dual_vectors(draw) -> str:
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=1, max_size=6, unique_by=tuple))
    signs = st.sampled_from([1.0, -1.0]) if draw(st.booleans()) else st.just(1.0)
    entries = st.one_of(st.tuples(signs, MAGNITUDES).map(lambda t: t[0] * t[1]), st.just(0.0))
    values = _spoil(draw, draw(st.lists(entries, min_size=len(points), max_size=len(points))))
    return json.dumps({"n": n, "points": points, "values": values})


#: What may stand where a dimension or an exponent entry is expected.
BAD_INTEGERS = st.sampled_from([-1, 2.5, "2", None, MAX_VARIABLES + 1, float("inf"), True])


def _spoil_points(draw, points: list[list]) -> None:
    """Half the time, one point loses its last entry or has one replaced."""
    if points and draw(st.booleans()):
        point = points[draw(st.integers(0, len(points) - 1))]
        if point and draw(st.booleans()):
            point.pop()
        elif point:
            point[0] = draw(BAD_INTEGERS)


@st.composite
def polynomial_jsons(draw) -> str:
    n = draw(st.integers(1, 3))
    # Small exponents: the text fuzz covers the numeric extremes, this one the loader.
    exps = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=1, max_size=5))
    coefs = _spoil(draw, [draw(COEFFICIENTS) for _ in exps])
    _spoil_points(draw, exps)
    declared = draw(st.one_of(st.just(n), st.just(n), BAD_INTEGERS, st.just(0)))
    return json.dumps({"n": declared, "terms": [{"exp": e, "coef": c} for e, c in zip(exps, coefs)]})


@st.composite
def support_jsons(draw) -> str:
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), max_size=8))
    _spoil_points(draw, points)
    declared = draw(st.one_of(st.just(n), st.just(n), BAD_INTEGERS))
    return json.dumps({"n": declared, "points": points})


#: Variable indices on both sides of the parse-time cap.
INDICES = st.sampled_from([1, 2, MAX_VARIABLES - 1, MAX_VARIABLES, MAX_VARIABLES + 1, 10**6])


@st.composite
def wide_texts(draw) -> str:
    terms = draw(st.lists(st.tuples(COEFFICIENTS, st.lists(st.tuples(INDICES, st.integers(0, 4)), max_size=3)), min_size=1, max_size=3))
    return " ".join(_term(i == 0, c, factors) for i, (c, factors) in enumerate(terms))


@st.composite
def circuit_checks(draw) -> str:
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):  # an even simplex, so many draws are circuits
        d = draw(st.sampled_from([1, 2, 3, 30, 500]))
        vertices = [[0] * n] + [[2 * d * (i == j) for j in range(n)] for i in range(n)]
        beta = draw(st.lists(st.integers(0, 2 * d // n), min_size=n, max_size=n))
    else:
        vertices = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=1, max_size=n + 2))
        beta = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    k = len(vertices) + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
    c = draw(st.lists(MAGNITUDES, min_size=k, max_size=k))
    *c, delta = _spoil(draw, [*c, draw(COEFFICIENTS)])
    return json.dumps({"vertices": vertices, "beta": beta, "c": c, "delta": delta})


@st.composite
def permuted_circuit_checks(draw) -> tuple[str, str]:
    """A circuit check, and the same check with its vertices listed in
    another order and its coefficients moved with them."""
    blob = json.loads(draw(circuit_checks()))
    order = draw(st.permutations(range(len(blob["vertices"]))))
    moved = dict(blob, vertices=[blob["vertices"][i] for i in order])
    if len(blob["c"]) == len(order):
        moved["c"] = [blob["c"][i] for i in order]
    return json.dumps(blob), json.dumps(moved)


@st.composite
def quartic_vectors(draw) -> str:
    if draw(st.booleans()):  # a moment vector (t^0, ..., t^4): a member
        t = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(-70.0, 70.0).map(lambda s: 10.0**s))
        v = [t**k for k in range(5)]
    else:
        v = draw(st.lists(COEFFICIENTS, min_size=5, max_size=5) | st.lists(COEFFICIENTS, max_size=7))
    v = _spoil(draw, v)
    return json.dumps({"v": v} if draw(st.booleans()) else v)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def check_clean_exit(argv: list[str], text: str) -> tuple[int, dict | None]:
    """The exit code and, unless it is 2, the JSON on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "-"])
    assert code in (0, 1, 2), (argv, text)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), (argv, text)
        assert err.getvalue().count("\n") == 1, (argv, text)
        return code, None
    return code, json.loads(out.getvalue(), parse_constant=_reject_constant)


def check_answer(text: str, blob: dict | None) -> None:
    """Each piece of a `bound` or `certify` certificate names its circuit:
    its vertices and beta build a Circuit over supp(p) and the constant
    point, with one coefficient per vertex.  A `bound` answer's unbounded
    witness passes `verify_unbounded`, and p_dual and dual_point are null
    exactly when it is there."""
    if blob is None:
        return
    p = _load_polynomial(text)
    if "unbounded" in blob:
        witness = blob["unbounded"]
        assert (witness is None) == (blob["p_dual"] is not None) == (blob["dual_point"] is not None), text
        if witness is not None:
            witness = UnboundedWitness(tuple(witness["vertex"]), tuple(witness["w"]), tuple(witness["s"]))
            assert verify_unbounded(p, witness), text
    if blob["certificate"] is None:
        return
    allowed = set(p.support.points) | {(0,) * p.n}
    for piece in blob["certificate"]["pieces"]:
        circuit = Circuit(piece["vertices"], piece["beta"])
        assert allowed.issuperset((*circuit.vertices, circuit.inner)), text
        assert len(piece["c"]) == circuit.k, text


@FUZZ
@given(polynomial_texts())
@example(OVERFLOWING_MOMENTS)
def test_polynomial_commands_exit_cleanly(text):
    for command in ("bound", "certify"):
        check_answer(text, check_clean_exit([command], text)[1])
    check_clean_exit(["circuits"], text)


@FUZZ
@given(dual_vectors())
@example(SAGE_LARGE_ENTRIES)
@example(HUGE_EXPONENT)
def test_dual_checks_exit_cleanly(text):
    for kind in ("dual-member", "sage-dual"):
        check_clean_exit(["check", kind], text)


@FUZZ
@given(circuit_checks())
def test_nonneg_circuit_check_exits_cleanly(text):
    check_clean_exit(["check", "nonneg-circuit"], text)


@FUZZ
@given(permuted_circuit_checks())
def test_nonneg_circuit_verdict_ignores_vertex_order(texts):
    (code, blob), (moved_code, moved) = (check_clean_exit(["check", "nonneg-circuit"], t) for t in texts)
    assert code == moved_code, texts
    if code != 2:
        theta, moved_theta = blob["theta"], moved["theta"]
        assert (theta is None) == (moved_theta is None), texts
        assert theta is None or math.isclose(theta, moved_theta, rel_tol=1e-12, abs_tol=0.0), texts


@FUZZ
@given(quartic_vectors())
def test_quartic_checks_exit_cleanly(text):
    check_clean_exit(["check", "quartic-dual"], text)
    check_clean_exit(["check", "quartic-dual", "--psd"], text)


@FUZZ
@given(st.lists(TEXT_PIECES, min_size=1, max_size=8).map("".join))
def test_malformed_text_through_bound_exits_cleanly(text):
    check_clean_exit(["bound"], text)


@FUZZ
@given(st.lists(st.one_of(TEXT_PIECES, st.just("\u00b2")), min_size=1, max_size=8).map("".join))
def test_malformed_text_parses_or_raises_parse_error(text):
    try:
        parse_polynomial(text)
    except ParseError:
        pass


@FUZZ
@given(polynomial_jsons())
def test_polynomial_json_commands_exit_cleanly(text):
    for command in ("bound", "certify"):
        check_answer(text, check_clean_exit([command], text)[1])
    check_clean_exit(["circuits"], text)


@FUZZ
@given(support_jsons())
def test_support_json_through_circuits_exits_cleanly(text):
    check_clean_exit(["circuits"], text)


@FUZZ
@given(wide_texts())
@example("x1000000")
@example(f"1 + x{MAX_VARIABLES}^2 - x1*x{MAX_VARIABLES}")
def test_variable_indices_around_the_cap_exit_cleanly(text):
    check_clean_exit(["bound"], text)


MAGNITUDES_3 = st.floats(-3.0, 3.0).map(lambda s: 10.0**s)
SIGNED_3 = st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDES_3).map(lambda t: t[0] * t[1])


@st.composite
def even_simplex_polynomials(draw) -> SparsePolynomial:
    """Positive constant and x_i^2d terms (n <= 3, 2d <= 12) plus up to n + 5
    interior points of the simplex with signed coefficients: always bounded."""
    n = draw(st.integers(1, 3))
    two_d = 2 * draw(st.integers(n, 6))
    terms = {v: draw(MAGNITUDES_3) for v in [(0,) * n] + [tuple(two_d * (i == j) for j in range(n)) for i in range(n)]}
    interior = [a for a in product(range(1, two_d), repeat=n) if sum(a) < two_d]
    for a in draw(st.lists(st.sampled_from(interior), max_size=n + 5, unique=True)):
        terms[a] = draw(SIGNED_3)
    return SparsePolynomial.from_terms(terms, n=n)


@st.composite
def sparse_polynomials(draw) -> SparsePolynomial:
    """n <= 3, degree <= 8, at most 7 terms; half of them even with a
    positive coefficient, so that more draws are bounded."""
    n = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 8), min_size=n, max_size=n).map(lambda e: tuple(x * 8 // max(8, sum(e)) for x in e))
    even = exps.map(lambda e: tuple(2 * (x // 2) for x in e))
    term = st.one_of(st.tuples(exps, SIGNED_3), st.tuples(even, MAGNITUDES_3))
    return SparsePolynomial.from_terms(dict(draw(st.lists(term, min_size=1, max_size=7))), n=n)


def check_exact_bound(p: SparsePolynomial) -> None:
    """The certificate verifies, p_sonc lies below every sampled value and
    the multistart oracle's minimum, and x_1 -> -1.25 x_1, which leaves the SONC
    value unchanged, moves the bound by no more than the solve's tolerance.
    Tolerances are relative to max(scale, |value|): a tight bound near
    -2.4e11 sits 6e-4 above the computed minimum, p's own rounding there."""
    r = certify_optimality(p)
    if r.certificate is None:
        return
    assert verify_certificate(p, r.certificate)
    scale = 1.0 + max(map(abs, p.coefficients.values()))
    xs = np.random.default_rng(0).uniform(-3.0, 3.0, size=(2000, p.n))
    low = min(float(eval_on_points(p, xs).min()), multistart_min(p))
    assert r.p_sonc <= low + 1e-6 * max(scale, abs(low))
    q = SparsePolynomial.from_terms({e: c * (-1.25) ** e[0] for e, c in p.coefficients.items()}, n=p.n)
    tol = 1e-6 * max(scale, 1.0 + max(map(abs, q.coefficients.values())), abs(r.p_sonc))
    assert abs(certify_optimality(q).p_sonc - r.p_sonc) <= tol


@FUZZ
@given(even_simplex_polynomials())
def test_exact_bound_on_even_simplices(p):
    assert certify_optimality(p).certificate is not None
    check_exact_bound(p)


@settings(FUZZ, suppress_health_check=[HealthCheck.filter_too_much])
@given(sparse_polynomials())
def test_exact_bound_on_bounded_sparse_polynomials(p):
    assume(bound_parts(p)[2] is None)
    check_exact_bound(p)


@st.composite
def multi_circuit_polynomials(draw) -> SparsePolynomial:
    """An even simplex (n <= 2, 2d <= 10) with 1-3 positive even interior
    terms and 1-3 odd or negative interior terms, each the inner point of
    2-4 circuits over the positive even points and the constant, and each
    coefficient then scaled by its own 2^e, e in [-1000, 1000] (exactly:
    no coefficient leaves the normal range).  The barrier's multi-circuit
    slack solve then runs on G from about 1e-7 to 1e154, and the path
    meets objectives beyond the float range."""
    n = draw(st.integers(1, 2))
    two_d = 2 * draw(st.integers(n + 1, 5))
    terms = {v: draw(MAGNITUDES_3) for v in [(0,) * n] + [tuple(two_d * (i == j) for j in range(n)) for i in range(n)]}
    interior = [a for a in product(range(1, two_d), repeat=n) if sum(a) < two_d]
    even = [a for a in interior if not any(x % 2 for x in a)]
    for a in draw(st.lists(st.sampled_from(even), min_size=1, max_size=3, unique=True)):
        terms[a] = draw(MAGNITUDES_3)
    bad = draw(st.lists(st.sampled_from([a for a in interior if a not in terms]), min_size=1, max_size=3, unique=True))
    for a in bad:
        c = draw(SIGNED_3)
        terms[a] = -abs(c) if a in even else c
    hosts = {a for a, c in terms.items() if c > 0.0 and not any(x % 2 for x in a)}
    catalog = enumerate_circuits(SupportSet.of(sorted(terms), n=n)).circuits
    for beta in bad:
        assume(2 <= sum(c.inner == beta and set(c.vertices) <= hosts for c in catalog) <= 4)
    return SparsePolynomial.from_terms({a: c * 2.0 ** draw(st.integers(-1000, 1000)) for a, c in terms.items()}, n=n)


@settings(FUZZ, suppress_health_check=[HealthCheck.filter_too_much])
@given(multi_circuit_polynomials())
@example(SparsePolynomial.from_terms({(0,): 1.0, (1,): -7.61352657140625e286, (2,): 4.626864469947544e223, (4,): 1.0}, n=1))
def test_multi_circuit_barrier_at_any_scale(p):
    # The example's objective reaches -inf in the first stage; t followed it
    # to 0, and the stage end divided by t.
    r = certify_optimality(p)
    assert r.certificate is None or verify_certificate(p, r.certificate)


@FUZZ
@given(st.one_of(even_simplex_polynomials(), sparse_polynomials()))
def test_certificate_pieces_name_their_circuits(p):
    text = json.dumps(p.to_json_dict())
    for command in ("bound", "certify"):
        check_answer(text, check_clean_exit([command], text)[1])


@FUZZ
@given(sparse_polynomials(), st.data())
def test_unbounded_witness_rejects_tampering(p, data):
    # Every witness certify_optimality emits passes the exact check, and no
    # tampered copy does.
    witness = certify_optimality(p).unbounded
    assume(witness is not None)
    assert verify_unbounded(p, witness)
    alpha, w, s = witness
    tampered = []
    odd = [i for i, a in enumerate(alpha) if a % 2]
    if odd:  # flipping the sign of an odd coordinate flips s^alpha
        i = data.draw(st.sampled_from(odd))
        tampered.append(witness._replace(s=tuple(-si if j == i else si for j, si in enumerate(s))))
    # Weights with some pairing <= 0: zero, negated, and w' = <w, d> u - <u, d> w,
    # which pairs to exactly 0 with d = alpha - beta.
    beta = data.draw(st.sampled_from(sorted((set(p.coefficients) | {(0,) * p.n}) - {alpha})))
    u = data.draw(st.lists(st.integers(-5, 5), min_size=p.n, max_size=p.n))
    d = [a - b for a, b in zip(alpha, beta)]
    wd, ud = sum(x * y for x, y in zip(w, d)), sum(x * y for x, y in zip(u, d))
    for bad_w in ((0,) * p.n, tuple(-wi for wi in w), tuple(wd * ui - ud * wi for ui, wi in zip(u, w))):
        tampered.append(witness._replace(w=bad_w))
    outside = tuple(data.draw(st.lists(st.integers(0, 9), min_size=p.n, max_size=p.n)))
    if outside not in p.coefficients:
        tampered.append(witness._replace(vertex=outside))
    tampered.append(witness._replace(vertex=(0,) * p.n))
    for field in ("vertex", "w", "s"):
        value = getattr(witness, field)
        tampered += [witness._replace(**{field: value[:-1]}), witness._replace(**{field: (*value, value[-1])})]
    # Not integers, or a sign outside {-1, 1}.
    tampered += [witness._replace(w=(w[0] + 0.5, *w[1:]))]
    tampered += [witness._replace(s=(bad, *s[1:])) for bad in (0, 2 * s[0])]
    for bad in tampered:
        assert not verify_unbounded(p, bad), bad


def test_unbounded_witness_at_the_origin_rejected():
    # -1 + x1^2 is bounded below, yet the constant's witness (w = -1) passes
    # every other test: along t^-1 the constant term dominates, and p -> -1.
    p = parse_polynomial("-1 + x1^2")
    assert certify_optimality(p).unbounded is None
    assert not verify_unbounded(p, UnboundedWitness((0,), (-1,), (1,)))
