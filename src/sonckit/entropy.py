"""Relative entropy with extended values, the exponential cone and its dual,
and closed-form entropy minimizers over a circuit.

Conventions used throughout (they totalize every log expression):

    0 * log(0/y) = 0   for y >= 0,        y * log(y/0) = +inf   for y > 0.

A sum with a +inf term is +inf; no NaN ever escapes these functions.  All
cone memberships take an explicit tolerance, applied absolutely to the
defining inequality after log-domain rescaling, which also avoids overflow.
"""

from __future__ import annotations

import math
from typing import Sequence

from .circuits import Circuit, log_circuit_number

#: Default absolute tolerance on a cone inequality after log-domain rescaling.
DEFAULT_TOL = 1e-9


def xlogx_over(y: float, lam: float) -> float:
    """y * log(y / lam) with the extended conventions; y, lam >= 0."""
    if y < 0.0 or lam < 0.0:
        raise ValueError(f"extended entropy terms need nonnegative arguments, got ({y}, {lam})")
    if y == 0.0:
        return 0.0
    if lam == 0.0:
        return math.inf
    return y * math.log(y / lam)


def relative_entropy(nu: Sequence[float], lam: Sequence[float]) -> float:
    """D(nu, lambda) = sum_j nu_j log(nu_j / lambda_j), possibly +inf."""
    if len(nu) != len(lam):
        raise ValueError("nu and lambda must have equal length")
    total = 0.0
    for y, l in zip(nu, lam):
        term = xlogx_over(float(y), float(l))
        if math.isinf(term):
            return math.inf
        total += term
    return total


def exp_cone_member(p: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Membership of (x, y, z) in the closed exponential cone.

    For y > 0 the defining inequality y * e^(x/y) <= z is tested as
    x/y + log y - log z <= tol; the closure ray (y = 0, x <= 0, z >= 0)
    is tested with the same tolerance.
    """
    x, y, z = (float(v) for v in p)
    if y > 0.0 and z > 0.0 and x / y + math.log(y) - math.log(z) <= tol:
        return True
    return abs(y) <= tol and x <= tol and z >= -tol


def exp_cone_dual_member(p: Sequence[float], tol: float = DEFAULT_TOL) -> bool:
    """Membership of (a, b, c) in the dual of the exponential cone.

    For a < 0 the condition c >= -a * e^(b/a - 1) is tested in the log
    domain; the a = 0 face needs b >= 0 and c >= 0.
    """
    a, b, c = (float(v) for v in p)
    if a < 0.0 and c > 0.0 and math.log(-a) + b / a - 1.0 <= math.log(c) + tol:
        return True
    return abs(a) <= tol and b >= -tol and c >= -tol


def entropy_iff_expcone(nu: float, lam: float, delta: float, tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Evaluate D(nu, lambda) <= delta along two routes that must agree:
    via the entropy formula and via (-delta, nu, lambda) in the exponential
    cone.  The entropy side scales the tolerance by nu so that both routes
    test the same rescaled inequality.
    """
    nu = float(nu)
    lam = float(lam)
    if nu <= 0.0 or lam <= 0.0:
        raise ValueError("nu and lambda must be positive")
    by_entropy = relative_entropy((nu,), (lam,)) <= float(delta) + nu * tol
    by_cone = exp_cone_member((-float(delta), nu, lam), tol)
    return by_entropy, by_cone


def entropy_minimizer(circuit: Circuit, c: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """Minimize nu -> D(nu, e*c) over {nu >= 0 : sum_i alpha(i) nu_i = (1'nu) beta}.

    The minimum sits at exp(-D(mu, c)) * mu, where mu are the circuit's
    barycentric coordinates, with value -exp(-D(mu, c)), i.e. minus the
    circuit number of c.
    """
    rho = math.exp(log_circuit_number(c, circuit))
    return tuple(rho * float(mi) for mi in circuit.barycentric), -rho


def scalar_dual_member(r: float, s: float, t: float, tol: float = DEFAULT_TOL) -> bool:
    """Does some t* >= |t| satisfy t* log(t*/s) <= r?

    The map t* -> t* log(t*/s) is convex with unconstrained minimizer s/e,
    so the constrained minimum is closed form: -s/e when s/e >= |t|, else
    |t| log(|t|/s); for s = 0 only t* = 0 is finite.
    """
    r = float(r)
    s = float(s)
    t = float(t)
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    at = abs(t)
    if s == 0.0:
        best = 0.0 if at == 0.0 else math.inf
    elif s / math.e >= at:
        best = -s / math.e
    else:
        best = at * math.log(at / s)
    return best <= r + tol
