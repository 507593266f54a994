"""Nonnegativity of circuit polynomials with explicit entropy witnesses.

A circuit polynomial  sum_i c_i x^alpha(i) + delta x^beta  with positive c_i
is nonnegative on the positive orthant iff delta >= -Theta, where Theta is
the circuit number of c.  Over all of R^n the parity of beta decides the
shape of the condition: |delta| <= Theta when beta has an odd entry, the
one-sided bound otherwise.  The witness vector nu comes from the closed-form
entropy minimizer, never from a numeric solver.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from .circuits import Circuit, log_circuit_number
from .entropy import entropy_minimizer, relative_entropy
from .polynomials import SparsePolynomial, read_number

#: Absolute decision tolerance, scaled by max(1, Theta).
DECISION_TOL = 1e-9

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class CircuitPolynomial:
    """sum_i c_i x^alpha(i) + delta x^beta over a fixed circuit."""

    circuit: Circuit
    c: tuple[float, ...]
    delta: float

    def __post_init__(self) -> None:
        c = tuple(float(x) for x in self.c)
        if len(c) != self.circuit.k:
            raise ValueError(f"expected {self.circuit.k} coefficients, got {len(c)}")
        if any(x <= 0.0 or not math.isfinite(x) for x in c):
            raise ValueError("circuit coefficients must be positive and finite")
        delta = float(self.delta)
        if not math.isfinite(delta):
            raise ValueError("circuit delta must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "delta", delta)

    def to_json_dict(self) -> dict:
        verts, beta = [list(v) for v in self.circuit.vertices], list(self.circuit.inner)
        return {"vertices": verts, "beta": beta, "c": list(self.c), "delta": self.delta}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "CircuitPolynomial":
        circuit = Circuit(obj["vertices"], obj["beta"])
        c = tuple(read_number(x, "circuit coefficients") for x in obj["c"])
        return cls(circuit, c, read_number(obj["delta"], "delta"))


@dataclass(frozen=True)
class EntropyWitness:
    """A balanced vector nu with D(nu, e*c) below the parity-correct bound."""

    nu: tuple[float, ...]


def _within_theta(mag: float, log_theta: float) -> bool:
    """mag <= Theta + DECISION_TOL * max(1, Theta), compared in the log
    domain so that Theta = exp(log_theta) is never formed when it is large."""
    if log_theta <= 0.0:
        return mag <= math.exp(log_theta) + DECISION_TOL
    return mag <= 1.0 or math.log(mag) <= log_theta + math.log1p(DECISION_TOL)


def _decide(p: CircuitPolynomial, mag: float) -> tuple[bool, EntropyWitness | None]:
    """mag <= Theta, mag the signed magnitude of delta that the orthant or
    the parity condition bounds; when it holds, the witness is the entropy
    minimizer Theta * mu, or None when Theta exceeds the float range."""
    log_theta = log_circuit_number(p.c, p.circuit)
    if not _within_theta(mag, log_theta):
        return False, None
    return True, EntropyWitness(entropy_minimizer(p.circuit, p.c)[0]) if log_theta < _LOG_FLOAT_MAX else None


def is_nonneg_on_positive_orthant(p: CircuitPolynomial) -> tuple[bool, EntropyWitness | None]:
    """Decide nonnegativity on the positive orthant: delta >= -Theta."""
    return _decide(p, -p.delta)


def is_nonneg_circuit(p: CircuitPolynomial) -> tuple[bool, EntropyWitness | None]:
    """Decide nonnegativity on all of R^n via the parity split on beta.

    A nonnegative circuit polynomial comes with its witness, unless the
    circuit number overflows the float range (witness None).
    """
    return _decide(p, -p.delta if p.circuit.beta_even else abs(p.delta))


def verify_entropy_witness(p: CircuitPolynomial, w: EntropyWitness, tol: float = 1e-9) -> bool:
    """Check the balance equality sum_i alpha(i) nu_i = (1'nu) beta to
    relative tolerance, then D(nu, e*c) against the parity-correct bound
    (delta for even beta, -|delta| otherwise)."""
    nu = tuple(float(x) for x in w.nu)
    if len(nu) != p.circuit.k or any(x < 0.0 for x in nu):
        return False
    total = sum(nu)
    for t in range(p.circuit.n):
        lhs = sum(v[t] * x for v, x in zip(p.circuit.vertices, nu))
        rhs = total * p.circuit.inner[t]
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
            return False
    bound = p.delta if p.circuit.beta_even else -abs(p.delta)
    d = relative_entropy(nu, tuple(math.e * ci for ci in p.c))
    return d <= bound + tol * max(1.0, abs(bound))


def as_sparse_polynomial(p: CircuitPolynomial) -> SparsePolynomial:
    """Expand to an explicit sparse polynomial (like terms merged)."""
    terms: dict = {}
    for v, ci in zip(p.circuit.vertices, p.c):
        terms[v] = terms.get(v, 0.0) + ci
    terms[p.circuit.inner] = terms.get(p.circuit.inner, 0.0) + p.delta
    return SparsePolynomial.from_terms(terms, n=p.circuit.n)
