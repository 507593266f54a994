"""Batch command-line front end with JSON input and output.

Subcommands: ``circuits`` (catalog of a support or polynomial), ``check``
(nonneg-circuit / dual-member / sage-dual / quartic-dual), ``bound`` (lower
bound with optimality certification) and ``certify`` (cone membership of the
polynomial itself).

Exit codes carry the verdict: 0 for member/true/certified, 1 for
non-member/false, 2 for any input or usage error.  Output on stdout is
deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import __version__
from .bounds import Status, certify_optimality, sonc_feasibility
from .circuits import Circuit, SupportTooLargeError, circuit_number, enumerate_circuits
from .dual import psd_dual_quartic, quartic_dual_membership, sage_dual_membership, sonc_dual_membership
from .nonneg import CircuitPolynomial, is_nonneg_circuit
from .polynomials import DualVector, ParseError, SparsePolynomial, SupportSet, parse_polynomial

SCHEMA_VERSION = 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_polynomial(text: str) -> SparsePolynomial:
    stripped = text.strip()
    if stripped.startswith("{"):
        return SparsePolynomial.from_json_dict(json.loads(stripped))
    return parse_polynomial(stripped)


def _load_support(text: str) -> SupportSet:
    stripped = text.strip()
    if stripped.startswith("{"):
        obj = json.loads(stripped)
        if "points" in obj:
            return SupportSet.from_json_dict(obj)
        return SparsePolynomial.from_json_dict(obj).support
    return parse_polynomial(stripped).support


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        for line in _text_lines(obj):
            sys.stdout.write(line + "\n")


def _text_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _cmd_circuits(args) -> int:
    support = _load_support(_read(args.input))
    catalog = enumerate_circuits(support)
    _emit(catalog.to_json_dict(), args.format)
    return 0


def _cmd_check(args) -> int:
    text = _read(args.input)
    if args.kind == "nonneg-circuit":
        obj = json.loads(text)
        circuit = Circuit.make(obj["vertices"], obj["beta"])
        cp = CircuitPolynomial(circuit, tuple(float(x) for x in obj["c"]), float(obj["delta"]))
        ok, witness = is_nonneg_circuit(cp)
        _emit(
            {
                "nonneg": ok,
                "theta": circuit_number(cp.c, circuit),
                "witness": {"nu": list(witness.nu)} if witness else None,
            },
            args.format,
        )
        return 0 if ok else 1
    if args.kind == "dual-member":
        v = DualVector.from_json_dict(json.loads(text))
        report = sonc_dual_membership(v.support, v, tol=args.tol)
        _emit(report.to_json_dict(), args.format)
        return 0 if report.member else 1
    if args.kind == "sage-dual":
        v = DualVector.from_json_dict(json.loads(text))
        member = sage_dual_membership(v.support, v, tol=args.tol)
        _emit({"member": member}, args.format)
        return 0 if member else 1
    # quartic-dual
    obj = json.loads(text)
    vec = obj["v"] if isinstance(obj, dict) else obj
    test = psd_dual_quartic if args.psd else quartic_dual_membership
    member = test([float(x) for x in vec], tol=args.tol)
    _emit({"member": member, "test": "psd" if args.psd else "circuit"}, args.format)
    return 0 if member else 1


def _cmd_bound(args, seed: int) -> int:
    p = _load_polynomial(_read(args.input))
    result = certify_optimality(p, seed=seed, budget=args.budget)
    _emit(result.to_json_dict(), args.format)
    return 0 if result.status in (Status.CERTIFIED, Status.OPTIMALITY_CERTIFIED) else 1


def _cmd_certify(args) -> int:
    p = _load_polynomial(_read(args.input))
    catalog = enumerate_circuits(p.support)
    cert = sonc_feasibility(p, catalog, budget=args.budget)
    _emit(
        {"certified": cert is not None, "certificate": cert.to_json_dict() if cert else None},
        args.format,
    )
    return 0 if cert is not None else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sonckit",
        description="Circuit-polynomial nonnegativity certificates, dual-cone checks and lower bounds.",
    )
    parser.add_argument(
        "--version", action="version", version=f"sonckit {__version__} (schema {SCHEMA_VERSION})"
    )
    parser.add_argument("--tol", type=float, default=1e-9, help="membership tolerance")
    parser.add_argument("--seed", type=int, default=None, help="rng seed (overrides SONC_SEED)")
    parser.add_argument("--budget", type=int, default=5000, help="solver iteration cap")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("circuits", help="enumerate the circuit catalog of a support")
    sp.add_argument("input", help="support/polynomial file, '-' for stdin")

    sp = sub.add_parser("check", help="membership and nonnegativity checks")
    sp.add_argument("kind", choices=("nonneg-circuit", "dual-member", "sage-dual", "quartic-dual"))
    sp.add_argument("input")
    sp.add_argument("--psd", action="store_true", help="Hankel moment-matrix test instead of the circuit one")

    sp = sub.add_parser("bound", help="lower bound with optimality certification")
    sp.add_argument("input")

    sp = sub.add_parser("certify", help="cone membership of the polynomial itself")
    sp.add_argument("input")

    args = parser.parse_args(argv)
    if not (args.tol > 0 and math.isfinite(args.tol)):
        parser.error("--tol must be positive and finite")
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("SONC_SEED", "0"))
        if args.command == "circuits":
            return _cmd_circuits(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "bound":
            return _cmd_bound(args, seed)
        return _cmd_certify(args)
    except (ParseError, SupportTooLargeError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
