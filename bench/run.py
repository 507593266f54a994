"""sonckit benchmark: four seeded closed-loop workloads against the public API.

    python3 bench/run.py --workload bound-mixed --seed 1 --seconds 20 --trace 0

One client in one process runs operations back to back for --seconds,
in whole passes over a fixed cycle of inputs.  Every output is checked
against references computed here (inputs.py).  Times are the process's
CPU time: sonckit runs single-threaded (BLAS is pinned to one thread), so
on an unshared core this equals wall time, and on a shared host it leaves
out the time the host hands the core to others.  Every reported time is
then scaled to one reference host speed by a calibration kernel timed
between operations (clock.py), because the speed of the same work on a
shared host drifts by up to 1.8x between minutes; the unscaled rate and
median, and the kernel's own time, are printed beside the metrics.
Both timed metrics rest on each input's median scaled time over the
run's passes: latency_p50_ms is the median of these over the cycle's
inputs, and ops_per_s is the rate at which they complete the cycle, times
the share of operations that completed.  A median per input, rather than
over all operations, stays put when inputs differ in cost by 50x and a
run holds only three passes (bound-mixed, whose one affine input takes
4 s of a 6-s pass).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run is split into an untraced and a traced half, and the
last line carries per-layer metrics from the traced half plus the tracing
overhead, with the spans written to bench/out/.

Workloads:
  bound-mixed   `sonckit bound` on criterion 9's first ten random
                polynomials, mostly unbounded: BFGS multistart and the
                doubling search dominate (the bounds layer).
  bound-sonc    `sonckit bound` on bounded polynomials over an even simplex:
                dual membership, feasibility and the primal-dual gap dominate.
  dual-batch    dual SONC (and some dual SAGE) queries on three fixed supports
                whose catalogs are built in set-up: the dual layer alone.
  catalog-cold  `sonckit check dual-member` on fresh dense supports with the
                catalog cache cleared before each query: the circuits layer.
"""

from __future__ import annotations

import os

# One BLAS thread: numbers should measure sonckit, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import inputs
from clock import Clock
from tracer import COUNT, SPAN, TIMED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-interpreter imports, and warm-ups, timed per run; setup_s adds
#: the two medians.
IMPORT_REPEATS = 5
WARM_REPEATS = 3
#: Calibration samples the importing interpreter takes after its import.
IMPORT_CAL_SAMPLES = 7
#: `sonckit bound` and `sonckit check` defaults: SONC_SEED unset, --tol.
CLI_SEED = 0
CLI_TOL = 1e-9
#: Moment vectors sit on the dual-cone boundary; acceptance criterion 8
#: queries them with this tolerance.
MOMENT_TOL = 1e-7


# The interpreter calibrates itself only after the import: clock.py pulls
# in scipy.optimize, most of what importing sonckit costs.
IMPORT_CODE = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
t = time.process_time()
import sonckit
t = time.process_time() - t
assert sonckit.__file__.startswith({str(SRC)!r}), sonckit.__file__
sys.path.insert(0, {str(BENCH)!r})
from clock import CAL_REFERENCE_S, Clock
clock = Clock()
for _ in range({IMPORT_CAL_SAMPLES}):
    clock.sample()
print(t, t * CAL_REFERENCE_S / clock.speed())
"""


def timed_scaled(clock: Clock, fn) -> tuple[float, float]:
    """(CPU seconds, the same scaled to the reference speed) of fn(), which
    returns its own CPU seconds; calibration samples bracket the call."""
    clock.sample()
    start = perf_counter()
    cpu = fn()
    end = perf_counter()
    clock.sample()
    return cpu, cpu * clock.scale(start, end)


def import_once() -> tuple[float, float]:
    """(CPU seconds, the same scaled to the reference speed) a fresh
    interpreter takes to import sonckit; it calibrates on its own core."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    cpu, scaled = proc.stdout.split()[-2:]
    return float(cpu), float(scaled)


# ----------------------------------------------------------------- workloads

class Workload:
    """Inputs from a seed, one timed operation, and its untimed check."""

    tail_pct = 90.0  # fixed per workload so commits compare the same quantile
    cycle = 1  # distinct inputs: a phase runs whole passes over them

    def __init__(self, sk, tracer: Tracer, seed: int) -> None:
        self.sk = sk
        # The lru_cache itself: a traced rebinding would hide its methods.
        self.cache = sk.circuits.enumerate_circuits
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)

    def warm(self) -> None:
        """Set-up work counted in setup_s."""

    def before_op(self) -> None:
        """Untimed preparation of the next operation."""

    def serialize(self, obj) -> str:
        return self.tracer.call("cli.serialize", SPAN, None, json.dumps, obj.to_json_dict(), indent=2)


class Bound(Workload):
    """The CLI's bound path in-process: parse, certify, emit JSON.  Each
    operation starts with an empty catalog cache, as a `sonckit bound`
    process does, so every repeat of an input does the same work."""

    def before_op(self) -> None:
        self.cache.cache_clear()

    def op(self, poly: inputs.Poly):
        p = self.sk.polynomials.parse_polynomial(poly.text, n=poly.n)
        result = self.sk.bounds.certify_optimality(p, seed=CLI_SEED)
        return p, self.serialize(result)

    def check(self, poly: inputs.Poly, out) -> str | None:
        p, text = out
        if p.n != poly.n or dict(p.coefficients) != poly.terms:
            return "parsed polynomial differs from the generated one"
        r = json.loads(text)
        closed = (
            r["p_sonc"] is not None
            and r["p_dual"] is not None
            and r["p_dual"] - r["p_sonc"] <= 1e-6 * poly.scale
        )
        self.results[id(poly)] = (r["status"], closed)
        return inputs.check_bound(poly, r, self.probes[id(poly)])

    def with_probes(self, polys: list) -> list:
        self.probes = {id(p): inputs.sample_points(self.rng, p.n) for p in polys}
        self.results = {}
        return polys

    def quality(self) -> dict:
        """Bound quality over the distinct instances completed."""
        rows = list(self.results.values())
        count = max(len(rows), 1)
        fracs = {
            "certified_frac": sum(s in ("certified", "optimality_certified") for s, _ in rows),
            "optimal_frac": sum(s == "optimality_certified" for s, _ in rows),
            "gap_closed_frac": sum(closed for _, closed in rows),
        }
        return {"instances": len(rows), **{k: {"value": v / count, "unit": "frac"} for k, v in fracs.items()}}


class BoundMixed(Bound):
    # Criterion 9's first ten polynomials, run in whole passes.  The
    # family's cost is heavy tailed (affine inputs take 5 s, the median
    # 0.2 s): seed-varying draws, or a time limit cutting a pass short
    # next to a slow input, made runs differ by half.  The seed drives
    # the soundness probes.  The one affine input per pass (a tenth of the
    # samples, ~5 s each) is too few samples for a steady percentile; p80
    # lies inside the cluster of the next-slowest inputs.
    cycle = 10
    tail_pct = 80.0

    def make(self, seed: int) -> list:
        return self.with_probes(inputs.mixed_polys(self.cycle))


class BoundSonc(Bound):
    # One fixed draw of 18, run in whole passes, for the same reason as
    # bound-mixed: per-instance cost varies too much for seed-varying
    # draws to give steady runs.
    tail_pct = 80.0
    cycle = 2 * len(inputs.SONC_SHAPES)

    def make(self, seed: int) -> list:
        return self.with_probes(inputs.sonc_polys(inputs.SONC_SEED, self.cycle))


class DualBatch(Workload):
    cycle = 2 * inputs.DUAL_PER_CLASS * len(inputs.DUAL_BATCH_SUPPORTS)

    def make(self, seed: int) -> list:
        items = inputs.dual_batch(seed)
        for item in items:
            support = self.sk.SupportSet.of(item["points"])
            item["vector"] = self.sk.DualVector(support, dict(zip(item["points"], map(float, item["values"]))))
        self.supports = [self.sk.SupportSet.of(p) for p in inputs.DUAL_BATCH_SUPPORTS.values()]
        return items

    def warm(self) -> None:
        for support in self.supports:
            self.sk.circuits.enumerate_circuits(support)

    def op(self, item):
        v = item["vector"]
        report = self.sk.dual.sonc_dual_membership(v.support, v, tol=CLI_TOL)
        sage = None
        if item["sage"] is not None:
            sage = self.sk.dual.sage_dual_membership(v.support, v, tol=CLI_TOL)
        return report, sage

    def check(self, item, out) -> str | None:
        report, sage = out
        if report.member != item["member"]:
            return f"{item['support']}: member {report.member}, closed form says {item['member']}"
        if report.member and len(report.witnesses) + item["even"] != item["circuits"]:
            return f"{item['support']}: {len(report.witnesses)} witnesses for {item['circuits']} circuits"
        if not report.member and report.violated_circuit is None:
            return f"{item['support']}: non-member without a violated circuit"
        if sage != item["sage"]:
            return f"{item['support']}: dual SAGE {sage}, reference says {item['sage']}"
        return None


class CatalogCold(Workload):
    cycle = 2 * len(inputs.CATALOG_SUPPORTS)

    def make(self, seed: int) -> list:
        return inputs.catalog_cold(seed)

    def before_op(self) -> None:
        self.cache.cache_clear()

    def op(self, item):
        v = self.sk.DualVector.from_json_dict(json.loads(item["text"]))
        report = self.sk.dual.sonc_dual_membership(v.support, v, tol=MOMENT_TOL)
        return self.serialize(report)

    def check(self, item, out) -> str | None:
        report = json.loads(out)
        if not report["member"]:
            return f"{item['support']}: moment vector judged a non-member"
        if len(report["witnesses"]) + item["even"] != item["circuits"]:
            return f"{item['support']}: {len(report['witnesses'])} witnesses, reference has {item['circuits']} circuits"
        return None


WORKLOADS = {
    "bound-mixed": BoundMixed,
    "bound-sonc": BoundSonc,
    "dual-batch": DualBatch,
    "catalog-cold": CatalogCold,
}


# ------------------------------------------------------------------- tracing

def install_tracer(sk, cache, tracer: Tracer) -> list[str]:
    """Wrap every layer boundary; returns the targets that do not exist."""
    b, d, c, p, n, cli = sk.bounds, sk.dual, sk.circuits, sk.polynomials, sk.nonneg, sk.cli
    miss = tracer.stat("circuits.enumerate_miss")

    def enumerate_counted(*args, **kwargs):
        before = cache.cache_info().misses
        catalog = cache(*args, **kwargs)
        if cache.cache_info().misses != before:
            miss.calls += 1
            miss.tally += len(catalog.circuits)
        return catalog

    def found(result) -> int:
        return result is not None

    def rejected(result) -> int:
        return result is False

    targets = [
        (p, "parse_polynomial", "polynomials.parse", SPAN, None),
        (p.SparsePolynomial, "evaluate", "polynomials.evaluate", COUNT, None),
        (p, "moment_vector", "polynomials.moment_vector", COUNT, None),
        (b, "moment_vector", "polynomials.moment_vector", COUNT, None),
        *[(m, "enumerate_circuits", "circuits.enumerate", SPAN, None) for m in (c, b, d, cli)],
        (b, "certify_optimality", "bounds.certify", SPAN, None),
        (b, "sonc_lower_bound", "bounds.lower_bound", SPAN, None),
        (b, "dual_program_solve", "bounds.dual_solve", SPAN, None),
        (b, "sonc_feasibility", "bounds.feasibility", SPAN, found),
        (cli, "sonc_feasibility", "bounds.feasibility", SPAN, found),
        (b, "verify_certificate", "bounds.verify", SPAN, rejected),
        (b, "recover_optimizer", "bounds.recover", SPAN, found),
        *[(m, "is_nonneg_circuit", "nonneg.is_nonneg_circuit", TIMED, None) for m in (b, n, cli)],
        *[(m, "sonc_dual_membership", "dual.membership", SPAN, None) for m in (d, b, cli)],
        (d, "circuit_dual_membership", "dual.circuit", TIMED, None),
        (d, "lp_min_infeasibility", "dual.lp", TIMED, None),
        *[(m, "sage_dual_membership", "dual.sage", SPAN, None) for m in (d, cli)],
    ]
    missing = []
    for owner, attr, name, mode, tally in targets:
        impl = enumerate_counted if attr == "enumerate_circuits" else None
        if not tracer.patch(owner, attr, name, mode, tally, impl):
            missing.append(f"{owner.__name__}.{attr}")
    return missing


#: (metric, stat, field, unit); field is calls, total, self_time, tally or
#: tally_frac (tally per call).
LAYER_METRICS = [
    ("bounds.lower_bound_s", "bounds.lower_bound", "total", "s"),
    ("bounds.lower_bound_self_s", "bounds.lower_bound", "self_time", "s"),
    ("bounds.dual_solve_s", "bounds.dual_solve", "total", "s"),
    ("bounds.dual_solve_self_s", "bounds.dual_solve", "self_time", "s"),
    ("bounds.feasibility_calls", "bounds.feasibility", "calls", "count"),
    ("bounds.feasibility_s", "bounds.feasibility", "total", "s"),
    ("bounds.feasibility_hit_frac", "bounds.feasibility", "tally_frac", "frac"),
    ("bounds.verify_calls", "bounds.verify", "calls", "count"),
    ("bounds.verify_s", "bounds.verify", "total", "s"),
    ("bounds.verify_reject", "bounds.verify", "tally", "count"),
    ("bounds.recover_calls", "bounds.recover", "calls", "count"),
    ("bounds.recover_hit_frac", "bounds.recover", "tally_frac", "frac"),
    ("dual.membership_calls", "dual.membership", "calls", "count"),
    ("dual.membership_s", "dual.membership", "total", "s"),
    ("dual.membership_self_s", "dual.membership", "self_time", "s"),
    ("dual.circuit_calls", "dual.circuit", "calls", "count"),
    ("dual.circuit_s", "dual.circuit", "total", "s"),
    ("dual.lp_calls", "dual.lp", "calls", "count"),
    ("dual.lp_s", "dual.lp", "total", "s"),
    ("dual.sage_calls", "dual.sage", "calls", "count"),
    ("dual.sage_s", "dual.sage", "total", "s"),
    ("circuits.enumerate_calls", "circuits.enumerate", "calls", "count"),
    ("circuits.enumerate_misses", "circuits.enumerate_miss", "calls", "count"),
    ("circuits.enumerate_s", "circuits.enumerate", "total", "s"),
    ("circuits.circuits_built", "circuits.enumerate_miss", "tally", "count"),
    ("nonneg.is_nonneg_circuit_calls", "nonneg.is_nonneg_circuit", "calls", "count"),
    ("nonneg.is_nonneg_circuit_s", "nonneg.is_nonneg_circuit", "total", "s"),
    ("polynomials.evaluate_calls", "polynomials.evaluate", "calls", "count"),
    ("polynomials.parse_s", "polynomials.parse", "total", "s"),
    ("polynomials.moment_vector_calls", "polynomials.moment_vector", "calls", "count"),
    ("cli.op_calls", "cli.op", "calls", "count"),
    ("cli.op_s", "cli.op", "total", "s"),
    ("cli.serialize_s", "cli.serialize", "total", "s"),
]

#: Self time summed by module layer: entropy rides with nonneg and
#: minimax_lp with dual, since they are only reached through them.
LAYERS = ("bounds", "dual", "circuits", "nonneg", "polynomials", "cli")


def layer_metrics(tracer: Tracer) -> dict:
    out = {}
    for metric, name, field, unit in LAYER_METRICS:
        stat = tracer.stats.get(name)
        if stat is None:
            value = 0
        elif field == "tally_frac":
            value = stat.tally / stat.calls if stat.calls else 0.0
        else:
            value = getattr(stat, field)
        out[metric] = {"value": value, "unit": unit}
    for layer in LAYERS:
        self_time = sum(s.self_time for name, s in tracer.stats.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = {"value": self_time, "unit": "s"}
    return out


def layer_table(metrics: dict) -> list[str]:
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS) or 1.0
    lines = ["# layer         self_s   share"]
    for layer in sorted(LAYERS, key=lambda k: -metrics[f"{k}.self_s"]["value"]):
        value = metrics[f"{layer}.self_s"]["value"]
        lines.append(f"# {layer:<12} {value:8.3f}  {value / total:6.1%}")
    return lines


# ------------------------------------------------------------------ the loop

def run_phase(wl: Workload, items: list, seconds: float, clock: Clock) -> dict:
    """Closed loop over items (cycling) until `seconds` of wall time have
    passed and a whole workload cycle is done.  Each output is checked and
    dropped right away, untimed, so memory holds no backlog of results.
    Latencies are CPU seconds, raw and scaled to the reference speed."""
    latencies, spans, ok, failures = [], [], [], []
    start = perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        clock.tick()
        wl.before_op()
        wl.tracer.op_id = i
        began = perf_counter()
        t0 = process_time()
        try:
            out = wl.tracer.call("cli.op", SPAN, None, wl.op, item)
        except Exception:  # the loop must go on; the failure is counted and shown
            out, why = None, traceback.format_exc(limit=3)
        latencies.append(process_time() - t0)
        spans.append((began, perf_counter()))
        if out is not None:
            why = wl.check(item, out)
        ok.append(out is not None)
        if why is not None:
            failures.append(why)
        i += 1
        if i % wl.cycle == 0 and perf_counter() - start >= seconds:
            break
    clock.sample()
    scaled = [lat * clock.scale(*span) for lat, span in zip(latencies, spans)]
    return {"latencies": latencies, "scaled": scaled, "ok": ok, "failures": failures}


def input_medians(latencies: list[float], cycle: int) -> list[float]:
    """Each input's median time: input k runs at operations k, k + cycle, ..."""
    return [statistics.median(latencies[k::cycle]) for k in range(cycle)]


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct))


def env_record() -> dict:
    blas = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas = getattr(handle, symbol)()
                break
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "src_lines": lines,
    }


def load_sonckit():
    """Import sonckit from this checkout's src/, never from elsewhere."""
    if not (SRC / "sonckit" / "__init__.py").is_file():
        raise SystemExit(f"error: no sonckit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sonckit
    import sonckit.cli

    if not Path(sonckit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: sonckit imported from {sonckit.__file__}, not {SRC}")
    return sonckit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sk = load_sonckit()
    tracer = Tracer()
    wl = WORKLOADS[args.workload](sk, tracer, args.seed)
    items = wl.make(args.seed)

    clock = Clock()

    def warm_once() -> float:
        wl.cache.cache_clear()
        t0 = process_time()
        wl.warm()
        return process_time() - t0

    warm_times = [timed_scaled(clock, warm_once) for _ in range(WARM_REPEATS if not args.trace else 1)]

    print(json.dumps({"env": env_record()}))
    info = {}
    if args.trace:
        plain = run_phase(wl, items, args.seconds / 2, clock)
        missing = install_tracer(sk, wl.cache, tracer)
        tracer.install()
        try:
            traced = run_phase(wl, items, args.seconds / 2, clock)
        finally:
            tracer.uninstall()
        phases = (plain, traced)
        metrics = layer_metrics(tracer)
        # Overhead over the common prefix of operations, so both halves
        # time the same inputs.
        k = min(len(plain["scaled"]), len(traced["scaled"]))
        overhead = sum(traced["scaled"][:k]) / sum(plain["scaled"][:k]) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        info.update(spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
                    overhead_ops=k, missing_targets=missing)
    else:
        imports = [import_once() for _ in range(IMPORT_REPEATS)]
        phase = run_phase(wl, items, args.seconds, clock)
        phases = (phase,)
        lat, raw = phase["scaled"], phase["latencies"]
        done = sum(phase["ok"]) / len(lat)
        per_input, raw_per_input = input_medians(lat, wl.cycle), input_medians(raw, wl.cycle)
        tail = percentile(lat, wl.tail_pct)
        import_s = statistics.median(s for _, s in imports)
        warm_s = statistics.median(s for _, s in warm_times)
        metrics = {
            "setup_s": {"value": import_s + warm_s, "unit": "s"},
            "ops_per_s": {"value": done * wl.cycle / sum(per_input), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(per_input), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        # Reported, not gated: on a shared 2-core host its spread across
        # seeds reached 0.28-0.32 in two of eight ten-run sets.
        info.update(latency_tail_ms={"value": 1e3 * tail, "unit": "ms"}, tail_percentile=wl.tail_pct,
                    tail_samples_beyond=sum(x > tail for x in lat), samples=len(lat), passes=len(lat) // wl.cycle,
                    import_s=import_s, warm_s=warm_s,
                    unscaled={"ops_per_s": done * wl.cycle / sum(raw_per_input),
                              "latency_p50_ms": 1e3 * statistics.median(raw_per_input),
                              "import_s": statistics.median(c for c, _ in imports),
                              "warm_s": statistics.median(c for c, _ in warm_times)},
                    calibration_kernel_ms=1e3 * clock.speed())
        if isinstance(wl, Bound):
            info.update(wl.quality())

    attempted = sum(len(phase["ok"]) for phase in phases)
    failures = [why for phase in phases for why in phase["failures"]]
    failed = len(failures)
    info["fail_frac"] = {"value": failed / attempted, "unit": "frac"}
    print(json.dumps({"info": info}))
    if args.trace:
        print("\n".join(layer_table(metrics)))
    for why in failures[:5]:
        print("# failure: " + why.replace("\n", "\n# "))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
