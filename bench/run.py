"""Closed-loop benchmark of ``bandlim``: three workloads, end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload spectrum|localize|partition --seed N \\
        --seconds S --trace 0|1 [--scale full|tiny]

One process generates the load and each query waits for the previous one.
BLAS is pinned to one thread; ``nu_s`` and ``essential_nu`` run with
``threads=2``, so at most two threads compute at once.  The run

1. draws the workload's inputs from ``--seed``;
2. builds its spaces and operators;
3. runs one untimed warm-up pass, which fills the per-object caches, runs
   every oracle on its results and repeats the threaded queries at
   ``threads=1``;
4. for ``--seconds`` seconds, repeats slots of: set-up again (timed, result
   discarded), then one pass over the query list, checking every report body
   against the warm-up body.

The end-to-end statistics are built from each query's fastest latencies, not
from whole passes: ``scenario_s`` is the sum over the query list of each
query's fastest latency in the run, ``query_p50_ms`` and ``query_p90_ms`` are
percentiles of the ``MIN_QUERIES`` samples made of each query's few fastest
latencies, and ``setup_s`` the median of the fastest quarter of the set-up
repetitions.  On a 2-core machine shared with other tenants the same code was
measured to run either at full speed or about 1.7 times slower, switching
every few seconds: a median over passes follows those stretches, and even the
fastest of a few one-second passes often holds a slow one, while a query of
10 to 150 ms runs at full speed at least once in a run.  Slow stretches also
outlast whole runs, so every reported time is scaled to a fixed host speed: a
calibration kernel of the benchmark's own (a dictionary loop and small SVDs,
about 1.5 ms) runs after every query of the untraced passes, outside the
query's latency, and times are multiplied by ``CALIBRATION_S`` over its
fastest time in the run.  The kernel never calls ``bandlim``, so a change to
the package moves the scaled times as it moves the measured ones.  A program
change that slows only some calls of a query would be hidden by the minimum;
the lines before the result also give the unscaled medians over all passes.

With ``--trace 0`` the passes run untraced and the last line of standard
output carries the end-to-end metrics.  With ``--trace 1`` each slot also runs
a traced pass; the last line carries the per-layer metrics of the fastest
traced passes, as shares of the traced pass time, and the tracing overhead:
``trace.scenario_s``, built from the traced passes as ``scenario_s`` is from
the untraced ones, minus ``scenario_s``.  Where tracing costs less than the
noise between the two minimums, the overhead can read slightly below 0.
Self times of spans that run at once on the two ``nu_s`` threads add up, so a
self share can exceed 100 %.  Lines before the last one record the
environment, every report body's hash and size, per-query latencies and the
failures.

A query fails when it raises where no exception is expected (or does not
raise where one is), when its oracle rejects the warm-up result, or when its
report body differs from the warm-up body or from the ``threads=1`` body.
Every pass counts toward ``attempted`` and ``failed``.  An oracle rejection of
a query that the workload marks as a known defect is counted in ``failed``
but leaves ``correct`` true; any other failure makes it false.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

MIN_QUERIES = 100
# Fastest time of the calibration kernel on a 2-core Intel Xeon host at full
# speed; every reported time is scaled to that host's speed.
CALIBRATION_S = 1.5e-3
# Set-up runs again before every pass, for at least this long, so that set-up
# is measured in the same slots as the passes.
SETUP_SECONDS_PER_PASS = 0.05

END_TO_END = [
    ("setup_s", "s"),
    ("scenario_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, kind, span or counter), each the median over the fastest
# traced passes.  "self" and "total" are a span's self and inclusive time as a
# share of the traced pass time; "calls" and "counter" count per pass; a
# "ratio" is 0 when nothing was attempted; "setup" spans are in seconds.
PER_LAYER = [
    ("trace.scenario_s", "s", "special", None),
    ("trace.overhead_s", "s", "special", None),
    ("trace.coverage_pct", "%", "special", None),
    ("space.build_space.s", "s", "setup", "space.build_space"),
    ("operators.from_triplets.s", "s", "setup", "operators.from_triplets"),
    ("partition.make_partition.self_pct", "%", "self", "partition.make_partition"),
    ("partition.variation.pct", "%", "total", "partition.variation"),
    ("partition.sparsify.pct", "%", "total", "partition.sparsify"),
    ("partition.average.pct", "%", "total", "partition.average"),
    ("partition.weighted_sum.pct", "%", "total", "partition.weighted_sum"),
    ("space.dist.calls", "count", "calls", "space.dist"),
    ("space.pairwise.calls", "count", "calls", "space.pairwise"),
    ("space.pairwise.pct", "%", "total", "space.pairwise"),
    ("space.ball.calls", "count", "calls", "space.ball"),
    ("space.ball.pct", "%", "total", "space.ball"),
    ("space.ball_template.self_pct", "%", "self", "space.ball_template"),
    ("space.match_ball_exact.self_pct", "%", "self", "space.match_ball_exact"),
    ("space.pointed_isometric.self_pct", "%", "self", "space.pointed_isometric"),
    ("space.match.found_ratio", "ratio", "ratio", ("space.match.found",
                                                   "space.match.attempts")),
    ("lowernorm.nu.calls", "count", "calls", "lowernorm.nu"),
    ("lowernorm.nu.self_pct", "%", "self", "lowernorm.nu"),
    ("lowernorm.nu.cols", "count", "counter", "lowernorm.nu.cols"),
    ("lowernorm.nu.exact_svd.calls", "count", "counter",
     "lowernorm.nu.exact_svd.calls"),
    ("lowernorm.nu.iterative_svd.calls", "count", "counter",
     "lowernorm.nu.iterative_svd.calls"),
    ("lowernorm.nu.optimizer.calls", "count", "counter",
     "lowernorm.nu.optimizer.calls"),
    ("lowernorm.nu_s.self_pct", "%", "self", "lowernorm.nu_s"),
    ("lowernorm.nu_s.restriction_sets", "count", "counter",
     "lowernorm.nu_s.restriction_sets"),
    ("lowernorm.essential_nu.pct", "%", "total", "lowernorm.essential_nu"),
    ("lowernorm.localization_check.pct", "%", "total",
     "lowernorm.localization_check"),
    ("lowernorm.witness_cascade.pct", "%", "total", "lowernorm.witness_cascade"),
    ("limits.limit_operator.calls", "count", "calls", "limits.limit_operator"),
    ("limits.limit_operator.self_pct", "%", "self", "limits.limit_operator"),
    ("limits.windows.count", "count", "counter", "limits.windows.count"),
    ("limits.extract.ok_ratio", "ratio", "ratio", ("limits.extract.ok",
                                                   "limits.extract.attempts")),
    ("limits.limit_space.self_pct", "%", "self", "limits.limit_space"),
    ("limits.shift_limit.self_pct", "%", "self", "limits.shift_limit"),
    ("limits.interior_nu.self_pct", "%", "self", "limits.interior_nu"),
    ("operators.schur_bound.calls", "count", "calls", "operators.schur_bound"),
    ("operators.schur_bound.pct", "%", "total", "operators.schur_bound"),
    ("operators.norm2.pct", "%", "total", "operators.norm2"),
    ("limits.to_json.pct", "%", "total", "limits.to_json"),
    ("lowernorm.to_json.pct", "%", "total", "lowernorm.to_json"),
    ("partition.to_json.pct", "%", "total", "partition.to_json"),
    ("serialize.report_dumps.pct", "%", "total", "serialize.report_dumps"),
    ("serialize.report.bytes", "bytes", "counter", "serialize.report.bytes"),
]

ROOT_SPAN = "bench.pass"
ORACLE_REJECTED = "oracle rejected the result"


def _import_bandlim():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC_DIR / "bandlim" / "__init__.py").is_file():
        raise ImportError(f"no bandlim sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import bandlim
    from bandlim import limits, lowernorm, operators, partition, serialize, space
    if Path(bandlim.__file__).resolve().parent != SRC_DIR / "bandlim":
        raise ImportError(f"bandlim imported from {bandlim.__file__}")
    return {"space": space, "operators": operators, "limits": limits,
            "lowernorm": lowernorm, "partition": partition,
            "serialize": serialize}


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import ctypes
    import glob
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(np, seed):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


class Runner:
    """Runs passes over a query list and does the failure accounting."""

    def __init__(self, bl, queries):
        self.bl = bl
        self.queries = queries
        self.ref_body = {}
        self.why = {}                # name -> why the warm-up result is bad
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}

    def _one(self, q, state):
        t0 = time.perf_counter()
        try:
            out = q.call(state)
            raised = None
        except Exception as exc:             # a failed query must not end the run
            out, raised = exc, exc
        if raised is not None and (q.expect is None or not isinstance(raised, q.expect)):
            body, err = None, f"raised {type(raised).__name__}: {raised}"
        elif raised is None and q.expect is not None:
            body, err = None, f"did not raise {q.expect.__name__}"
        else:
            body, err = self.bl.serialize.report_dumps(q.report(out)), None
        t1 = time.perf_counter()
        state[q.name] = out
        return t1 - t0, body, err

    def warm_up(self):
        """Untimed first pass: reference bodies, oracles, threads=1 bodies."""
        state = {}
        for q in self.queries:
            _, body, err = self._one(q, state)
            self.ref_body[q.name] = body
            self.why[q.name] = err
        for q in self.queries:
            if self.why[q.name] is None and q.check is not None:
                try:
                    if not q.check(state):
                        self.why[q.name] = ORACLE_REJECTED
                except Exception as exc:
                    self.why[q.name] = f"oracle raised {type(exc).__name__}: {exc}"
            if self.why[q.name] is None and q.serial is not None:
                serial = self.bl.serialize.report_dumps(q.report(q.serial()))
                if serial != self.ref_body[q.name]:
                    self.why[q.name] = "threads=1 body differs"

    def run_pass(self, calibration=None):
        """One pass; returns its wall time and the latency of each query.

        With a ``calibration``, its kernel runs after every query, outside
        the query's latency and the pass's wall time.
        """
        state, latencies, calibrating = {}, [], 0.0
        t0 = time.perf_counter()
        for q in self.queries:
            dt, body, err = self._one(q, state)
            latencies.append(dt)
            if calibration is not None:
                calibrating += calibration.run()
            self.attempted += 1
            if err is None and body != self.ref_body[q.name]:
                err = "body differs from the warm-up pass"
            if err is None:
                err = self.why[q.name]
            if err is not None:
                self.failed += 1
                self.unexpected += q.known_defect is None or err != ORACLE_REJECTED
                self.failures.setdefault(q.name, err)
        return time.perf_counter() - t0 - calibrating, latencies

    def reports(self):
        return {name: {"sha256": hashlib.sha256(body.encode()).hexdigest()[:16],
                       "bytes": len(body.encode())}
                for name, body in self.ref_body.items() if body is not None}


class Calibration:
    """A fixed kernel of the benchmark's own that measures the host's speed.

    The kernel mixes what ``bandlim`` spends its time on: a dictionary loop
    over tuple keys and small dense SVDs.  ``fastest`` is its fastest time in
    the run; ``scale`` turns a time measured in the run into seconds on a
    host where the kernel takes ``CALIBRATION_S``.
    """

    def __init__(self, np):
        self.matrix = np.random.default_rng(0).random((40, 40))
        self.svd = np.linalg.svd
        self.fastest = math.inf

    def run(self):
        t0 = time.perf_counter()
        acc = {}
        for i in range(6000):
            key = (i % 97, i % 31)
            acc[key] = acc.get(key, 0) + i
        for _ in range(4):
            self.svd(self.matrix, compute_uv=False)
        dt = time.perf_counter() - t0
        self.fastest = min(self.fastest, dt)
        return dt

    @property
    def scale(self):
        return CALIBRATION_S / self.fastest


def _layer_values(tracer, wall):
    """Per-layer metrics of one traced pass."""
    out = {}
    for name, _, kind, key in PER_LAYER:
        if kind == "self":
            out[name] = 100.0 * tracer.self_time.get(key, 0.0) / wall
        elif kind == "total":
            out[name] = 100.0 * tracer.total.get(key, 0.0) / wall
        elif kind == "calls":
            out[name] = tracer.calls.get(key, 0)
        elif kind == "counter":
            out[name] = tracer.counts.get(key, 0)
        elif kind == "ratio":
            num, den = (tracer.counts.get(k, 0) for k in key)
            out[name] = num / den if den else 0.0
    root = tracer.total[ROOT_SPAN]
    out["trace.coverage_pct"] = 100.0 * (root - tracer.self_time[ROOT_SPAN]) / root
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    from workloads import SIZES, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        modules = _import_bandlim()
    except ImportError as exc:
        print(f"bench: cannot import bandlim from this checkout: {exc}",
              file=sys.stderr)
        return 2
    import numpy as np
    import spans as tracing
    bl = SimpleNamespace(**modules)
    inputs, setup, make_queries = WORKLOADS[args.workload]
    inp = inputs(np.random.default_rng(args.seed), SIZES[args.scale][args.workload])

    tracer = tracing.Tracer()

    def timed_setup(slot):
        tracer.reset()
        with tracing.installed(tracer, modules) if args.trace else nullcontext():
            t0 = time.perf_counter()
            state = setup(bl, inp)
            slot["setup"].append(time.perf_counter() - t0)
        if args.trace:
            slot["setup_layers"].append(dict(tracer.total))
        return state

    first = {"setup": [], "setup_layers": []}
    runner = Runner(bl, make_queries(bl, timed_setup(first), inp))
    runner.warm_up()

    calibration = Calibration(np)
    keep = math.ceil(MIN_QUERIES / len(runner.queries))
    slots = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(slots) < keep:
        slot = {"setup": [], "setup_layers": []}
        while sum(slot["setup"]) < SETUP_SECONDS_PER_PASS:
            timed_setup(slot)
        gc.collect()
        slot["wall"], slot["latencies"] = runner.run_pass(calibration)
        if args.trace:
            gc.collect()
            tracer.reset()
            with tracing.installed(tracer, modules):
                root = tracer.open(ROOT_SPAN)
                _, slot["traced_latencies"] = runner.run_pass()
                tracer.close(root)
            slot["traced"] = tracer.total[ROOT_SPAN]
            slot["layers"] = _layer_values(tracer, slot["traced"])
        slots.append(slot)

    by_query = {q.name: [sl["latencies"][i] for sl in slots]
                for i, q in enumerate(runner.queries)}
    scenario_s = sum(min(lat) for lat in by_query.values())
    every = [v for sl in slots for v in sl["latencies"]]
    print("env " + json.dumps(_environment(np, args.seed), sort_keys=True))
    print("reports " + json.dumps(runner.reports(), sort_keys=True))
    print("query_median_ms " + json.dumps(
        {k: round(1e3 * statistics.median(v), 3) for k, v in by_query.items()},
        sort_keys=True))
    print(f"all passes: {len(slots)}, scenario median "
          f"{statistics.median(sl['wall'] for sl in slots):.4f} s, query p50 "
          f"{1e3 * statistics.median(every):.3f} ms, p90 "
          f"{1e3 * statistics.quantiles(every, n=10)[8]:.3f} ms; "
          f"statistics use each query's fastest {keep}; calibration kernel "
          f"fastest {1e3 * calibration.fastest:.4f} ms, times scaled by "
          f"{calibration.scale:.4f}")
    print(f"fail_ratio={runner.failed / runner.attempted:.4f} "
          f"({runner.failed}/{runner.attempted})")
    for name, why in sorted(runner.failures.items()):
        q = next(q for q in runner.queries if q.name == name)
        tag = f"known defect ({q.known_defect})" if q.known_defect else "UNEXPECTED"
        print(f"failed {name}: {why} [{tag}]")

    scale = calibration.scale
    if args.trace:
        fastest_traced = sorted(slots, key=lambda sl: sl["traced"])[:keep]
        traced_s = sum(min(sl["traced_latencies"][i] for sl in slots)
                       for i in range(len(runner.queries)))
        metrics = {}
        for name, unit, kind, key in PER_LAYER:
            if kind == "setup":
                value = scale * statistics.median(layers.get(key, 0.0)
                                                  for sl in fastest_traced
                                                  for layers in sl["setup_layers"])
            elif name == "trace.scenario_s":
                value = scale * traced_s
            elif name == "trace.overhead_s":
                value = scale * (traced_s - scenario_s)
            else:
                value = statistics.median(sl["layers"][name] for sl in fastest_traced)
            metrics[name] = _metric(value, unit)
    else:
        latencies = [v for lat in by_query.values() for v in sorted(lat)[:keep]]
        setups = sorted(v for sl in slots for v in sl["setup"])
        fastest_setups = setups[:max(1, len(setups) // 4)]
        values = {
            "setup_s": scale * statistics.median(fastest_setups),
            "scenario_s": scale * scenario_s,
            "query_p50_ms": 1e3 * scale * statistics.median(latencies),
            "query_p90_ms": 1e3 * scale * statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.unexpected == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
