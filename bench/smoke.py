"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 bench/smoke.py

Runs every workload once with tracing off and once with tracing on, and
checks that the last line of output carries exactly the metrics that
``BENCHMARK.json`` declares, each with its unit, that ``trace.overhead_s`` is
reported and that no unexpected query failed.  Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.  Exits non-zero on the first
failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(cond, message):
    if not cond:
        print(f"smoke: FAIL {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            check(out.returncode == 0, f"{where} exited {out.returncode}: {out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where} result keys {sorted(result)}")
            check(result["correct"] is True, f"{where} reported incorrect output")
            check(result["attempted"] >= 1, f"{where} attempted nothing")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            check(got == want, f"{where} metrics {got} != declared {want}")
            if trace:
                check("trace.overhead_s" in got, f"{where} lacks trace.overhead_s")
            print(f"smoke: ok {where}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, spec["workloads"][0]["name"], 0)
        check(out.returncode != 0, "ran without the package sources")
        check("metrics" not in out.stdout, "printed a result without the sources")
        print("smoke: ok refuses to run without the package sources")


if __name__ == "__main__":
    main()
