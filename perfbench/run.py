"""
Benchmark of affine_insertion: insertion and symmetric functions, end to end
and per layer.

    python3 perfbench/run.py --workload rsk-limit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in a fresh interpreter started here, with AIK_THREADS and
PYTHONOPTIMIZE removed and PYTHONHASHSEED pinned.  With --trace 0 the run
reports the end-to-end metrics, including set-up time measured over several
fresh-interpreter imports; with --trace 1 it wraps the package's module
boundaries and reports per-layer metrics instead.  The last line of standard
output is one JSON object; the lines before it give the same numbers for
people, plus the run's environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("rsk-limit", "big-roundtrip", "kschur-table", "pieri-cauchy")
SETUP_IMPORTS = 9  # fresh-interpreter imports per run; the median is reported
WORKER_TIMEOUT_S = 165
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import affine_insertion, affine_insertion.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("AIK_THREADS", "PYTHONOPTIMIZE")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env) -> float:
    """Median import time of the package and its CLI over fresh interpreters.

    The first import, which may compile bytecode, is not counted.
    """
    times = []
    for k in range(SETUP_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise BenchError(f"importing affine_insertion failed:\n{proc.stderr}")
        if k:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_worker(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}.bin")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{workload}: worker printed no result") from exc


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, if it is a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One run: the result object of the last output line, and the lines that explain it."""
    env = worker_env()
    info = environment(workload, seed, seconds, trace)
    setup = None if trace else setup_seconds(env)
    res = run_worker(env, workload, seed, seconds, trace)
    attempted, failed = res["attempted"], res["failed"]
    notes = [f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}"]
    if trace:
        metrics = res["layers"]
        notes.append(f"spans recorded: {res['spans']}")
        notes += [f"WARNING {name} recorded no calls on {workload}" for name in res["unreached"]]
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "items_per_s": {"value": res["items_per_s"], "unit": "items/s"},
            "item_p50_ms": {"value": res["item_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        pct = res["item_tail_percentile"]
        notes.append(
            f"item_tail_ms = {res['item_tail_ms']:.4f} ms, p{pct:.2f} of {attempted} items"
            + (" (fewer than 11: the maximum)" if pct == 100.0 else "")
        )
        for half in ("insert", "uninsert"):
            if f"{half}_p50_ms" in res:
                notes.append(f"{half}_p50_ms = {res[f'{half}_p50_ms']:.4f} ms (median of the {half} half)")
    lines = [f"# {k}: {v}" for k, v in info.items()]
    lines += [f"{name.ljust(44)} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=info, worker=res)
    (OUT / f"result-{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under -O: the program's checks would be stripped", file=sys.stderr)
        return 2
    if not (SRC / "affine_insertion" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = measure(workload, args.seed, args.seconds, args.trace)
            print(f"== {workload}")
            print("\n".join(lines), flush=True)
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
