"""
One benchmark run of one workload, in the fresh interpreter it was started in.

Runs the workload's batch as a closed loop with a single caller: each item
starts only after the previous one has returned.  An exception or a wrong
output counts the item as failed and the run goes on.  Prints one JSON
object on its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

MAX_TRACEBACKS = 3


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile).  With too few samples for that, the maximum
    and 100.
    """
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(latencies: list[float], phases: dict[str, list[float]], elapsed: float, failed: int) -> dict:
    tail_s, pct = tail(latencies)
    out = {
        "attempted": len(latencies),
        "failed": failed,
        "elapsed_s": elapsed,
        "items_per_s": len(latencies) / elapsed,
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "item_tail_percentile": pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for phase, values in sorted(phases.items()):
        out[f"{phase}_p50_ms"] = statistics.median(values) * 1e3
    return out


def run(name: str, seed: int, seconds: float, trace: bool, spans_path: str | None) -> dict:
    import workloads

    items = workloads.batch(name, seed, seconds)
    store = None
    if trace:
        import tracer

        store = tracer.SpanStore()
        tracer.install(store, extra_modules=[workloads])
    latencies: list[float] = []
    phases: dict[str, list[float]] = {}
    failed = 0
    clock = time.perf_counter
    began = clock()
    for idx, item in enumerate(items):
        if store is not None:
            store.item = idx
        t0 = clock()
        try:
            ok, timed = workloads.run_item(name, item)
        except Exception:
            ok, timed = False, {}
            if failed < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - t0)
        if not ok:
            failed += 1
            print(f"item {idx} failed: {item!r}"[:300], file=sys.stderr)
        for phase, dt in timed.items():
            phases.setdefault(phase, []).append(dt)
    result = summarize(latencies, phases, clock() - began, failed)
    result["latencies_ms"] = [dt * 1e3 for dt in latencies]
    if store is not None:
        metrics, unreached = tracer.layer_metrics(store, name, result["items_per_s"])
        result["layers"] = metrics
        result["unreached"] = unreached
        result["spans"] = len(store.start)
        if spans_path:
            store.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: the program's checks would be stripped", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
