"""One benchmark process: set up one workload, then run it untraced or traced.

Started by ``run.py`` as a fresh single-threaded interpreter.  It imports
twinvest from ``src/`` of the checkout, makes the workload's inputs, prints
``READY`` (``run.py`` times set-up up to that line), and unless
``--setup-only`` runs the workload and prints one JSON result line.

Untraced: passes over the inputs run back to back, closed loop, while the
next one is expected to end within ``--seconds`` (at least one pass).
Traced: one untraced pass, then one pass under the tracer; its outputs must
equal the untraced pass's, and their wall-time ratio is the overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import twinvest

    import_s = time.perf_counter() - t0
    if Path(twinvest.__file__).resolve().parent != ROOT / "src" / "twinvest":
        raise SystemExit(f"twinvest imported from {twinvest.__file__}, not from this checkout")
    import speed
    import workloads

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed, args.smoke)
    workload.prepare()
    print("READY", flush=True)
    # Speed factor for the set-up time just measured by run.py.
    print(f"SPEED {speed.REFERENCE_PROBE_S / speed.probe_median()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced(workload)
        result["metrics"]["twinvest.import_s"] = import_s
    else:
        result = untraced(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_checked(workload):
    p = workload.run_pass()
    workload.check_pass(p)
    return p


def untraced(workload, seconds: float) -> dict:
    """Closed loop of passes; times scaled to the reference machine speed."""
    import speed

    passes = []
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            passes.append(run_checked(workload))
            elapsed = time.perf_counter() - start
            if elapsed + (passes[-1].end - passes[-1].start) > seconds:
                break
    result = finish(workload, passes)
    result["walls_s"] = [sampler.scaled(p.start, p.end) for p in passes]
    result["raw_walls_s"] = [sampler.raw(p.start, p.end) for p in passes]
    result["latencies_s"] = [sampler.scaled(a, b) for p in passes for a, b in p.item_spans]
    result["probes"] = len(sampler.samples)
    result["probe_median_s"] = sampler.median_probe_s()
    return result


def traced(workload) -> dict:
    import tracing

    plain = run_checked(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = workload.run_pass()
    finally:
        tracer.uninstall()
    workload.check_pass(p)
    if p.digest != plain.digest:
        p.failures.append("outputs changed under tracing")
    tracer.write_spans(ROOT / ".perfbench" / f"spans-{workload.name}-{workload.seed}.csv")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    result = finish(workload, [plain, p])
    result["metrics"] = tracer.metrics(names)
    result["traffic"] = tracer.traffic()
    result["metrics"]["trace_overhead_ratio"] = (p.end - p.start) / (plain.end - plain.start)
    result["metrics"]["cli.out_bytes"] = p.out_bytes
    return result


def finish(workload, passes) -> dict:
    if hasattr(workload, "oracle_check"):
        workload.oracle_check(passes[-1])
    digests = {p.digest for p in passes}
    failures = [f for p in passes for f in p.failures]
    if len(digests) > 1:
        failures.append("passes over the same inputs gave different outputs")
    return {
        "walls_s": [p.end - p.start for p in passes],
        "latencies_s": [b - a for p in passes for a, b in p.item_spans],
        "items": sum(p.items for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": sorted(set(failures))[:20],
        "metrics": {},
    }


if __name__ == "__main__":
    sys.exit(main())
