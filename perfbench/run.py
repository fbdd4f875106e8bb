"""twinvest benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-f3 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``sweep-f3``,
``verify-200``, ``solve-batch``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the failure ratio and the environment of the run.

Set-up (a fresh interpreter importing twinvest and making the inputs) is
timed in several processes and reported as the median; the last of them
goes on to run the workload.  This file uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROCESSES = 5
RUN_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from tracing import percentile  # noqa: E402  (stdlib-only helpers)


def read_steal_s() -> float | None:
    """Cumulative steal time of all CPUs, from /proc/stat (read-only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, work: Path, setup_only: bool, deadline: float):
    """Run one worker; returns (set-up seconds, result dict or None, stderr)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    ready = None
    factor = 1.0
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.monotonic() - t0
            elif line.startswith("SPEED "):
                factor = float(line.split()[1])
            else:
                lines.append(line)
        stderr = proc.stderr.read()
    finally:
        proc.wait()
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or ready is None:
        return None, None, stderr or f"worker exited with {proc.returncode}"
    result = json.loads(lines[-1]) if lines else None
    return ready * factor, result, stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep-f3", "verify-200", "solve-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "twinvest" / "__init__.py").is_file():
        print(f"error: no twinvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs_dir = ROOT / ".perfbench"
    runs_dir.mkdir(exist_ok=True)
    run_dir = runs_dir / f"run-{os.getpid()}-{time.time_ns()}"
    steal0 = read_steal_s()
    setups = []
    try:
        for i in range(0 if args.trace else SETUP_PROCESSES - 1):
            ready, _, err = start_worker(args, run_dir / f"setup-{i}", True, deadline)
            if ready is None:
                print(err, file=sys.stderr)
                return 1
            setups.append(ready)
        ready, result, err = start_worker(args, run_dir / "main", False, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal1 = read_steal_s()
    if result is None:
        print(err, file=sys.stderr)
        return 1
    setups.append(ready)

    if args.trace:
        wanted = spec["per_layer"]
        metrics = result["metrics"]
    else:
        wanted = spec["end_to_end"]
        lat_ms = [1000.0 * t for t in result["latencies_s"]]
        metrics = {
            "wall_s": statistics.median(result["walls_s"]),
            "items_per_s": result["items"] / sum(result["walls_s"]),
            "item_p50_ms": percentile(lat_ms, 0.50),
            "item_p90_ms": percentile(lat_ms, 0.90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], min(result["failed"], result["attempted"])
    for name, m in out.items():
        value = m["value"]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print("samples: " + json.dumps({
        "passes": len(result["walls_s"]), "items": result["items"],
        "latencies": len(result["latencies_s"]), "setups": len(setups),
        "speed_probes": result.get("probes"), "probe_median_s": result.get("probe_median_s"),
        "raw_walls_s": result.get("raw_walls_s"),
    }))
    if "traffic" in result:
        print("traffic: " + json.dumps(result["traffic"], sort_keys=True))
    print("env: " + json.dumps({
        "python": platform.python_version(), "numpy": result.get("numpy"),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "steal_s": None if steal0 is None or steal1 is None else round(steal1 - steal0, 3),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
