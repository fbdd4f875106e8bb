"""Self-test of the benchmark at reduced size (about 15 s).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload in
both modes prints every named metric with its unit and a well-formed last
line, that two traced runs give identical counts, and that the benchmark
refuses to run without the twinvest sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from tracing import known_metric_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_spec(errors: list[str]):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(SPEC) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(SPEC)}")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        errors.append("metric or workload names repeat")
    for m in SPEC["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"bad end-to-end metric {m}")
    for m in SPEC["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"bad per-layer metric {m}")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"bad unit or direction {m}")
    unknown = {m["name"] for m in SPEC["per_layer"]} - known_metric_names()
    if unknown:
        errors.append(f"per-layer metrics nothing produces: {sorted(unknown)}")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in SPEC["end_to_end"]):
        errors.append("setup_s does not have the largest bound")


def check_run(workload: str, trace: int, errors: list[str]) -> dict:
    proc = run("--workload", workload, "--seed", "12345", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {lines[-1][:300]}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    printed = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} has {got}")
        if not re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$", printed, re.M):
            errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    if "fail_ratio = " not in printed:
        errors.append(f"{where}: fail_ratio not printed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_bare_directory(errors: list[str]):
    """Only BENCHMARK.json and the benchmark's files: must exit non-zero, no result."""
    runs_dir = ROOT / ".perfbench"
    runs_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs_dir) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "sweep-f3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("runs without the twinvest sources")


def main() -> int:
    errors: list[str] = []
    check_spec(errors)
    counts = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_run(workload, 0, errors)
        counts[workload] = check_run(workload, 1, errors)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    again = check_run("solve-batch", 1, errors)
    for name, value in counts["solve-batch"].items():
        if units[name] == "count" and again.get(name) != value:
            errors.append(f"count {name} differs between traced runs: {value} vs {again.get(name)}")
    check_bare_directory(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
