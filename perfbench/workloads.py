"""The three benchmark workloads.

Each workload makes its inputs in ``prepare`` (part of set-up), runs one
pass over them in ``run_pass`` (the timed part: only calls into twinvest)
and checks a finished pass in ``check_pass`` (untimed).  A pass is one
``sweep`` of the f3 template, one ``verify --models 200``, or one model
after another through the per-model command sequence of solve-batch.

twinvest is reached only through ``twinvest.cli.main`` and public library
functions, always looked up on their module at call time, so the tracer's
patched bindings are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import twinvest.cli
import twinvest.config
import twinvest.continuous
import twinvest.model
import twinvest.oracle
import twinvest.report

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

#: The seed whose outputs have stored digests.
DEFAULT_SEED = 12345

#: Rule of ``oracle.certify_investment``: v within 1e-3 of the grid argmax,
#: rent at least the grid's minus 1e-9.
ORACLE_STEP, ORACLE_V_TOL, ORACLE_VALUE_TOL = 1e-4, 1e-3, 1e-9


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\x00")
    return h.hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``twinvest.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = twinvest.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    """One pass over a workload's inputs; times are ``perf_counter`` readings."""

    start: float = 0.0
    end: float = 0.0
    item_spans: list[tuple[float, float]] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    out_bytes: int = 0
    per_item_digests: list[str] = field(default_factory=list)
    raw: list = field(default_factory=list)


def single_command_pass(argv: list[str]) -> Pass:
    t0 = time.perf_counter()
    code, stdout, stderr = call_cli(argv)
    t1 = time.perf_counter()
    return Pass(start=t0, end=t1, item_spans=[(t0, t1)], attempted=1, raw=[(code, stdout, stderr)])


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def reference(self) -> str | list | None:
        """Stored digest(s) for this workload's inputs, or None when there are none."""
        if self.smoke:
            return None
        return REFERENCE.get(self.name, {}).get(self.reference_key())

    def reference_key(self) -> str:
        return str(self.seed)


# ---------------------------------------------------------------------------
# sweep-f3
# ---------------------------------------------------------------------------


class SweepF3(Workload):
    """``twinvest sweep`` on the paper's f3 regime-map template (50x50 cells)."""

    name = "sweep-f3"

    def reference_key(self) -> str:
        return "map"  # the input does not depend on the seed

    def prepare(self):
        self.model = str(BENCH_DIR / "inputs" / "f3.json")
        self.out = str(self.work / "map.csv")
        self.argv = ["sweep", "--model", self.model, "--out", self.out]
        if self.smoke:
            self.argv += ["--grid", "4"]

    def run_pass(self) -> Pass:
        return single_command_pass(self.argv)

    def check_pass(self, p: Pass):
        code, stdout, stderr = p.raw.pop()
        csv = Path(self.out).read_bytes() if code == 0 else b""
        p.items = max(csv.count(b"\n") - 1, 0)
        p.out_bytes = len(csv) + len(stdout.encode())
        p.digest = digest(csv, stdout)
        if code != 0:
            p.failures.append(f"sweep exited {code}: {stderr.strip()}")
        elif self.reference() not in (None, p.digest):
            p.failures.append("sweep map differs from the reference map")


# ---------------------------------------------------------------------------
# verify-200
# ---------------------------------------------------------------------------


class Verify200(Workload):
    """``twinvest verify --models 200 --seed 12345``: five certification reports.

    The input is fixed at the default seed and does not depend on the
    benchmark seed: on about a third of other seeds ``verify`` fails its own
    certification (see README.md, *Known failures*), and a benchmark run
    needs inputs on which no operation fails.
    """

    name = "verify-200"

    def reference_key(self) -> str:
        return str(DEFAULT_SEED)

    def prepare(self):
        self.out = str(self.work / "verify.json")
        models = "3" if self.smoke else "200"
        self.argv = ["verify", "--models", models, "--seed", str(DEFAULT_SEED), "--out", self.out]

    def run_pass(self) -> Pass:
        return single_command_pass(self.argv)

    def check_pass(self, p: Pass):
        code, stdout, stderr = p.raw.pop()
        # Exit 3 (oracle disagreement) still writes the full report.
        data = Path(self.out).read_bytes() if code in (0, 3) else b""
        p.out_bytes = len(data) + len(stdout.encode())
        p.digest = digest(data, stdout)
        if not data:
            p.failures.append(f"verify exited {code}: {stderr.strip()}")
            return
        reports = json.loads(data)["reports"]
        p.items = p.attempted = sum(r["checks"] for r in reports)  # one operation per check
        for r in reports:
            for d in r["disagreements"]:
                p.failures.append(
                    f"{r['target_op']} oracle disagreement {d['inputs']}: "
                    f"analytic {d['analytic']}, oracle {d['oracle']}"
                )
        if code != 0 and not p.failures:
            p.failures.append(f"verify exited {code}: {stderr.strip()}")
        if self.reference() not in (None, p.digest):
            p.failures.append("verify report differs from the reference report")


# ---------------------------------------------------------------------------
# solve-batch
# ---------------------------------------------------------------------------


def _rise(rng: random.Random, intercept: float, headroom: float) -> dict:
    kind = rng.choice(("affine", "constant", "power"))
    if kind == "constant":
        return {"kind": "constant", "coefficients": [intercept]}
    slope = rng.uniform(0.0, headroom)
    if kind == "affine":
        return {"kind": "affine", "coefficients": [intercept, slope]}
    return {"kind": "power", "coefficients": [intercept, slope, rng.uniform(1.0, 3.0)]}


def _cost(rng: random.Random) -> dict:
    c0 = rng.uniform(0.05, 0.5)
    kind = rng.choice(("affine", "exponential-decay", "power", "constant"))
    if kind == "constant":
        return {"kind": "constant", "coefficients": [c0]}
    if kind == "exponential-decay":
        return {"kind": kind, "coefficients": [c0, rng.uniform(0.0, 3.0)]}
    drop = rng.uniform(0.0, 0.9) * c0
    if kind == "affine":
        return {"kind": "affine", "coefficients": [c0, -drop]}
    return {"kind": "power", "coefficients": [c0, -drop, rng.uniform(1.0, 3.0)]}


def _continuous(rng: random.Random) -> dict:
    e_min = rng.uniform(0.02, 0.3)
    e_max = e_min + rng.uniform(0.2, 1.5)
    a = rng.uniform(-0.2, 0.3)
    slope = rng.uniform(0.05, (0.95 - a) / e_max)
    if rng.random() < 0.5:
        p = {"kind": "affine", "coefficients": [a, slope]}
    else:
        p = {"kind": "power", "coefficients": [a, slope, rng.uniform(0.3, 1.0)]}
    s_low = rng.uniform(0.0, 0.5)
    return {
        "p": p, "c0": rng.uniform(0.05, 0.5), "e_min": e_min, "e_max": e_max,
        "s_high": s_low + rng.uniform(0.2, 3.0), "s_low": s_low,
    }


def _retention_stake(model, v: float) -> float:
    """Quality importance at which the retention margin is exactly 0 at ``v``."""
    p = twinvest.model.evaluate(model, v)
    return p.pi1 * p.cost / (p.pi1 - p.pi0) ** 2


def draw_case(rng: random.Random, displaced: bool):
    """One model file (as a dict and parsed) whose two parts both validate.

    With ``displaced`` the stake ``s_high - s_low`` is put strictly between
    the retention thresholds at ``v = 0`` and at ``v_max``, so retention
    holds at 0 and fails at ``v_max``: a displacement threshold lies inside
    the range.  Only models whose threshold rises with ``v`` admit that.
    """
    while True:
        s_low = rng.uniform(0.0, 0.5)
        a0 = rng.uniform(0.05, 0.4)
        a1 = rng.uniform(a0 + 0.1, 0.9)
        obj = {
            "pi0": _rise(rng, a0, 0.45), "pi1": _rise(rng, a1, 0.95 - a1), "cost": _cost(rng),
            "v_max": 1.0, "s_high": s_low + rng.uniform(0.2, 3.0), "s_low": s_low,
            "continuous": _continuous(rng),
        }
        try:
            mf = twinvest.config.parse_model_file(obj)
        except twinvest.config.ConfigError:
            continue
        if not twinvest.continuous.validate_continuous(mf.continuous).passed:
            continue
        if displaced:
            try:
                low = _retention_stake(mf.model, 0.0)
                high = _retention_stake(mf.model, mf.model.v_max)
            except ZeroDivisionError:
                continue
            if not high > low * 1.01:
                continue
            obj["s_high"] = s_low + low + rng.uniform(0.15, 0.85) * (high - low)
            mf = twinvest.config.parse_model_file(obj)
        if twinvest.model.validate(mf.model).passed:
            return obj, mf


class SolveBatch(Workload):
    """Per-model path: validate, solve --out, simulate x3, principal_optimal_effort."""

    name = "solve-batch"

    def prepare(self):
        rng = random.Random(self.seed)
        count = 4 if self.smoke else 150
        self.cases = []
        for i in range(count):
            obj, mf = draw_case(rng, displaced=i % 2 == 0)
            path = self.work / f"model-{i:03d}.json"
            path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
            alpha = f"{rng.uniform(0.3, 0.95):.4f}"
            horizon = str(rng.randint(4, 12))
            grid = str(self.work / f"grid-{i:03d}.csv")
            self.cases.append((str(path), grid, alpha, horizon, mf.continuous))

    def run_pass(self) -> Pass:
        clock = time.perf_counter
        p = Pass(start=clock())
        for path, grid, alpha, horizon, cmodel in self.cases:
            t0 = clock()
            runs = [
                call_cli(["validate", "--model", path]),
                call_cli(["solve", "--model", path, "--out", grid]),
                call_cli(["simulate", "--model", path, "--agent", "myopic"]),
                call_cli(["simulate", "--model", path, "--agent", "strategic"]),
                call_cli(["simulate", "--model", path, "--alpha", alpha, "--horizon", horizon]),
            ]
            effort = twinvest.continuous.principal_optimal_effort(cmodel)
            p.item_spans.append((t0, clock()))
            p.raw.append((runs, effort))
        p.end = clock()
        p.attempted = 6 * len(self.cases)
        return p

    def check_pass(self, p: Pass):
        fmt = twinvest.report.format_number
        digests = []
        self.solved = []
        for (path, grid, _, _, _), (runs, effort) in zip(self.cases, p.raw):
            codes = [code for code, _, _ in runs]
            for code, stdout, stderr in runs:
                if code != 0:
                    p.failures.append(f"{path}: exit {code}: {stdout.strip()} {stderr.strip()}")
            csv = Path(grid).read_bytes() if codes[1] == 0 else b""
            text = [part for run in runs for part in run[1:]]
            effort_line = ",".join(
                fmt(x) for x in (effort.e_opt, effort.contract.t_high, effort.contract.t_low,
                                 effort.principal_surplus)
            ) + f",{effort.liability_binding}"
            digests.append(digest(csv, effort_line, *text))
            self.solved.append((path, codes[1], runs[1][1]))
            p.out_bytes += len(csv) + sum(len(t.encode()) for t in text)
        p.items = len(p.raw)
        p.per_item_digests = digests
        p.digest = digest(*digests)
        p.raw.clear()
        reference = self.reference()
        if reference is not None:
            for (path, *_), got, want in zip(self.cases, digests, reference):
                if got != want:
                    p.failures.append(f"{path}: outputs differ from the reference")

    def oracle_check(self, p: Pass):
        """Each v_opt of the last checked pass against the brute-force optimum."""
        for path, code, stdout in self.solved:
            fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
            model = twinvest.config.load_model_file(path).model
            found = twinvest.oracle.brute_force_investment(model, ORACLE_STEP, enforce_deterrent=True)
            if code != 0 or found is None or "v_opt" not in fields:
                p.failures.append(f"{path}: no solution to check against the oracle")
                continue
            v, u = float(fields["v_opt"]), float(fields["u_opt"])
            ov, ou = found
            if abs(v - ov) > ORACLE_V_TOL or max(0.0, ou - u) > ORACLE_VALUE_TOL:
                p.failures.append(f"{path}: v_opt={v} U={u} but oracle v={ov} U={ou}")


WORKLOADS = {w.name: w for w in (SweepF3, Verify200, SolveBatch)}
