"""Write perfbench/reference.json: output digests of the current sources.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are the reference (the outputs must
stay byte-identical across refactors and speed-ups).  It records the sweep
map, the verify report at the default seed and the per-model solve-batch
outputs at the default seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    reference = {}
    runs_dir = BENCH_DIR.parent / ".perfbench"
    runs_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs_dir) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(Path(tmp), seed, smoke=False)
            w.prepare()
            p = w.run_pass()
            w.check_pass(p)
            key = w.reference_key()
            reference[name] = {key: p.per_item_digests or p.digest}
            print(f"{name}: {p.items} items, {len(p.failures)} failures", file=sys.stderr)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
