"""Every pinned CLI output, checked against the manifest ``golden.json``.

Each manifest entry is one ``twinvest`` command: its ``argv``, with paths
relative to the repository root and ``{out}`` standing for a temporary
``--out`` path, the sha256 of its stdout and, when it writes one, the
sha256 of its ``--out`` file (``out``).  Every command must exit 0 without
a numpy ``RuntimeWarning``.

Run this file as a script to re-record the manifest after a deliberate
change of output bits::

    PYTHONPATH=src python tests/test_golden.py

It prints each pin that moved, was added or was removed.  To pin a new
command, append an entry holding only its ``argv`` and re-record; to drop
one, delete its entry.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from twinvest.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """Run one command through :func:`twinvest.cli.main` in the repository
    root, numpy warnings raised as errors, and return its manifest entry."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
                warnings.simplefilter("error", RuntimeWarning)
                status = main([out if arg == "{out}" else arg for arg in argv])
        finally:
            os.chdir(cwd)
        if status != 0:
            raise AssertionError(f"{' '.join(argv)} exited {status}")
        entry = {"argv": argv, "stdout": sha256(stdout.getvalue().encode("utf-8"))}
        if "{out}" in argv:
            entry["out"] = sha256(Path(out).read_bytes())
    return entry


ENTRIES = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: " ".join(entry["argv"]))
def test_pinned_output(entry):
    assert run(entry["argv"]) == entry


def test_module_entry_point():
    """``python -m twinvest.cli`` prints the bytes ``main`` prints."""
    entry = next(e for e in ENTRIES if e["argv"] == ["validate", "--model", "configs/f1.json"])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "twinvest.cli", *entry["argv"]],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, check=True,
    )
    assert sha256(proc.stdout) == entry["stdout"]


def record():
    """Re-run every manifest command, rewrite the manifest and print each
    pin that moved, was added or was removed."""
    entries = [run(entry["argv"]) for entry in ENTRIES]
    for old, new in zip(ENTRIES, entries):
        for key in ("stdout", "out"):
            if old.get(key) != new.get(key):
                change = "added" if key not in old else "removed" if key not in new else "moved"
                print(f"{change} {key}: {' '.join(new['argv'])}")
    MANIFEST.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
