import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

import twinvest.sweep
from twinvest.fixtures import f1, f3
from twinvest.report import format_number, format_rows
from twinvest.sweep import CSV_HEADER, INVALID_LABEL, SweepAxis, regime_sweep

EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
    1e16, 1e17, 999999999999.5, -999999999999.5, 0.5, 2.5, 1.0 / 3.0, -2.0 / 3.0,
    1e-4, 9.99999999999949e-5, 1e11, 999999999999.4,
]


def joined(columns) -> str:
    """The table as one ``format_number`` call per value writes it."""
    return "".join(",".join(format_number(c[i]) for c in columns) + "\n" for i in range(len(columns[0])))


def test_row_formatter_writes_what_format_number_writes():
    values = np.array(EDGE_VALUES)
    columns = (values, values[::-1], -values)
    assert format_rows(columns) == joined(columns)


def test_format_number_matches_the_format_spec():
    for x in EDGE_VALUES:
        assert format_number(x) == f"{x:.12g}"
        assert format_number(np.float64(x)) == f"{x:.12g}"


def _nudged(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.copysign(np.inf, steps)))
    return x


# every float64 (subnormals, NaN, infinities and both zeros among them),
# rounding near-ties of 12-digit decimals and the powers of ten, each with
# its neighbours
_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
_near_tie = st.builds(
    lambda k, j, steps: _nudged((k + 0.5) / 10.0**j, steps),
    st.integers(0, 10**12), st.integers(0, 17), st.integers(-2, 2),
)
_power_of_ten = st.builds(
    lambda k, steps: _nudged(10.0**k, steps), st.integers(-8, 16), st.integers(-2, 2),
)
_value = st.builds(
    lambda x, negate: -x if negate else x,
    st.one_of(_any_float, _near_tie, _power_of_ten, st.just(999999999999.5)),
    st.booleans(),
)
_columns = st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(_value, min_size=width, max_size=width), max_size=50).map(
        lambda rows: tuple(np.array([r[c] for r in rows], dtype=np.float64) for c in range(width))
    )
)


@settings(max_examples=300, deadline=None)
@given(_columns)
def test_row_formatter_equals_the_join_of_format_number(columns):
    assert format_rows(columns) == joined(columns)


def test_zero_length_columns_give_no_text():
    assert format_rows([np.array([])]) == ""
    assert format_rows([np.array([]), np.array([])]) == ""


def test_maps_whose_columns_are_empty(monkeypatch):
    lengths = []

    def recording(columns):
        lengths.append(len(columns[0]))
        return format_rows(columns)

    monkeypatch.setattr(twinvest.sweep, "format_rows", recording)
    # no valid cell: the pi1 level lies below pi0, so the map has no solved
    # values and no deterrent root to write
    invalid = regime_sweep(f3(), SweepAxis("pi1", 0, 0.1, 0.1, 1), SweepAxis("cost", 0, 0.2, 0.3, 2))
    assert invalid.to_csv() == ",".join(CSV_HEADER) + "\n" + f"0.1,0.2,{INVALID_LABEL},,,,\n0.1,0.3,{INVALID_LABEL},,,,\n"
    assert lengths == [0, 0, 1, 2]
    # valid cells whose retention margin never changes sign: no deterrent root
    lengths.clear()
    retained = regime_sweep(f1(), SweepAxis("cost", 1, -0.1, -0.1, 1), SweepAxis("pi0", 1, 0.2, 0.3, 2))
    assert retained.to_csv().splitlines()[1:] == [
        "-0.1,0.2,Interior,0.757359322949,0.102943725152,false,",
        "-0.1,0.3,MaxInvestment,1,0.166666666667,false,",
    ]
    assert lengths == [0, 2, 1, 2]


def test_importing_the_package_builds_no_word_table():
    # the table is built by the first format_rows call; validate and
    # simulate write no table, so they never pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import twinvest, twinvest.cli, twinvest.report as r\n"
        "assert r._word_table.cache_info().currsize == 0\n"
        "r.format_rows([[0.5]])\n"
        "assert r._word_table.cache_info().currsize == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
