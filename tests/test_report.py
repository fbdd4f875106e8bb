import numpy as np

from twinvest.report import format_number, format_rows

EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
    1e16, 1e17, 999999999999.5, -999999999999.5, 0.5, 2.5, 1.0 / 3.0, -2.0 / 3.0,
]


def test_row_formatter_writes_what_format_number_writes():
    values = np.array(EDGE_VALUES)
    columns = (values, values[::-1], -values)
    lines = format_rows(columns).split("\n")
    assert lines.pop() == ""
    expected = [
        ",".join(format_number(c[i]) for c in columns) for i in range(len(EDGE_VALUES))
    ]
    assert lines == expected


def test_format_number_matches_the_format_spec():
    for x in EDGE_VALUES:
        assert format_number(x) == f"{x:.12g}"
        assert format_number(np.float64(x)) == f"{x:.12g}"

