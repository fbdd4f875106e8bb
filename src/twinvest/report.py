"""Deterministic text formatting shared by CSV emitters and the CLI.

All numeric output uses 12 significant digits so that printed values
re-parse to within 1e-9 of the in-memory ones, and identical runs produce
byte-identical files.
"""

from __future__ import annotations

import itertools

# The one number format; ``"%.12g" % x`` and ``f"{x:.12g}"`` give the same text.
NUMBER_FORMAT = "%.12g"


def format_number(x: float) -> str:
    return NUMBER_FORMAT % float(x)


def format_rows(columns) -> str:
    """CSV lines, one per row of equal-length numeric ``columns`` (arrays),
    each value written as :func:`format_number` writes it, the whole table
    by one ``%``."""
    rows = list(zip(*(c.tolist() for c in columns)))
    line = ",".join([NUMBER_FORMAT] * len(columns)) + "\n"
    return (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def format_bool(x: bool) -> str:
    return "true" if x else "false"
