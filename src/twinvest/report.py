"""Deterministic text formatting shared by CSV emitters and the CLI.

All numeric output uses 12 significant digits so that printed values
re-parse to within 1e-9 of the in-memory ones, and identical runs produce
byte-identical files.

:func:`format_rows` writes a whole table with numpy and gives, for every
value, the bytes of ``NUMBER_FORMAT % x``.  The argument:

* Rounding.  Take ``a = |x|`` with ``1e-4 <= a < 1e12`` and some integer
  ``E`` in [-4, 11] (``floor(log10(a))``, clipped; a wrong ``E`` is caught
  below).  ``10**(11 - E)`` is an exact double, so ``s = a * 10**(11 - E)``
  is the exact product ``p`` rounded once: ``|s - p| <= ulp(s) / 2 <=
  2**-14`` while ``s < 2**40``.  Keep ``m = rint(s)`` only when
  ``s >= 1e11``, ``m < 1e12`` and ``|s - m| < 0.5 - 1e-3``.  Then
  ``|p - m| < 0.4991``: no tie is near and ``m`` is ``p`` correctly
  rounded, under any tie rule.  If ``p >= 1e11``, ``E`` is the decimal exponent of ``a``,
  ``m`` its 12-digit significand and ``%g`` prints it in fixed notation
  (``-4 <= E < 12``).  If ``p < 1e11`` (``E`` one too large), ``s >= 1e11``
  puts ``p`` within ``2**-14`` of ``1e11``; ``a`` then rounds to ``10**E``
  at its own exponent, which is what ``m = 1e11`` prints.
* Text.  ``m`` splits exactly (all integers stay below ``10**15``, where a
  quotient's floor is exact) into the integer part and 15 fraction digits,
  each cut into 4-digit groups.  One lookup per group in a table of 4-byte
  words writes the digits; its variants write the groups that ``%g``
  drops (leading zeros of the integer part, trailing zeros of the
  fraction, the point with no fraction after it) as NUL bytes, which are
  deleted from the joined table.  Zeros are ``m = 0`` and print as ``0``
  and ``-0``.
* Fallback.  Every other value (NaN, infinities, nonzero magnitudes below
  ``1e-4`` with the subnormals, magnitudes from ``1e12`` up, near-ties, a
  misplaced ``E`` and a rounding up to ``1e12``) is written by
  ``NUMBER_FORMAT % x`` itself, so it prints as it always has.

No step divides by zero or overflows, so the kernel raises no numpy
warning.
"""

from __future__ import annotations

import functools

import numpy as np

# The one number format; ``"%.12g" % x`` and ``f"{x:.12g}"`` give the same text.
NUMBER_FORMAT = "%.12g"


def format_number(x: float) -> str:
    return NUMBER_FORMAT % float(x)


_POW10 = np.array([float(10**k) for k in range(16)])  # exact doubles


@functools.cache
def _word_table() -> np.ndarray:
    """The 4-byte words of :func:`format_rows`, one section of 10,000 per
    variant, indexed by ``section * 10_000 + group``: full digits; integer
    groups without leading zeros (``_LEAD``), the same with a lone ``0``
    for a zero integer part (``_UNITS``); fraction groups without trailing
    zeros (``_TRAIL``); the first, 3-digit fraction group behind its point,
    full (``_POINT``) and without trailing zeros or, when 0, without the
    point (``_POINT_TRAIL``); and the separator before a value and its
    sign (``_MARKS``: rows 0-5 are no separator, ``,`` and newline, each
    unsigned then signed).  Built on the first call, so that a run that
    writes no table never builds it."""
    g = np.arange(10_000, dtype=np.uint16)
    digits = (48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)).astype(np.uint8)
    nonzero = digits != ord("0")
    lead = digits * np.logical_or.accumulate(nonzero, axis=1)
    trail = digits * np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    units = lead.copy()
    units[0, 3] = ord("0")
    point, point_trail = digits.copy(), trail.copy()
    point[:, 0] = point_trail[:, 0] = ord(".")
    point_trail[0] = 0
    marks = np.zeros_like(digits)
    marks[:6, 0] = np.repeat([0, ord(","), ord("\n")], 2)
    marks[1:6:2, 3] = ord("-")
    sections = (digits, lead, units, trail, point, point_trail, marks)
    return np.concatenate([s.view(np.uint32).ravel() for s in sections])


_LEAD, _UNITS, _TRAIL, _POINT, _POINT_TRAIL, _MARKS = (k * 10_000.0 for k in range(1, 7))


def format_rows(columns) -> str:
    """CSV lines, one per row of equal-length numeric ``columns`` (arrays),
    each value written as :func:`format_number` writes it (see the module
    docstring for why the bytes agree)."""
    if not len(columns) or not len(columns[0]):
        return ""
    x = np.stack(columns, axis=1).astype(np.float64, copy=False).ravel()
    a = np.abs(x)
    in_range = (a >= 1e-4) & (a < 1e12)
    a = np.where(in_range, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 11).astype(np.intp)
    scale = _POW10[11 - e]
    s = a * scale
    m = np.rint(s)
    kernel = in_range & (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - 1e-3)
    fallback = np.flatnonzero(~kernel & (x != 0))
    m *= kernel
    whole = np.floor(m / scale)
    frac = (m - whole * scale) * _POW10[e + 4]  # the 15 fraction digits
    sep = np.ones(len(x))  # 0 none, 1 comma, 2 newline
    sep[:: len(columns)] = 2
    sep[0] = 0
    # each value's 8 words in _word_table(): separator and sign, the 12 integer
    # digits in three groups, the point and 15 fraction digits in four
    w = np.empty((len(x), 8), np.intp)
    w[:, 0] = _MARKS + 2 * sep + (np.signbit(x) & (kernel | (x == 0)))
    q = np.floor(whole / 1e8)
    w[:, 1] = _LEAD + q
    r = whole - q * 1e8
    q = np.floor(r / 1e4)
    w[:, 2] = q + _LEAD * (whole < 1e8)
    w[:, 3] = (r - q * 1e4) + _UNITS * (whole < 1e4)
    q = np.floor(frac / 1e12)
    r = frac - q * 1e12
    w[:, 4] = q + np.where(r == 0, _POINT_TRAIL, _POINT)
    q = np.floor(r / 1e8)
    r -= q * 1e8
    w[:, 5] = q + _TRAIL * (r == 0)
    q = np.floor(r / 1e4)
    r -= q * 1e4
    w[:, 6] = q + _TRAIL * (r == 0)
    w[:, 7] = _TRAIL + r
    words = _word_table()[w]
    if len(fallback):
        text = np.array([NUMBER_FORMAT % v for v in x[fallback].tolist()], dtype="S28")
        words[fallback, 1:] = text.view(np.uint32).reshape(-1, 7)
    return (words.tobytes().translate(None, b"\0") + b"\n").decode("ascii")


def format_bool(x: bool) -> str:
    return "true" if x else "false"
