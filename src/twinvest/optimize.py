"""Bounded scalar optimization helpers: golden-section search and bisection.

The investment and effort objectives are not necessarily quasiconcave, so
the solvers never trust a single local search: they scan a dense grid
first, then refine the best bracket with golden-section.  This module owns
that refinement step (:func:`refine_max` and its grid-argmax form
:func:`refine_grid_max`), which both solvers use, and the bisection that
locates sign changes.
"""

from __future__ import annotations

import math
from typing import Callable

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[a, b]``; returns ``(x, f(x))``.

    Endpoints are evaluated too, so a boundary maximum is returned exactly.
    """
    if b < a:
        raise ValueError(f"empty bracket [{a}, {b}]")
    lo, hi = a, b
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    it = 0
    while hi - lo > xtol and it < max_iter:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = f(x2)
        it += 1
    candidates = [(a, f(a)), (b, f(b)), (x1, f1), (x2, f2)]
    mid = 0.5 * (lo + hi)
    candidates.append((mid, f(mid)))
    return max_candidate(candidates)


def max_candidate(candidates: list[tuple[float, float]]) -> tuple[float, float]:
    """Pick the candidate with the largest value, ties toward smaller x."""
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        if fx > best_f or (fx == best_f and x < best_x):
            best_x, best_f = x, fx
    return best_x, best_f


def refine_max(
    f: Callable[[float], float],
    candidates: list[tuple[float, float]],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Best of ``candidates`` and, when ``hi > lo``, of a golden-section
    search of ``f`` on ``[lo, hi]``; ties go to the smaller ``x``."""
    if hi > lo:
        candidates = candidates + [golden_section_max(f, lo, hi)]
    return max_candidate(candidates)


def refine_grid_max(f: Callable[[float], float], xs, fs, i: int) -> tuple[float, float]:
    """:func:`refine_max` of the grid point ``(xs[i], fs[i])`` inside its
    neighbour bracket ``[xs[i-1], xs[i+1]]``, clipped to the grid."""
    return refine_max(f, [(xs[i], fs[i])], xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])


def bisect_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    width_tol: float = 1e-12,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Shrink a sign-change bracket of ``f`` to ``width_tol``.

    Returns the final ``(lo, hi)`` with ``f(lo)`` and ``f(hi)`` of opposite
    (weak) sign, preserving the original orientation: the endpoint that
    started nonnegative stays nonnegative.  Callers pick whichever endpoint
    their feasibility convention needs.
    """
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")
    it = 0
    while hi - lo > width_tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        it += 1
    return lo, hi


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    width_tol: float = 1e-12,
) -> float:
    """Midpoint of the shrunken sign-change bracket."""
    a, b = bisect_bracket(f, lo, hi, f_lo, f_hi, width_tol)
    return 0.5 * (a + b)
