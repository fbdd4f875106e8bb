"""Bounded scalar optimization helpers: golden-section search and bisection.

The investment and effort objectives are not necessarily quasiconcave, so
the solvers never trust a single local search: they scan a dense grid
first, then refine the best bracket with golden-section.  This module owns
that refinement step (:func:`refine_max` and its grid-argmax form
:func:`refine_grid_max`), which both solvers use, and the bisection that
locates sign changes.

Each search is written once, as a loop over its state: the bracket, the
interior points with their values, an iteration count and a live mask.
For one bracket the state is Python floats and bools; for an array of
brackets it is arrays, and every step evaluates the objective once, at
one point per bracket.  Each step picks every element's update with a
two-way select (:func:`_select`: ``a if c else b`` on a scalar condition,
``np.where`` on an array), so an element does exactly the arithmetic of
the one-bracket search and ends bit for bit where that search ends: when
its own bracket is narrow enough, at its own exact zero or after its own
``max_iter`` steps, with its own candidates and tie rule.  A stopped
element keeps its state; at the steps left, the objective sees it at a
point of its own search again (``x1`` in golden-section, ``lo`` in
bisection) and its value there is dropped.  A regime sweep refines all
its cells this way.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034

# Array state is exactly this type.  The per-step checks compare types,
# which on the one-bracket path's scalars is cheaper than ``isinstance``.
_ARRAY = np.ndarray


def _select(c, a, b):
    """``a if c else b``; element by element (on each field when ``a`` and
    ``b`` are tuples) when ``c`` is an array."""
    if type(c) is not _ARRAY:
        return a if c else b
    if isinstance(a, tuple):
        return tuple(np.where(c, x, y) for x, y in zip(a, b))
    return np.where(c, a, b)


def _step(live, c, a, b, kept):
    """One step's update of a search state: :func:`_select` of ``c``,
    ``a`` and ``b`` where ``live`` holds and ``kept`` elsewhere.  A scalar
    search only steps while it is live, so there it is ``a if c else b``."""
    if type(c) is not _ARRAY:
        return a if c else b
    return _select(live, _select(c, a, b), kept)


def _any(c) -> bool:
    return c.any() if type(c) is _ARRAY else c


def _start(f: Callable, *args):
    """The arguments as the state of one search, and ``f`` as its objective.

    When every argument is a scalar they become Python floats (the last,
    ``max_iter``, an int), so that the search's bracket arithmetic and its
    live mask stay on Python types; the objective is ``f`` itself.
    Otherwise they become float arrays of their broadcast shape, and the
    objective returns an array of that shape (``f`` may return one number
    for all).
    """
    *ends, cap = args
    # np.ndim is slow on floats and ints, the one-bracket path's usual types
    if all(isinstance(a, (float, int)) or np.ndim(a) == 0 for a in args):
        return f, *map(float, ends), int(cap)
    arrays = [np.array(a, dtype=float) for a in np.broadcast_arrays(*args)]
    shape = arrays[0].shape
    return (lambda x: np.broadcast_to(np.asarray(f(x), dtype=float), shape)), *arrays


def _raise_at(bad, message: str, *values):
    """Raise ``ValueError(message.format(...))`` with ``values`` at the first
    element where ``bad`` holds, if any does."""
    if not _any(bad):
        return
    if type(bad) is _ARRAY:
        k = int(np.argmax(bad))
        values = [np.ravel(v)[k].item() for v in values]
    raise ValueError(message.format(*values))


def golden_section_max(
    f: Callable,
    a,
    b,
    xtol: float = 1e-10,
    max_iter=200,
) -> tuple:
    """Maximize a unimodal ``f`` on ``[a, b]``; returns ``(x, f(x))``.

    Endpoints are evaluated too, so a boundary maximum is returned exactly.
    Given arrays of bracket ends (and of ``max_iter``), returns arrays.
    """
    f, a, b, cap = _start(f, a, b, max_iter)
    _raise_at(b < a, "empty bracket [{}, {}]", a, b)
    lo, hi = a, b
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    it = 0
    live = (hi - lo > xtol) & (it < cap)
    while _any(live):
        # keep [lo, x2] when f1 >= f2 (x1 moves to x2, the probe x is the
        # new x1), else [x1, hi] (x2 moves to x1, x is the new x2).  A
        # stopped element keeps its state and evaluates x1 again.
        left = f1 >= f2
        x = _step(live, left, x2 - INV_PHI * (x2 - lo), x1 + INV_PHI * (hi - x1), x1)
        fx = f(x)
        lo, hi, x1, f1, x2, f2 = _step(
            live, left, (lo, x2, x, fx, x1, f1), (x1, hi, x2, f2, x, fx), (lo, hi, x1, f1, x2, f2)
        )
        it = it + live
        live = (hi - lo > xtol) & (it < cap)
    mid = 0.5 * (lo + hi)
    return max_candidate([(a, f(a)), (b, f(b)), (x1, f1), (x2, f2), (mid, f(mid))])


def _better(x, fx, best_x, best_f):
    """Whether ``(x, fx)`` beats ``(best_x, best_f)``: a larger value, ties
    toward the smaller ``x``; element by element on arrays."""
    return (fx > best_f) | ((fx == best_f) & (x < best_x))


def max_candidate(candidates: list[tuple]) -> tuple:
    """Pick the candidate with the largest value, ties toward smaller x;
    element by element when the candidates are pairs of arrays."""
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        best_x, best_f = _select(_better(x, fx, best_x, best_f), (x, fx), (best_x, best_f))
    return best_x, best_f


def refine_max(f: Callable, candidates: list[tuple], lo, hi) -> tuple:
    """Best of ``candidates`` and, when ``hi > lo``, of a golden-section
    search of ``f`` on ``[lo, hi]``; ties go to the smaller ``x``.

    Given arrays (each candidate a pair of arrays), every element is
    refined on its own bracket, and the searches run together.
    """
    best = max_candidate(candidates)
    search = hi > lo
    if not _any(search):
        return best
    # an element without a bracket searches the point lo; its result is dropped
    found = golden_section_max(f, lo, _select(search, hi, lo))
    return _select(search & _better(*found, *best), found, best)


def refine_grid_max(f: Callable, xs, fs, i) -> tuple:
    """:func:`refine_max` of the grid point ``(xs[i], fs[i])`` inside its
    neighbour bracket ``[xs[i-1], xs[i+1]]``, clipped to the grid."""
    return refine_max(f, [(xs[i], fs[i])], xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])


def bisect_bracket(
    f: Callable,
    lo,
    hi,
    f_lo=None,
    f_hi=None,
    width_tol: float = 1e-12,
    max_iter=200,
) -> tuple:
    """Shrink a sign-change bracket of ``f`` to ``width_tol``.

    Returns the final ``(lo, hi)`` with ``f(lo)`` and ``f(hi)`` of opposite
    (weak) sign, preserving the original orientation: the endpoint that
    started nonnegative stays nonnegative.  Callers pick whichever endpoint
    their feasibility convention needs.  An exact zero at an end or at a
    midpoint closes the bracket there.  Given arrays of brackets (and of
    their end values and ``max_iter``), returns arrays.
    """
    given = [x for x in (f_lo, f_hi) if x is not None]
    f, lo, hi, *given, cap = _start(f, lo, hi, *given, max_iter)
    given = iter(given)
    f_lo = f(lo) if f_lo is None else next(given)
    f_hi = f(hi) if f_hi is None else next(given)
    _raise_at(
        (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) == (f_hi > 0.0)),
        "no sign change on [{}, {}]: f={}, {}", lo, hi, f_lo, f_hi,
    )
    # an exact zero, at an end here or at a midpoint below, closes the
    # bracket on its point, and the zero width stops the search
    lo, hi = _select(f_lo == 0.0, (lo, lo), _select(f_hi == 0.0, (hi, hi), (lo, hi)))
    positive = f_lo > 0.0  # the sign kept at lo: lo only moves to points of that sign
    it = 0
    live = (hi - lo > width_tol) & (it < cap)
    while _any(live):
        mid = 0.5 * (lo + hi)
        f_mid = f(_select(live, mid, lo))  # a stopped element evaluates lo again
        lo, hi = _step(
            live, f_mid == 0.0, (mid, mid), _select((f_mid > 0.0) == positive, (mid, hi), (lo, mid)), (lo, hi)
        )
        it = it + live
        live = (hi - lo > width_tol) & (it < cap)
    return lo, hi
