"""Bounded scalar optimization helpers: golden-section search and bisection.

The investment and effort objectives are not necessarily quasiconcave, so
the solvers never trust a single local search: they scan a dense grid
first, then refine the best bracket with golden-section.  This module owns
that refinement step (:func:`refine_max` and its grid-argmax form
:func:`refine_grid_max`), which both solvers use, and the bisection that
locates sign changes.

Every helper also takes arrays of brackets (and of candidates) and then
runs all of them in lockstep: at each step every bracket that still
searches asks for one point, and the objective is evaluated at all of
them at once.  Each search is written once, as a generator that yields the
points it needs and receives their values, so an element stops exactly
when its own bracket is narrow enough, at its own exact zero or after its
own ``max_iter`` steps, keeps its own candidates and tie rule, and ends
bit for bit where the one-bracket call ends.  A regime sweep refines all
its cells this way.

The objective is called with an array holding one point per bracket;
brackets that have stopped keep their last point there and their values
are dropped.  Given scalars, the helpers call the objective with one
float at a time and return what the scalar search returns.
"""

from __future__ import annotations

import math
from typing import Callable, Generator

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034

# A search: yields the next point to evaluate, receives its value there,
# and returns its result, a pair of numbers.
Search = Generator[float, float, tuple]


def _drive(f: Callable, search: Search) -> tuple:
    """Run one search on a scalar objective; its result as is."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def _lockstep(f: Callable, searches: list[Search], starts: list[float]):
    """Run ``searches`` together; the pairs they return, as two arrays.

    Each step evaluates ``f`` once at the points all live searches ask
    for, as described in the module docstring.  ``starts`` gives each
    search's point before its first request (a point of its bracket, so
    in the objective's domain).
    """
    found = np.empty((2, len(searches)))
    xs = list(starts)
    live = []
    for k, search in enumerate(searches):
        try:
            xs[k] = next(search)
            live.append(k)
        except StopIteration as stop:
            found[:, k] = stop.value
    while live:
        fx = np.asarray(f(np.array(xs)), dtype=float)
        if fx.shape != (len(xs),):  # an objective may return one number for all
            fx = np.broadcast_to(fx, (len(xs),))
        fx = fx.tolist()
        still = []
        for k in live:
            try:
                xs[k] = searches[k].send(fx[k])
                still.append(k)
            except StopIteration as stop:
                found[:, k] = stop.value
        live = still
    return found[0], found[1]


def _is_scalar(a) -> bool:
    if isinstance(a, (float, int)):  # np.ndim is slow on these, the scalar path's usual types
        return True
    return a.ndim == 0 if isinstance(a, np.ndarray) else np.ndim(a) == 0


def _lanes(*args):
    """Each argument as a list of its elements after broadcasting them all
    to one shape, and that shape; ``None`` for the shape when every
    argument was a scalar (then each list holds the argument itself)."""
    scalar = [_is_scalar(a) for a in args]
    if all(scalar):
        return [[a] for a in args], None
    arrays = [np.asarray(a) for a, s in zip(args, scalar) if not s]
    if len({a.shape for a in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape
    lanes = iter(a.ravel().tolist() for a in arrays)
    return [[a] * math.prod(shape) if s else next(lanes) for a, s in zip(args, scalar)], shape


def _run(f: Callable, searches: list[Search], starts: list[float], shape):
    """The searches' results: the one search's as is when ``shape`` is
    None, else two arrays of ``shape``."""
    if shape is None:
        return _drive(f, searches[0])
    x, y = _lockstep(f, searches, starts)
    return x.reshape(shape), y.reshape(shape)


def _golden_search(a: float, b: float, xtol: float, max_iter: int) -> Search:
    """Golden-section search of ``[a, b]`` for :func:`golden_section_max`."""
    if b < a:
        raise ValueError(f"empty bracket [{a}, {b}]")
    lo, hi = a, b
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    it = 0
    while hi - lo > xtol and it < max_iter:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = yield x1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = yield x2
        it += 1
    fa = yield a
    fb = yield b
    mid = 0.5 * (lo + hi)
    f_mid = yield mid
    return max_candidate([(a, fa), (b, fb), (x1, f1), (x2, f2), (mid, f_mid)])


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
    (a, b, cap), shape = _lanes(a, b, max_iter)
    searches = [_golden_search(lo, hi, xtol, n) for lo, hi, n in zip(a, b, cap)]
    return _run(f, searches, a, shape)


def _better(x, fx, best_x, best_f):
    """Whether ``(x, fx)`` beats ``(best_x, best_f)``: a larger value, ties
    toward the smaller ``x``; element by element on arrays."""
    return (fx > best_f) | ((fx == best_f) & (x < best_x))


def max_candidate(candidates: list[tuple[float, float]]) -> tuple[float, float]:
    """Pick the candidate with the largest value, ties toward smaller x."""
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        if _better(x, fx, best_x, best_f):
            best_x, best_f = x, fx
    return best_x, best_f


def _pick(best: tuple, candidate: tuple, where=True) -> tuple:
    """:func:`max_candidate` of ``[best, candidate]`` over arrays, element
    by element, kept to ``best`` where ``where`` is false."""
    better = _better(*candidate, *best) & where
    return np.where(better, candidate[0], best[0]), np.where(better, candidate[1], best[1])


def refine_max(f: Callable, candidates: list[tuple], lo, hi) -> tuple:
    """Best of ``candidates`` and, when ``hi > lo``, of a golden-section
    search of ``f`` on ``[lo, hi]``; ties go to the smaller ``x``.

    Given arrays (each candidate a pair of arrays), every element is
    refined on its own bracket, and the searches run in lockstep.
    """
    if _is_scalar(lo) and _is_scalar(hi):
        if hi > lo:
            candidates = candidates + [golden_section_max(f, lo, hi)]
        return max_candidate(candidates)
    best = candidates[0]
    for candidate in candidates[1:]:
        best = _pick(best, candidate)
    search = np.asarray(hi > lo)
    if not search.any():
        return best
    # an element without a bracket searches the point lo; its result is dropped
    return _pick(best, golden_section_max(f, lo, np.where(search, hi, lo)), search)


def refine_grid_max(f: Callable, xs, fs, i) -> tuple:
    """:func:`refine_max` of the grid point ``(xs[i], fs[i])`` inside its
    neighbour bracket ``[xs[i-1], xs[i+1]]``, clipped to the grid."""
    return refine_max(f, [(xs[i], fs[i])], xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])


def _bisection(lo, hi, f_lo, f_hi, width_tol: float, max_iter: int) -> Search:
    """Bisection of one sign-change bracket for :func:`bisect_bracket`."""
    f_lo = (yield lo) if f_lo is None else f_lo
    f_hi = (yield hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")
    it = 0
    while hi - lo > width_tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        f_mid = yield mid
        if f_mid == 0.0:
            return mid, mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        it += 1
    return lo, hi


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
    their feasibility convention needs.  Given arrays of brackets (and of
    their end values and ``max_iter``), returns arrays.
    """
    given = [x for x in (f_lo, f_hi) if x is not None]
    (lo, hi, cap, *ends), shape = _lanes(lo, hi, max_iter, *given)
    ends = iter(ends)
    f_lo = [None] * len(lo) if f_lo is None else next(ends)
    f_hi = [None] * len(lo) if f_hi is None else next(ends)
    searches = [_bisection(*lane, width_tol, n) for *lane, n in zip(lo, hi, f_lo, f_hi, cap)]
    return _run(f, searches, lo, shape)


def bisect_root(
    f: Callable,
    lo,
    hi,
    f_lo=None,
    f_hi=None,
    width_tol: float = 1e-12,
):
    """Midpoint of the shrunken sign-change bracket."""
    a, b = bisect_bracket(f, lo, hi, f_lo, f_hi, width_tol)
    return 0.5 * (a + b)
