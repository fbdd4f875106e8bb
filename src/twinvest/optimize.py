"""Bounded scalar optimization helpers: golden-section search and bisection.

The investment and effort objectives are not necessarily quasiconcave, so
the solvers never trust a single local search: they scan a dense grid
first, then refine the best bracket with golden-section.  This module owns
that refinement step, :func:`refine_max`: the better of a seed point (the
grid argmax) and a golden-section search of its bracket.  Both solvers use
it.  It also owns the bisection that locates sign changes.

The searches' settings are fixed: the module constants :data:`XTOL`,
:data:`WIDTH_TOL` and :data:`MAX_ITER`, read at each call.

Each search is written once, as a step of its state: the bracket, the
interior points with their values (a bisection: the sign kept at ``lo``).
For one bracket the state is Python floats and bools, stepped until the
bracket is narrow enough or :data:`MAX_ITER` steps are done.  For an
array of brackets it is arrays, and each step evaluates the objective
once, at one point per live bracket.  A step picks every element's update
with a two-way select (:func:`_select`: ``a if c else b`` on a scalar
condition, ``np.where`` on an array), so an element does exactly the
arithmetic of the one-bracket search and ends bit for bit where that
search ends: when its own bracket is narrow enough, at its own exact zero
or after :data:`MAX_ITER` steps, with its own candidates and tie rule.
Only live brackets are stepped: an element that stops has its state
written back and leaves the step arrays, and the objective is narrowed to
the elements left when it offers ``f.narrow(idx)``, the objective of the
elements ``idx`` (flat indices) alone.  Without it, the objective is
still called at the whole shape, with each stopped element at its own
``lo``, and the live elements' values are read from that.  A regime sweep
refines all its cells this way.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034

XTOL = 1e-10  # golden-section stops once its bracket is at most this wide
WIDTH_TOL = 1e-12  # bisection stops once its bracket is at most this wide
MAX_ITER = 200  # either search stops after this many steps

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


def _start(f: Callable, *args):
    """The arguments (bracket ends, and values there) as a search's state,
    and ``f`` as its objective: Python floats and ``f`` itself when every
    argument is a scalar, so that the bracket arithmetic stays on Python
    types; else float arrays of their broadcast shape, and ``f`` on that
    whole shape, returning an array of it (``f`` may return one number for
    all)."""
    # np.ndim is slow on floats and ints, the one-bracket path's usual types
    if all(isinstance(a, (float, int)) or np.ndim(a) == 0 for a in args):
        return f, *map(float, args)
    arrays = [np.array(a, dtype=float) for a in np.broadcast_arrays(*args)]
    shape = arrays[0].shape
    return (lambda x: np.broadcast_to(np.asarray(f(x), dtype=float), shape)), *arrays


def _raise_at(bad, message: str, *values):
    """Raise ``ValueError(message.format(...))`` with ``values`` at the first
    element where ``bad`` holds, if any does."""
    if type(bad) is _ARRAY:
        if not bad.any():
            return
        k = int(np.argmax(bad))
        values = [np.ravel(v)[k].item() for v in values]
    elif not bad:
        return
    raise ValueError(message.format(*values))


def _at(f: Callable, idx: np.ndarray, shape: tuple, fill: np.ndarray) -> Callable:
    """``f`` at the elements ``idx`` (flat indices) of an array search
    alone, as a function of their points: ``f.narrow(idx)`` when ``f``
    offers it; else ``f`` on the whole ``shape``, every other element at
    its point in ``fill`` (flat)."""
    narrow = getattr(f, "narrow", None)
    if narrow is not None:
        return narrow(idx)

    def at(x):
        whole = fill.copy()
        whole[idx] = x
        return np.broadcast_to(np.asarray(f(whole.reshape(shape)), dtype=float), shape).reshape(-1)[idx]

    return at


def _run(f: Callable, step: Callable, tol: float, state: tuple) -> tuple:
    """A search's ``state`` after stepping each element (``step(f, state)``
    is one step) until its bracket ``state[0]``..``state[1]`` is at most
    ``tol`` wide, or for :data:`MAX_ITER` steps.

    Array state is stepped on its live elements only.  The elements that
    stop at a step have their state written back, and the rest go on with
    ``f`` narrowed to them (:func:`_at`).  Every live element has taken
    the same number of steps, so the step cap stops all of them at once.
    """
    if type(state[0]) is not _ARRAY:
        for _ in range(MAX_ITER):
            if not state[1] - state[0] > tol:
                break
            state = step(f, state)
        return state
    shape = state[0].shape
    state = [np.array(s).reshape(-1) for s in state]  # copies, written back in place
    idx = np.flatnonzero(state[1] - state[0] > tol)
    live, at, steps = [s[idx] for s in state], None, 0
    while len(idx) and steps < MAX_ITER:
        if at is None:
            at = _at(f, idx, shape, state[0])
        live = step(at, live)
        steps += 1
        stopped = ~(live[1] - live[0] > tol)
        if stopped.any():
            for s, x in zip(state, live):
                s[idx[stopped]] = x[stopped]
            going = ~stopped
            idx, live, at = idx[going], [x[going] for x in live], None
    for s, x in zip(state, live):
        s[idx] = x
    return tuple(s.reshape(shape) for s in state)


def _golden_step(f: Callable, state: tuple) -> tuple:
    """Keep ``[lo, x2]`` when ``f1 >= f2`` (``x1`` moves to ``x2``, and the
    probe is the new ``x1``), else ``[x1, hi]`` (``x2`` moves to ``x1``,
    and the probe is the new ``x2``)."""
    lo, hi, x1, f1, x2, f2 = state
    left = f1 >= f2
    x = _select(left, x2 - INV_PHI * (x2 - lo), x1 + INV_PHI * (hi - x1))
    fx = f(x)
    return _select(left, (lo, x2, x, fx, x1, f1), (x1, hi, x2, f2, x, fx))


def golden_section_max(f: Callable, a, b) -> tuple:
    """Maximize a unimodal ``f`` on ``[a, b]``; returns ``(x, f(x))``.

    Endpoints are evaluated too, so a boundary maximum is returned exactly.
    Given arrays of bracket ends, returns arrays.
    """
    whole, a, b = _start(f, a, b)
    _raise_at(b < a, "empty bracket [{}, {}]", a, b)
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    lo, hi, x1, f1, x2, f2 = _run(f, _golden_step, XTOL, (a, b, x1, whole(x1), x2, whole(x2)))
    mid = 0.5 * (lo + hi)
    return max_candidate([(a, whole(a)), (b, whole(b)), (x1, f1), (x2, f2), (mid, whole(mid))])


def max_candidate(candidates: list[tuple]) -> tuple:
    """Pick the candidate with the largest value, ties toward smaller x;
    element by element when the candidates are pairs of arrays."""
    best_x, best_f = candidates[0]
    for x, fx in candidates[1:]:
        better = (fx > best_f) | ((fx == best_f) & (x < best_x))
        best_x, best_f = _select(better, (x, fx), (best_x, best_f))
    return best_x, best_f


def refine_max(f: Callable, lo, hi, x, fx) -> tuple:
    """Best of the candidate ``(x, fx)`` and a golden-section search of
    ``f`` on ``[lo, hi]``; ties go to the smaller ``x``.

    Given arrays, every element is refined on its own bracket, and the
    searches run together.  An empty bracket (``lo == hi``) searches the
    point ``lo`` alone.
    """
    return max_candidate([(x, fx), golden_section_max(f, lo, hi)])


def bisect_bracket(f: Callable, lo, hi, f_lo, f_hi) -> tuple:
    """Shrink a sign-change bracket of ``f`` to :data:`WIDTH_TOL`, given
    the values ``f_lo`` and ``f_hi`` of ``f`` at its ends.

    Returns the final ``(lo, hi)`` with ``f(lo)`` and ``f(hi)`` of opposite
    (weak) sign, preserving the original orientation: the endpoint that
    started nonnegative stays nonnegative.  Callers pick whichever endpoint
    their feasibility convention needs.  An exact zero at an end or at a
    midpoint closes the bracket there.  Given arrays of brackets and of
    their end values, returns arrays.
    """
    _, lo, hi, f_lo, f_hi = _start(f, lo, hi, f_lo, f_hi)
    _raise_at(
        (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) == (f_hi > 0.0)),
        "no sign change on [{}, {}]: f={}, {}", lo, hi, f_lo, f_hi,
    )
    # an exact zero, at an end here or at a midpoint in a step, closes the
    # bracket on its point, and the zero width stops the search
    lo, hi = _select(f_lo == 0.0, (lo, lo), _select(f_hi == 0.0, (hi, hi), (lo, hi)))
    # the sign kept at lo: lo only moves to points of that sign
    lo, hi, _ = _run(f, _bisect_step, WIDTH_TOL, (lo, hi, f_lo > 0.0))
    return lo, hi


def _bisect_step(f: Callable, state: tuple) -> tuple:
    """Halve the bracket: the midpoint replaces the end of its sign (``lo``
    keeps the sign ``positive`` says), and an exact zero closes it there."""
    lo, hi, positive = state
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    lo, hi = _select(f_mid == 0.0, (mid, mid), _select((f_mid > 0.0) == positive, (mid, hi), (lo, mid)))
    return lo, hi, positive
