import math

import numpy as np
import pytest

from twinvest.optimize import (
    bisect_bracket,
    golden_section_max,
    max_candidate,
    refine_grid_max,
    refine_max,
)


class TestGoldenSection:
    def test_interior_parabola(self):
        x, fx = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, xtol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_boundary_maximum_returned_exactly(self):
        x, fx = golden_section_max(lambda x: x, 0.0, 1.0)
        assert x == 1.0
        assert fx == 1.0

    def test_left_boundary(self):
        x, _ = golden_section_max(lambda x: -x, 0.25, 2.0)
        assert x == 0.25

    def test_degenerate_bracket(self):
        x, fx = golden_section_max(math.sin, 0.5, 0.5)
        assert x == 0.5
        assert fx == math.sin(0.5)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError, match="empty bracket"):
            golden_section_max(math.sin, 1.0, 0.0)
        # an array call names the first empty bracket, by its own ends
        with pytest.raises(ValueError, match=r"^empty bracket \[1\.0, 0\.0\]$"):
            golden_section_max(np.sin, np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 1.0]))


class TestBisection:
    def test_orientation_preserved(self):
        f = lambda x: 0.5 - x  # positive at lo, negative at hi
        lo, hi = bisect_bracket(f, 0.0, 1.0, width_tol=1e-12)
        assert f(lo) >= 0.0 >= f(hi)
        assert hi - lo <= 1e-12

    def test_exact_zero_endpoint(self):
        lo, hi = bisect_bracket(lambda x: x - 1.0, 0.0, 1.0)
        assert lo == hi == 1.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_bracket(lambda x: 1.0 + x, 0.0, 1.0)
        # an array call names the first bracket without one, by its own ends and values
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match=r"^no sign change on \[0\.0, 1\.0\]: f=0\.5, 1\.5$"):
            bisect_bracket(lambda x: x + 0.5, lo, hi)
        with pytest.raises(ValueError, match=r"^no sign change on \[0\.0, 1\.0\]: f=0\.5, 1\.5$"):
            bisect_bracket(lambda x: x + 0.5, lo, hi, lo + 0.5, hi + 0.5)


def test_max_candidate_ties_toward_smaller_x():
    assert max_candidate([(0.7, 1.0), (0.2, 1.0), (0.5, 0.5)]) == (0.2, 1.0)


def recording(f):
    """``f`` plus the list of points it was called at."""
    seen = []

    def wrapper(x):
        seen.append(x)
        return f(x)

    return wrapper, seen


class TestRefinement:
    def test_argmax_at_first_index_clips_bracket(self):
        xs = [0.0, 0.5, 1.0]
        f, seen = recording(lambda x: -x)
        x, _ = refine_grid_max(f, xs, [-x for x in xs], 0)
        assert x == 0.0
        assert seen and all(0.0 <= s <= 0.5 for s in seen)

    def test_argmax_at_last_index_clips_bracket(self):
        xs = [0.0, 0.5, 1.0]
        f, seen = recording(lambda x: x)
        assert refine_grid_max(f, xs, xs, 2) == (1.0, 1.0)
        assert seen and all(0.5 <= s <= 1.0 for s in seen)

    def test_two_point_grid_searches_between_the_points(self):
        f = lambda x: -((x - 0.3) ** 2)
        xs = [0.0, 1.0]
        x, fx = refine_grid_max(f, xs, [f(x) for x in xs], 0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_empty_bracket_returns_best_candidate_without_calling_f(self):
        f, seen = recording(math.sin)
        candidates = [(0.4, 0.5), (0.7, 1.0), (0.2, 1.0)]
        assert refine_max(f, candidates, 0.3, 0.3) == (0.2, 1.0)
        assert refine_grid_max(f, [0.6], [2.0], 0) == (0.6, 2.0)
        assert seen == []

    def test_tie_with_search_result_goes_to_smaller_x(self):
        flat = lambda x: 1.0
        # the search on a flat objective returns its left end, 0.2
        assert refine_max(flat, [(0.5, 1.0)], 0.2, 0.8) == (0.2, 1.0)
        assert refine_max(flat, [(0.1, 1.0)], 0.2, 0.8) == (0.1, 1.0)


# ---------------------------------------------------------------------------
# Lockstep: arrays of brackets against one-bracket calls
# ---------------------------------------------------------------------------


def _parabola(c):
    """``-(x - c)^2`` for a number or an array of centres (only + - * so
    numpy and float arithmetic round alike)."""
    def f(x):
        d = x - c
        return -(d * d)

    return f


def _two_peaks(c, tilt):
    """``-((x - c)(x - c - 0.5))^2 + tilt*x``: two maxima near ``c`` and
    ``c + 0.5``, the taller one set by the sign of ``tilt``."""
    def f(x):
        p = (x - c) * (x - c - 0.5)
        return tilt * x - p * p

    return f


@pytest.fixture
def brackets():
    """Bracket ends with unimodal and two-peak centres, empty brackets
    (``hi == lo``) among them, and per-bracket step caps."""
    rng = np.random.default_rng(20260)
    n = 240
    lo = rng.uniform(-1.0, 1.0, n)
    width = rng.choice([0.0, 1e-11, 1e-3, 0.3, 2.0], n)
    hi = lo + width
    c = lo + rng.uniform(-0.2, 1.2, n) * np.maximum(width, 0.1)
    tilt = rng.choice([-0.05, 0.0, 0.05], n)
    cap = rng.choice([0, 1, 3, 17, 200], n)
    return lo, hi, c, tilt, cap


class TestLockstep:
    """Each element of an array call equals the one-bracket call, x and f."""

    @pytest.mark.parametrize("shape", ["parabola", "two_peaks"])
    def test_golden_elements_equal_scalar_calls(self, brackets, shape):
        lo, hi, c, tilt, _ = brackets
        objective = (lambda c, t: _parabola(c)) if shape == "parabola" else _two_peaks
        xs, fs = golden_section_max(objective(c, tilt), lo, hi)
        for k in range(len(lo)):
            expected = golden_section_max(objective(c[k], tilt[k]), lo[k], hi[k])
            assert (xs[k], fs[k]) == expected, k

    def test_per_element_step_cap(self, brackets):
        lo, hi, c, tilt, cap = brackets
        xs, fs = golden_section_max(_two_peaks(c, tilt), lo, hi, max_iter=cap)
        for k in range(len(lo)):
            expected = golden_section_max(_two_peaks(c[k], tilt[k]), lo[k], hi[k], max_iter=int(cap[k]))
            assert (xs[k], fs[k]) == expected, k
        # a cap of 0 stops every search at once, so it only sees its first points
        capped = cap == 0
        assert not np.array_equal(xs[capped], golden_section_max(_two_peaks(c, tilt), lo, hi)[0][capped])

    def test_objective_may_return_one_number_for_all(self, brackets):
        lo, hi, *_ = brackets
        flat = lambda x: 0.5  # noqa: E731 - the same value at every bracket's point
        xs, fs = golden_section_max(flat, lo, hi)
        for k in range(len(lo)):
            assert (xs[k], fs[k]) == golden_section_max(flat, lo[k], hi[k]), k

    def test_exact_ties_go_to_the_smaller_x(self):
        # a flat objective ties every candidate; a symmetric one ties the two ends
        lo = np.array([0.2, -1.0, 3.0])
        hi = np.array([0.8, 1.0, 3.0])
        xs, fs = golden_section_max(lambda x: 1.0, lo, hi)
        assert xs.tolist() == lo.tolist() and fs.tolist() == [1.0] * 3
        xs, _ = golden_section_max(lambda x: x * x, lo, hi)
        assert xs.tolist() == [0.8, -1.0, 3.0]
        for k in range(3):
            assert xs[k] == golden_section_max(lambda x: x * x, lo[k], hi[k])[0]

    def test_refine_max_elements_equal_scalar_calls(self, brackets):
        lo, hi, c, tilt, _ = brackets
        f = _two_peaks(c, tilt)
        # candidates at both ends and one outside the bracket
        cand = [(lo, f(lo)), (hi, f(hi)), (lo - 0.5, f(lo - 0.5))]
        xs, fs = refine_max(f, cand, lo, hi)
        for k in range(len(lo)):
            g = _two_peaks(c[k], tilt[k])
            expected = refine_max(g, [(float(x[k]), float(y[k])) for x, y in cand], lo[k], hi[k])
            assert (xs[k], fs[k]) == expected, k

    def test_refine_max_skips_empty_brackets(self):
        seen = []

        def f(x):
            seen.append(np.array(x))
            return -x

        xs, fs = refine_max(f, [(np.array([0.5, 0.1]), np.array([2.0, 3.0]))], np.array([0.3, 0.3]), np.array([0.3, 0.3]))
        assert (xs.tolist(), fs.tolist(), seen) == ([0.5, 0.1], [2.0, 3.0], [])

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    def test_bisection_elements_equal_scalar_calls(self, orientation):
        rng = np.random.default_rng(7)
        n = 200
        lo = rng.uniform(-1.0, 0.0, n)
        hi = lo + rng.choice([1e-13, 1e-6, 0.5, 1.5], n)
        hi[:20] = lo[:20] + 0.5
        root = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
        root[:20] = 0.5 * (lo[:20] + hi[:20])  # the first midpoint is exactly a root
        root[20:25] = lo[20:25]  # f is exactly 0 at lo
        root[25:30] = hi[25:30]  # f is exactly 0 at hi
        cap = rng.choice([0, 2, 200], n)
        cap[:20] = 200

        def f(x):
            return orientation * (root - x)

        out = bisect_bracket(f, lo, hi, max_iter=cap)
        given = bisect_bracket(f, lo, hi, f(lo), f(hi), max_iter=cap)
        for k in range(n):
            g = lambda x, r=root[k]: orientation * (r - x)  # noqa: E731
            expected = bisect_bracket(g, lo[k], hi[k], max_iter=int(cap[k]))
            assert (out[0][k], out[1][k]) == expected, k
            assert (given[0][k], given[1][k]) == expected, k
        # an exact zero at the first midpoint ends the search there
        assert np.array_equal(out[0][:20], out[1][:20])
        assert np.array_equal(out[0][:20], root[:20])

    def test_bisection_orientation_kept_per_element(self):
        lo, hi = np.zeros(2), np.ones(2)
        sign = np.array([1.0, -1.0])
        f = lambda x: sign * (0.3 - x)  # noqa: E731
        a, b = bisect_bracket(f, lo, hi)
        assert f(a)[0] >= 0.0 >= f(b)[0]
        assert f(a)[1] <= 0.0 <= f(b)[1]
        assert np.all(b - a <= 1e-12)

    def test_bisection_rejects_any_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_bracket(lambda x: x + 0.5, np.array([-1.0, 0.0]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Reference: the plain one-bracket algorithms, written as while loops
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def reference_golden(f, a, b, xtol=1e-10, max_iter=200):
    """Golden-section search of one bracket; the best of the ends, the
    last interior points and the final midpoint, ties to the smaller x."""
    lo, hi = a, b
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    it = 0
    while hi - lo > xtol and it < max_iter:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        it += 1
    fa = f(a)
    fb = f(b)
    mid = 0.5 * (lo + hi)
    best_x, best_f = a, fa
    for x, fx in [(b, fb), (x1, f1), (x2, f2), (mid, f(mid))]:
        if fx > best_f or (fx == best_f and x < best_x):
            best_x, best_f = x, fx
    return best_x, best_f


def reference_bisection(f, lo, hi, width_tol=1e-12, max_iter=200):
    """Bisection of one sign-change bracket, keeping each end's sign."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    assert (f_lo > 0.0) != (f_hi > 0.0)
    it = 0
    while hi - lo > width_tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        it += 1
    return lo, hi


class TestAgainstReference:
    """Scalar and array calls both equal the plain while loops, x and f."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_golden(self, brackets, capped):
        lo, hi, c, tilt, cap = brackets
        caps = cap if capped else np.full(len(lo), 200)
        xs, fs = golden_section_max(_two_peaks(c, tilt), lo, hi, max_iter=caps)
        for k in range(len(lo)):
            f = _two_peaks(float(c[k]), float(tilt[k]))
            expected = reference_golden(f, float(lo[k]), float(hi[k]), max_iter=int(caps[k]))
            assert golden_section_max(f, lo[k], hi[k], max_iter=int(caps[k])) == expected, k
            assert (xs[k], fs[k]) == expected, k

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    def test_bisection(self, brackets, capped, orientation):
        lo, hi, c, _, cap = brackets
        caps = cap if capped else np.full(len(lo), 200)
        # roots clipped into each bracket, so some sit exactly on an end
        root = np.clip(c, lo, hi)

        def margin(r):
            return lambda x: orientation * (r - x) * (2.0 + x)

        out = bisect_bracket(margin(root), lo, hi, max_iter=caps)
        for k in range(len(lo)):
            f = margin(float(root[k]))
            expected = reference_bisection(f, float(lo[k]), float(hi[k]), max_iter=int(caps[k]))
            assert bisect_bracket(f, lo[k], hi[k], max_iter=int(caps[k])) == expected, k
            assert (out[0][k], out[1][k]) == expected, k
