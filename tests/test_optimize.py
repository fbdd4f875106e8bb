import math

import pytest

from twinvest.optimize import (
    bisect_bracket,
    bisect_root,
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


class TestBisection:
    def test_finds_root(self):
        root = bisect_root(lambda x: x - 0.25, 0.0, 1.0)
        assert root == pytest.approx(0.25, abs=1e-12)

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
