import twinvest.model
from twinvest.sampling import random_models


def test_one_grid_evaluation_per_drawn_candidate(count_calls):
    calls = count_calls(twinvest.model.evaluate_grid, twinvest.model.validate)

    random_models(20, seed=12345)
    # every drawn candidate is validated once
    assert calls.count("validate") >= 20
    assert calls.count("evaluate_grid") == calls.count("validate")
