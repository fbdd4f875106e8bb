import sys

import twinvest.model
from twinvest.sampling import random_models


def test_one_grid_evaluation_per_drawn_candidate(monkeypatch):
    counts = {"evaluate_grid": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the modules import each other with ``from ... import``, so replace
    # every binding of the two functions
    for name in counts:
        original = getattr(twinvest.model, name)
        wrapper = counting(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "twinvest" or mod_name.startswith("twinvest."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)

    random_models(20, seed=12345)
    # every drawn candidate is validated once
    assert counts["validate"] >= 20
    assert counts["evaluate_grid"] == counts["validate"]
