import types

import twinvest


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from twinvest import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(twinvest.__all__)
    assert len(twinvest.__all__) == len(set(twinvest.__all__))
    for name in twinvest.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(twinvest, name), types.ModuleType)
