import sys

import cdag


def test_public_names_resolve():
    assert len(set(cdag.__all__)) == len(cdag.__all__)
    for name in cdag.__all__:
        assert hasattr(cdag, name), name
    namespace = {}
    exec("from cdag import *", namespace)
    assert set(cdag.__all__) <= set(namespace)


def test_every_import_site_of_a_checked_function_is_checked():
    # conftest wraps ``expand``, ``identify`` and ``random_cbn`` in checks of
    # their output; each loaded cdag module that holds one of them by name
    # must hold the wrapper, as ``cdag.identify`` does for the hedge witness
    sites = set()
    for name, module in sys.modules.items():
        if name != "cdag" and not name.startswith("cdag."):
            continue
        for attr in ("expand", "identify", "random_cbn"):
            f = getattr(module, attr, None)
            if callable(f):
                assert hasattr(f, "__wrapped__"), f"{name}.{attr} is not checked"
                sites.add(f"{name}.{attr}")
    assert sites >= {"cdag.expand", "cdag.identify", "cdag.random_cbn", "cdag.cli.expand",
                     "cdag.cli.identify", "cdag.cli.random_cbn", "cdag.sampler.expand",
                     "cdag.identify.expand", "cdag.identify.identify", "cdag.oracle.random_cbn"}
