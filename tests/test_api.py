import cdag


def test_public_names_resolve():
    assert len(set(cdag.__all__)) == len(cdag.__all__)
    for name in cdag.__all__:
        assert hasattr(cdag, name), name
    namespace = {}
    exec("from cdag import *", namespace)
    assert set(cdag.__all__) <= set(namespace)
