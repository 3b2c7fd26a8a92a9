"""Every 4-node ADMG, where the default run takes one in 16 (see
``test_hedges.py``).  It takes about 20 s on a 2-vCPU host, so pytest
collects it only when named: ``python -m pytest tests/sweep_hedges.py``."""

from test_hedges import assert_identify_agrees_with_hedge_search


def test_identify_agrees_with_hedge_search_on_every_four_node_admg():
    assert_identify_agrees_with_hedge_search(
        range(4096), 61973, "a1a6fd4ff49b1d041dd9c87ee74480bc0044ba2461c9e32517606ee7fce1b6c1")
