"""Every 4-node ADMG, where the default run takes one in 16 (see
``test_separation.py``).  It takes about 7 s on a 2-vCPU host, so pytest
collects it only when named: ``python -m pytest tests/sweep_separation.py``."""

from test_separation import assert_m_separated_agrees_with_path_search


def test_m_separated_agrees_with_path_search_on_every_four_node_admg():
    assert_m_separated_agrees_with_path_search(range(4096), 26128)
