"""Every 4-node cluster graph, where the default run takes one in 16 (see
``test_hedges.py``).  It takes about 40 s on a 2-vCPU host, so pytest
collects it only when named: ``python -m pytest tests/sweep_theorem.py``."""

from test_hedges import assert_cluster_verdicts_hold_on_expansions


def test_cluster_verdicts_hold_on_expansions_of_every_four_node_admg():
    assert_cluster_verdicts_hold_on_expansions(range(4096), 142827, 61973)
