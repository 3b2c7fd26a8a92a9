"""Shared graphs used across the test suite.

The fixtures cover the canonical identification benchmarks: backdoor and
front-door adjustment, confounded clusters where the effect is lost, the
bow graph, and split treatment/outcome clusterings.
"""

import functools
import sys

import pytest

import cdag
import cdag.cli
import cdag.oracle
import cdag.sampler
from cdag import Admg, ClusterDag, NonIdentified, Partition, build_cdag, is_compatible

from oracles import check_hedge, model_table_error


def _install(original, wrapper):
    # Every loaded cdag module that holds ``original`` under its name, the
    # package included, holds ``wrapper`` instead, before any test module
    # imports it: a module that imports the function by name is covered
    # with no list to keep.  ``cdag.identify`` is the function in the
    # package and the module in ``sys.modules``, so the test is identity.
    for name, module in list(sys.modules.items()):
        if (name == "cdag" or name.startswith("cdag.")) \
                and getattr(module, original.__name__, None) is original:
            setattr(module, original.__name__, wrapper)


# ``expand`` builds compatible graphs by construction and does not check
# its own output.  Under test every expansion is checked, whether it comes
# from a test, ``sample_batch``, the CLI or the hedge witness.
_expand = cdag.sampler.expand


@functools.wraps(_expand)
def _checked_expand(c, spec):
    graph, partition = _expand(c, spec)
    assert is_compatible(graph, c, partition), f"expansion of {c.graph.nodes} is not compatible"
    return graph, partition


_install(_expand, _checked_expand)


# Nor does ``identify`` check the hedges it returns: under test each one is
# checked against the definition.
_identify = sys.modules["cdag.identify"].identify


@functools.wraps(_identify)
def _checked_identify(c, x, y):
    x, y = list(x), list(y)    # each is read twice
    result = _identify(c, x, y)
    if isinstance(result, NonIdentified):
        check_hedge(c, result.hedge, x, y)
    return result


_install(_identify, _checked_identify)


# Nor does ``random_cbn`` check the tables it draws: under test each model
# it builds goes through the per-table checks a hand-built model gets.
_random_cbn = cdag.oracle.random_cbn


@functools.wraps(_random_cbn)
def _checked_random_cbn(*args, **kwargs):
    m = _random_cbn(*args, **kwargs)
    error = model_table_error(m.cards, m.exo_cards, m.exo_dists, m.mechanisms)
    assert error is None, f"random_cbn drew a bad table: {error}"
    return m


_install(_random_cbn, _checked_random_cbn)


# Backdoor cluster graph: Z -> X, Z -> Y, X -> Y (effect identifiable by
# adjustment over Z).
@pytest.fixture
def backdoor_cdag():
    return ClusterDag(Admg(["X", "Y", "Z"], [("Z", "X"), ("Z", "Y"), ("X", "Y")]))


# Same skeleton with Z confounded with both X and Y but no Z -> X edge
# (effect not identifiable).
@pytest.fixture
def confounded_cdag():
    return ClusterDag(Admg(["X", "Y", "Z"], [("Z", "Y"), ("X", "Y")],
                           [("X", "Z"), ("Y", "Z")]))


# Five-variable diagrams compatible with the two cluster graphs above,
# with Z = {Z1, Z2, Z3}.
def _z_partition():
    return Partition([("X", ["X"]), ("Y", ["Y"]), ("Z", ["Z1", "Z2", "Z3"])])


@pytest.fixture
def backdoor_diagram_a():
    return Admg(["X", "Y", "Z1", "Z2", "Z3"],
                [("X", "Y"), ("Z1", "Z2"), ("Z1", "X"), ("Z3", "Z2"), ("Z3", "Y")])


@pytest.fixture
def backdoor_diagram_b():
    return Admg(["X", "Y", "Z1", "Z2", "Z3"],
                [("X", "Y"), ("Z1", "Z2"), ("Z2", "Y"), ("Z2", "X"),
                 ("Z1", "X"), ("Z3", "Z2"), ("Z3", "Y")])


@pytest.fixture
def confounded_diagram_c():
    return Admg(["X", "Y", "Z1", "Z2", "Z3"],
                [("X", "Y"), ("Z1", "Z2"), ("Z3", "Y"), ("Z3", "Z2")],
                [("Z1", "Z3"), ("Z3", "Y"), ("Z1", "X")])


@pytest.fixture
def confounded_diagram_d():
    return Admg(["X", "Y", "Z1", "Z2", "Z3"],
                [("X", "Y"), ("Z1", "Z2"), ("Z2", "Y"), ("Z3", "Z2")],
                [("Z1", "Z3"), ("Z3", "Y"), ("Z1", "X")])


@pytest.fixture
def z_partition():
    return _z_partition()


# Seven-variable medication example: treatment X, outcome Y, mediator S,
# covariates A..D with mixed confounding.
@pytest.fixture
def med_admg():
    return Admg(["A", "B", "C", "D", "S", "X", "Y"],
                [("D", "X"), ("X", "S"), ("S", "Y"), ("B", "C"), ("C", "Y"),
                 ("A", "Y"), ("A", "C")],
                [("X", "B"), ("C", "Y"), ("D", "C")])


# Clustering the covariates of med_admg into Z yields the front-door shape:
# Z -> X, Z <-> X, Z -> Y, Z <-> Y, X -> S, S -> Y.
@pytest.fixture
def med_partition():
    return Partition([("S", ["S"]), ("X", ["X"]), ("Y", ["Y"]),
                      ("Z", ["A", "B", "C", "D"])])


@pytest.fixture
def frontdoor_cdag(med_admg, med_partition):
    return build_cdag(med_admg, med_partition)


# Merging the mediator with a covariate (W = {B, S}, Z = {A, C}) keeps the
# partition admissible but loses identifiability.
@pytest.fixture
def merged_mediator_partition():
    return Partition([("D", ["D"]), ("W", ["B", "S"]), ("X", ["X"]),
                      ("Y", ["Y"]), ("Z", ["A", "C"])])


@pytest.fixture
def merged_mediator_cdag(med_admg, merged_mediator_partition):
    return build_cdag(med_admg, merged_mediator_partition)


# Six-variable diagram with two treatments, two outcomes, two covariates.
@pytest.fixture
def two_treatment_admg():
    return Admg(["X1", "X2", "Y1", "Y2", "Z1", "Z2"],
                [("X1", "X2"), ("X2", "Y1"), ("Y1", "Y2"), ("Z1", "Y1"),
                 ("Z2", "X2")],
                [("Y1", "Y2"), ("Z1", "X1"), ("Z2", "Y2")])


# All three clusterings of two_treatment_admg: everything merged (not
# identifiable), covariates kept apart (identifiable by adjustment), and
# treatments kept apart (identifiable).
@pytest.fixture
def merged_covariates_cdag():
    return ClusterDag(Admg(["X", "Y", "Z"], [("X", "Y"), ("Z", "X"), ("Z", "Y")],
                           [("Z", "X"), ("Z", "Y")]))


@pytest.fixture
def split_covariates_cdag():
    return ClusterDag(Admg(["X", "Y", "Z1", "Z2"],
                           [("X", "Y"), ("Z1", "Y"), ("Z2", "X")],
                           [("Z1", "X"), ("Z2", "Y")]))


@pytest.fixture
def split_treatments_cdag():
    return ClusterDag(Admg(["X1", "X2", "Y", "Z"],
                           [("X1", "X2"), ("X2", "Y"), ("Z", "X2"), ("Z", "Y")],
                           [("Z", "Y"), ("Z", "X1")]))


# Four-variable sequential-treatment diagram whose joint effect factors
# into an observed term and an adjustment term.
@pytest.fixture
def sequential_admg():
    return Admg(["X1", "X2", "Y1", "Y2"],
                [("X1", "X2"), ("X2", "Y1"), ("X2", "Y2"), ("X1", "Y1"),
                 ("Y1", "Y2")],
                [("X1", "Y2")])


@pytest.fixture
def bow_cdag():
    return ClusterDag(Admg(["X", "Y"], [("X", "Y")], [("X", "Y")]))
