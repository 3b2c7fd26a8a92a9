"""Causal effect identification over cluster DAGs.

The package is organised around a small number of values:

* :class:`~cdag.graphs.Admg` - directed acyclic mixed graphs,
* :class:`~cdag.cluster.ClusterDag` - a cluster graph, standing for every
  ADMG whose quotient it is under an admissible partition,
* :class:`~cdag.formula.ProbExpr` - symbolic probability expressions
  produced by identification,
* :class:`~cdag.oracle.DiscreteCbn` - exact discrete causal models used
  as ground truth, mutable but not to be edited once sampled or tabulated.
"""

from .graphs import Admg, CycleError, GraphError, UnknownNodeError
from .cluster import (
    ClusterDag,
    InadmissibleError,
    Partition,
    PartitionError,
    build_cdag,
    cdag_d_separated,
    is_compatible,
    mutilate_cdag,
    singleton_cdag,
)
from .formula import (
    CondProb,
    Fraction,
    JointTable,
    ONE,
    ProbExpr,
    Product,
    Sum,
    ZeroConditioningMass,
    evaluate,
    parse_formula_json,
    render,
    simplify,
)
from .identify import (
    Hedge,
    Identified,
    NonIdentified,
    hedge_expansion_witness,
    identify,
)
from .docalc import DoQuery, RuleVerdict, rule1, rule2, rule3
from .oracle import (
    DiscreteCbn,
    StateSpaceCapError,
    interventional_distribution,
    joint_distribution,
    random_cbn,
    sample_dataset,
)
from .sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand, sample_batch

__version__ = "0.1.0"

__all__ = [
    "Admg", "CycleError", "GraphError", "UnknownNodeError",
    "ClusterDag", "InadmissibleError", "Partition", "PartitionError",
    "build_cdag", "cdag_d_separated", "is_compatible", "mutilate_cdag",
    "singleton_cdag",
    "CondProb", "Fraction", "JointTable", "ONE", "ProbExpr", "Product",
    "Sum", "ZeroConditioningMass", "evaluate", "parse_formula_json", "render",
    "simplify",
    "Hedge", "Identified", "NonIdentified", "hedge_expansion_witness", "identify",
    "DoQuery", "RuleVerdict", "rule1", "rule2", "rule3",
    "DiscreteCbn", "StateSpaceCapError", "interventional_distribution",
    "joint_distribution", "random_cbn", "sample_dataset",
    "CrossPolicy", "ExpansionSpec", "InternalPolicy", "expand", "sample_batch",
]
