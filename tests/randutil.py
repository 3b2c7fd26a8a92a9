"""Seeded random graphs and queries for the property harnesses."""

import numpy as np

from cdag import Admg, ClusterDag, CrossPolicy, ExpansionSpec, InternalPolicy, expand


def random_admg(rng, n_nodes, p_dir=0.4, p_bi=0.25, prefix="V"):
    """A random ADMG; directed edges follow a random order, so acyclic."""
    names = [f"{prefix}{i}" for i in range(1, n_nodes + 1)]
    order = list(rng.permutation(names))
    directed = []
    bidirected = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < p_dir:
                directed.append((order[i], order[j]))
            if rng.random() < p_bi:
                bidirected.append((order[i], order[j]))
    return Admg(names, directed, bidirected)


def sparse_admg(rng, n_nodes, degree, bi_degree, prefix="V"):
    """A random ADMG with about ``degree`` directed and ``bi_degree``
    bidirected edges per node, drawn as one matrix, so cheap at 160 nodes;
    directed edges follow a random order, so acyclic."""
    names = [f"{prefix}{i}" for i in range(1, n_nodes + 1)]
    order = [names[i] for i in rng.permutation(n_nodes)]

    def edges(mean_degree):
        p = min(0.6, mean_degree / (n_nodes - 1))
        i, j = np.nonzero(np.triu(rng.random((n_nodes, n_nodes)) < p, 1))
        return [(order[a], order[b]) for a, b in zip(i, j)]

    return Admg(names, edges(degree), edges(bi_degree))


def random_cdag(rng, n_clusters, p_dir=0.4, p_bi=0.25):
    return ClusterDag(random_admg(rng, n_clusters, p_dir, p_bi, prefix="C"))


def sweep_query(rng, kind, n):
    """A singleton cluster DAG with a query (x, y), shaped like the graphs
    of the ``identify`` benchmark sweep.

    y is a sink and x another node.  In a ``"sparse"`` graph a random half
    of the other nodes are ancestors of y, in a ``"dense"`` one all are;
    every node takes one earlier parent from its own side, and every
    childless ancestor points at a later one.  Bidirected paths through
    random blocks of 10 (sparse) or 12 (dense) nodes make large districts.
    """
    order = [f"V{i}" for i in rng.permutation(n)]
    y = order[-1]
    if kind == "dense":
        ancestors = set(order)
    else:
        ancestors = set(rng.choice(order[:-1], size=(n - 1) // 2, replace=False)) | {y}
    directed = set()
    for i, v in enumerate(order[1:], start=1):
        side = [u for u in order[:i] if (u in ancestors) == (v in ancestors)]
        if side:
            directed.add((side[int(rng.integers(len(side)))], v))
    tails = {t for t, _ in directed}
    for i, v in enumerate(order[:-1]):
        if v in ancestors and v not in tails:
            later = [u for u in order[i + 1:] if u in ancestors]
            directed.add((v, later[int(rng.integers(len(later)))]))
    shuffled = [order[i] for i in rng.permutation(n)]
    block = 12 if kind == "dense" else 10
    bidirected = [pair for s in range(0, n, block)
                  for pair in zip(shuffled[s:s + block], shuffled[s + 1:s + block])]
    x = order[int(rng.integers(n - 1))]
    return ClusterDag(Admg(order, sorted(directed), bidirected)), x, y


def random_expansion(rng, c):
    """``expand`` of ``c`` with 1 to 3 members per cluster and internal and
    cross policies drawn from every kind, densities uniform."""
    internal = [InternalPolicy("random", float(rng.uniform()), float(rng.uniform())),
                InternalPolicy("chain"), InternalPolicy("full"), InternalPolicy("empty")]
    cross = [CrossPolicy("minimal_witness"), CrossPolicy("random", float(rng.uniform())),
             CrossPolicy("full")]
    spec = ExpansionSpec(sizes={name: int(rng.integers(1, 4)) for name in c.graph.nodes},
                         internal=internal[int(rng.integers(4))],
                         cross=cross[int(rng.integers(3))], seed=int(rng.integers(10 ** 6)))
    return expand(c, spec)


def random_disjoint_sets(rng, names, k, min_sizes=None):
    """``k`` disjoint (possibly empty) subsets of ``names``."""
    names = list(names)
    rng.shuffle(names)
    sizes = []
    remaining = len(names)
    min_sizes = min_sizes or [0] * k
    for i in range(k):
        upper = remaining - sum(min_sizes[i + 1:])
        size = int(rng.integers(min_sizes[i], max(min_sizes[i], upper) + 1))
        size = min(size, remaining - sum(min_sizes[i + 1:]))
        sizes.append(size)
        remaining -= size
    out = []
    start = 0
    for size in sizes:
        out.append(frozenset(names[start:start + size]))
        start += size
    return out


def random_query(rng, names):
    """Disjoint nonempty x, y and a possibly-empty z over ``names``."""
    x, y, z = random_disjoint_sets(rng, list(names), 3, min_sizes=[1, 1, 0])
    return x, y, z


def licensed_equality_deviation(model, partition, rule, q):
    """Max absolute gap in the distributional equality a do-calculus rule
    grants, computed from exact interventional distributions.

    ``q`` holds cluster-level sets; ``partition`` maps them to the model's
    variables.  Full-support models keep every conditioning event positive.
    """
    import itertools
    from cdag import interventional_distribution, joint_distribution

    def vars_of(c):
        return sorted(partition.variables_of(c))

    xs, ys = vars_of(q.x), vars_of(q.y)
    zs, ws = vars_of(q.z), vars_of(q.w)

    def states(names):
        return itertools.product(*(range(model.cards[v]) for v in names))

    def cond(table, targets, given):
        joint = dict(targets)
        joint.update(given)
        denom = table.prob_of(given) if given else 1.0
        return table.prob_of(joint) / denom

    worst = 0.0
    for x_state in states(xs):
        x_assign = dict(zip(xs, x_state))
        post_x = interventional_distribution(model, x_assign)
        for z_state in states(zs):
            z_assign = dict(zip(zs, z_state))
            if rule in ("2", "3"):
                post_xz = interventional_distribution(model, x_assign | z_assign)
            for w_state in states(ws):
                w_assign = dict(zip(ws, w_state))
                for y_state in states(ys):
                    y_assign = dict(zip(ys, y_state))
                    if rule == "1":
                        lhs = cond(post_x, y_assign, z_assign | w_assign)
                        rhs = cond(post_x, y_assign, w_assign)
                    elif rule == "2":
                        lhs = cond(post_xz, y_assign, w_assign)
                        rhs = cond(post_x, y_assign, z_assign | w_assign)
                    else:
                        lhs = cond(post_xz, y_assign, w_assign)
                        rhs = cond(post_x, y_assign, w_assign)
                    worst = max(worst, abs(lhs - rhs))
    return worst


def oracle_deviation(x, y, expr, graph, partition, model_seed):
    """Max absolute gap between ``tabulate`` of the cluster formula ``expr``
    for P(y | do(x)) and the exact interventional distribution of a random
    binary model of ``graph``, over every assignment of the members of the
    cluster sets ``x`` and ``y``."""
    import itertools
    from cdag import interventional_distribution, joint_distribution, random_cbn
    from cdag.formula import tabulate

    model = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=model_seed)
    table = joint_distribution(model)
    clusters = partition.to_cluster_map()
    variables, values = tabulate(expr, table, clusters)
    x_vars = sorted(partition.variables_of(x))
    y_vars = sorted(partition.variables_of(y))
    worst = 0.0
    for x_state in itertools.product(*(range(2) for _ in x_vars)):
        x_assign = dict(zip(x_vars, x_state))
        post = interventional_distribution(model, x_assign)
        for y_state in itertools.product(*(range(2) for _ in y_vars)):
            assign = x_assign | dict(zip(y_vars, y_state))
            got = float(values[tuple(assign[v] for v in variables)]) \
                if variables else float(values)
            want = post.prob_of(dict(zip(y_vars, y_state)))
            worst = max(worst, abs(got - want))
    return worst


def random_table(rng, variables, cards):
    """A full-support joint table with Dirichlet-random entries."""
    from cdag import JointTable
    size = int(np.prod(cards))
    probs = rng.dirichlet(np.ones(size))
    probs = np.clip(probs, 1e-6, None)
    probs = probs / probs.sum()
    return JointTable(tuple(variables), probs.reshape(cards))


def rng_for(seed):
    return np.random.default_rng(seed)
