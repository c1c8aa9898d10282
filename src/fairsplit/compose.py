"""Product splittings of a path, built level by level.

A list of levels (q_1, s_1), ..., (q_m, s_m) describes the construction.
Level 1 splits the path into q_1 almost fair s_1-stable sets.  Each later
level splits every set of the level before, read as a shorter path in
traversal order, into q_i such sets; a later level with q_i = 1 keeps the
sets as they are.  After level i the sets claim to be an almost fair
splitting into q = q_1 * ... * q_i sets of stability s_1 * ... * s_i.

The stabilities multiply because a gap of s_i positions inside a set whose
consecutive members are s' apart spans at least s' * s_i labels.  The
quotas chain by the floor identity floor(floor(a/b)/c) = floor(a/(bc)): a
set meeting floor((|V_j|+1)/q') - 1 vertices of V_j, split q_i ways, gives
sets meeting floor((|V_j|+1)/(q' q_i)) - 1.  Each level is re-checked once
against its claim; a failure raises ContractError naming the level instead
of passing on a bad certificate.

Every search and check runs on the edgeless graph with the stability
distance as a label gap: s-stable sets of the path are exactly the
independent sets of its (s-1)-th power, whose edges would grow to about
n^2/2.
"""

from __future__ import annotations

from math import prod

from .errors import Budget, ContractError, InputError, ResourceBudget
from .graphs import Graph, VertexPartition
from .splitting import Splitting, SplittingSpec, check_splitting
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting


def _split(big, partition, spec, budget):
    """The solver's first splitting of `big`, read as a path in traversal
    order, by the inner SplittingSpec `spec`, in the path's labels; its
    search spends its nodes from the Budget `budget`."""
    ordered = sorted(big)
    pos = {v: i + 1 for i, v in enumerate(ordered)}
    sub_partition = VertexPartition(
        [[pos[v] for v in b if v in pos] for b in partition.blocks],
        len(ordered))
    out = find_splitting(SearchProblem(partition=sub_partition, spec=spec,
                                       graph=Graph(len(ordered), ()),
                                       budget=budget.left))
    if out.status == "budget_exceeded":
        raise ResourceBudget(
            "splitter (q=%d, s=%d) ran out of the %d nodes left of the "
            "construction's budget on the path on %d vertices"
            % (spec.q, spec.stability, budget.left, len(ordered)))
    if out.status != "found":
        raise ContractError(
            "splitter (q=%d, s=%d) could not split the path on %d vertices: "
            "%s" % (spec.q, spec.stability, len(ordered), out.status))
    budget.spend(out.nodes)
    return [tuple(ordered[i - 1] for i in piece) for piece in out.splitting.sets]


def compose(n, partition, levels, budget=DEFAULT_NODE_BUDGET):
    """The splitting of the path on n vertices that `levels`, a nonempty
    list of (q_i, s_i), build, and the certificate of its last level; all
    the solver runs together visit at most `budget` nodes, each drawing on
    what the runs before it left.  Its q is the product of the q_i and its
    stability that of the s_i.  Every level's specs are built, and so
    checked, before the first search."""
    q = prod(qi for qi, _ in levels)
    if any(len(b) < q - 1 for b in partition.blocks):
        raise InputError("every block needs at least %d vertices, one fewer "
                         "than the %d sets" % (q - 1, q))
    specs, q, stability = [], 1, 1
    for qi, si in levels:
        q, stability = q * qi, stability * si
        specs.append((
            SplittingSpec(q=qi, flavor="almost_fair", stability=si),
            SplittingSpec(q=q, flavor="almost_fair", stability=stability)))
    budget = Budget(budget, "construction node budget exceeded")
    sets = [range(1, n + 1)]
    for level, (inner, claim) in enumerate(specs, 1):
        if level == 1 or inner.q != 1:
            sets = [piece for big in sets
                    for piece in _split(big, partition, inner, budget)]
        cert = check_splitting(Graph(n, ()), partition, Splitting(sets), claim)
        if not cert.ok:
            raise ContractError("level %d violated its contract: %s"
                                % (level, cert.to_json()))
    return Splitting(sets), cert


def power_of_two_levels(t, partition):
    """t levels of (2, 2), which build 2^t sets that are 2^t-stable."""
    if t < 1:
        raise InputError("need t >= 1")
    # |V_j| + 1 < 2^t, read from the bit length so a huge t builds no 2^t
    if any((len(b) + 1).bit_length() <= t for b in partition.blocks):
        raise InputError("every block needs at least 2^t - 1 vertices")
    return [(2, 2)] * t


def power_of_two_splitting(n, partition, t):
    """2^t pairwise disjoint 2^t-stable sets forming an almost fair splitting
    of the path on n vertices, by t levels of (2, 2)."""
    return compose(n, partition, power_of_two_levels(t, partition))[0]
