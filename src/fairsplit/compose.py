"""Composing splitters: a q1-splitter of the path and a q2-splitter applied
inside each returned set yield a (q1*q2)-splitter whose stability multiplies.

The key bookkeeping fact is the floor identity
floor(floor(a/b)/c) = floor(a/(bc)), which chains the per-block quotas:
if every S'_t meets floor((|V_j|+1)/q1) - 1 vertices of V_j and the inner
splitter meets its own almost-fair quota on the sub-instance, the composed
sets meet floor((|V_j|+1)/(q1*q2)) - 1, for all integers.  Every stage's
output is re-verified; a failure raises ContractError naming the stage
instead of propagating a bad certificate.

Every stage is checked on the edgeless graph with the stability distance
as a label gap: s-stable sets of the path are exactly the independent sets
of its (s-1)-th power, whose edges would grow to about n^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, InputError, ResourceBudget
from .graphs import Graph, VertexPartition
from .splitting import Splitting, SplittingSpec, check_splitting
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting


@dataclass
class SplitterSpec:
    """A pluggable almost-fair splitter contract for paths.

    run(n, partition) must produce q pairwise disjoint stability-stable sets
    forming an almost fair splitting of the path on n vertices; when
    weak_stability is set the outputs are additionally weakly that-stable.
    """

    q: int
    stability: int
    run: callable
    weak_stability: int | None = None

    def claimed_spec(self):
        return SplittingSpec(q=self.q, flavor="almost_fair",
                             stability=self.stability,
                             weak_stability=self.weak_stability)


def solver_base_splitter(q, stability, budget=DEFAULT_NODE_BUDGET):
    """The exhaustive solver as a base splitter, searching for s-stable sets
    on the edgeless graph."""

    def run(n, partition):
        g = Graph(n, ())
        spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
        problem = SearchProblem(partition=partition, spec=spec, graph=g,
                                budget=budget)
        out = find_splitting(problem)
        if out.status == "budget_exceeded":
            raise ResourceBudget(
                "base splitter (q=%d, s=%d) ran out of its budget of %d nodes "
                "on the path on %d vertices" % (q, stability, budget, n))
        if out.status != "found":
            raise ContractError(
                "base splitter (q=%d, s=%d) could not split the path on %d "
                "vertices: %s" % (q, stability, n, out.status))
        return out.splitting

    return SplitterSpec(q=q, stability=stability, run=run)


def _reverify(stage, n, partition, splitting, spec):
    cert = check_splitting(Graph(n, ()), partition, splitting, spec)
    if not cert.ok:
        raise ContractError("%s violated its contract: %s" % (stage, cert.to_json()))


def _split_sets(partition, sets, inner: SplitterSpec):
    """Split each of `sets`, as a shorter path in traversal order, with
    `inner`; re-verify each run and yield its pieces in the path's labels."""
    for t, big in enumerate(sets):
        if inner.q == 1:
            yield tuple(big)
            continue
        ordered = sorted(big)
        pos = {v: i + 1 for i, v in enumerate(ordered)}
        sub_blocks = []
        for j, b in enumerate(partition.blocks):
            hit = [pos[v] for v in b if v in pos]
            if len(hit) < inner.q - 1:
                raise ContractError(
                    "outer set %d meets block %d in %d < q2-1 vertices"
                    % (t + 1, j + 1, len(hit)))
            sub_blocks.append(hit)
        sub_partition = VertexPartition(sub_blocks, len(ordered))
        small = inner.run(len(ordered), sub_partition)
        _reverify("inner splitter on outer set %d" % (t + 1),
                  len(ordered), sub_partition, small, inner.claimed_spec())
        for piece in small.sets:
            yield tuple(ordered[i - 1] for i in piece)


def compose(n, partition, outer: SplitterSpec, inner: SplitterSpec):
    """Split the path with `outer`, then split each returned set (as a
    shorter path, in traversal order) with `inner`.

    Returns (Splitting, stability) where stability is inner.stability *
    outer.stability, or (inner.stability - 1) * (outer.weak_stability - 1) + 1
    when the outer splitter only guarantees weak stability.
    """
    q = outer.q * inner.q
    if any(len(b) < q - 1 for b in partition.blocks):
        raise InputError("every block needs at least q1*q2 - 1 vertices")

    top = outer.run(n, partition)
    _reverify("outer splitter", n, partition, top, outer.claimed_spec())
    splitting = Splitting(_split_sets(partition, top.sets, inner))

    if outer.weak_stability is not None:
        stability = (inner.stability - 1) * (outer.weak_stability - 1) + 1
    else:
        stability = inner.stability * outer.stability
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
    _reverify("composition", n, partition, splitting, spec)
    return splitting, stability


def power_of_two_splitting(n, partition, t, budget=DEFAULT_NODE_BUDGET):
    """2^t pairwise disjoint 2^t-stable sets forming an almost fair splitting
    of the path on n vertices: the q=2 exhaustive base splits the path, then
    splits each set of every level L < t in two; level L's 2^L sets are
    re-verified once, as 2^L-stable."""
    if t < 1:
        raise InputError("need t >= 1")
    # |V_j| + 1 < 2^t, read from the bit length so a huge t builds no 2^t
    if any((len(b) + 1).bit_length() <= t for b in partition.blocks):
        raise InputError("every block needs at least 2^t - 1 vertices")
    base = solver_base_splitter(2, 2, budget=budget)
    splitting = base.run(n, partition)
    _reverify("base splitter", n, partition, splitting, base.claimed_spec())
    for level in range(2, t + 1):
        splitting = Splitting(_split_sets(partition, splitting.sets, base))
        spec = SplittingSpec(q=2 ** level, flavor="almost_fair",
                             stability=2 ** level)
        _reverify("level %d" % level, n, partition, splitting, spec)
    return splitting
