"""Composing splitters: a q1-splitter of the path and a q2-splitter applied
inside each returned set yield a (q1*q2)-splitter whose stability multiplies.

The key bookkeeping fact is the floor identity
floor(floor(a/b)/c) = floor(a/(bc)), which chains the per-block quotas:
if every S'_t meets floor((|V_j|+1)/q1) - 1 vertices of V_j and the inner
splitter meets its own almost-fair quota on the sub-instance, the composed
sets meet floor((|V_j|+1)/(q1*q2)) - 1.  Every stage's output is re-verified;
a failure raises ContractError naming the stage instead of propagating a bad
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, InputError
from .graphs import VertexPartition, power_path
from .splitting import Splitting, SplittingSpec, check_splitting
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting


def floor_identity_check(a, b, c):
    """floor(floor(a/b)/c) == floor(a/(b*c)) for integers a >= 0, b, c >= 1."""
    if b < 1 or c < 1 or a < 0:
        raise InputError("need a >= 0 and b, c >= 1")
    return (a // b) // c == a // (b * c)


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
    """The exhaustive solver as a base splitter: s-stable sets of the path
    are exactly the independent sets of the (s-1)-th path power."""

    def run(n, partition):
        g = power_path(n, stability - 1)
        spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
        problem = SearchProblem(partition=partition, spec=spec, graph=g,
                                budget=budget)
        out = find_splitting(problem)
        if out.status != "found":
            raise ContractError(
                "base splitter (q=%d, s=%d) could not split the path on %d "
                "vertices: %s" % (q, stability, n, out.status))
        return out.splitting

    return SplitterSpec(q=q, stability=stability, run=run)


def _reverify(stage, n, partition, splitting, spec):
    g = power_path(n, spec.stability - 1)
    cert = check_splitting(g, partition, splitting, spec)
    if not cert.ok:
        raise ContractError("%s violated its contract: %s" % (stage, cert.to_json()))
    return cert


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

    final = []
    for t, big in enumerate(top.sets):
        if inner.q == 1:
            final.append(tuple(big))
            continue
        ordered = sorted(big)
        sub_blocks, sub_sizes = [], []
        pos = {v: i + 1 for i, v in enumerate(ordered)}
        for j, b in enumerate(partition.blocks):
            hit = [pos[v] for v in b if v in pos]
            if len(hit) < inner.q - 1:
                raise ContractError(
                    "outer set %d meets block %d in %d < q2-1 vertices"
                    % (t + 1, j + 1, len(hit)))
            sub_blocks.append(hit)
            sub_sizes.append(len(hit))
        sub_partition = VertexPartition(sub_blocks, len(ordered))
        small = inner.run(len(ordered), sub_partition)
        _reverify("inner splitter on outer set %d" % (t + 1),
                  len(ordered), sub_partition, small, inner.claimed_spec())
        for piece in small.sets:
            final.append(tuple(ordered[i - 1] for i in piece))

    if outer.weak_stability is not None:
        stability = (inner.stability - 1) * (outer.weak_stability - 1) + 1
    else:
        stability = inner.stability * outer.stability
    splitting = Splitting(final)

    # composed re-verification on the original path; the quota chain relies
    # on the floor identity, so check it on the sizes actually involved
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
    _reverify("composition", n, partition, splitting, spec)
    for b in partition.blocks:
        if not floor_identity_check(len(b) + 1, outer.q, inner.q):
            raise AssertionError("floor identity failed -- impossible")
    return splitting, stability


def power_of_two_splitting(n, partition, t, budget=DEFAULT_NODE_BUDGET):
    """2^t pairwise disjoint 2^t-stable sets forming an almost fair splitting
    of the path on n vertices, by iterating the q=2 exhaustive base."""
    if t < 1:
        raise InputError("need t >= 1")
    if any(len(b) < 2 ** t - 1 for b in partition.blocks):
        raise InputError("every block needs at least 2^t - 1 vertices")
    base = solver_base_splitter(2, 2, budget=budget)
    if t == 1:
        splitting = base.run(n, partition)
        _reverify("base splitter", n, partition, splitting, base.claimed_spec())
        return splitting

    def make_runner(level):
        """Splitter for q = 2^level, s = 2^level."""
        if level == 1:
            return base

        def run(nn, pp):
            splitting, _ = compose(nn, pp, make_runner(level - 1), base)
            return splitting

        return SplitterSpec(q=2 ** level, stability=2 ** level, run=run)

    splitting, stability = compose(n, partition, make_runner(t - 1), base)
    if stability != 2 ** t:
        raise ContractError("expected stability %d, got %d" % (2 ** t, stability))
    return splitting
