"""Exact depth-first search for splittings.

A `SearchProblem` states the instance, the spec and the budget; every search
goes through it, either to `find_splitting` (the first solution) or to
`enumerate_splittings` (the first `limit`).  A problem with points is a
geometric search: it caps each block at |V_j| // q vertices per set unless
it gives its own caps.

Vertices are visited in ascending label order, one position per vertex.  Each
position goes to one of the q sets, tried in order 0..q-1, or stays unused,
tried last.  Solutions therefore come out in one fixed order, and the first is
the witness whatever the budget.  The search is a single loop over an explicit
stack, so no instance size runs into Python's recursion limit.

Every set keeps a candidate mask over the later positions: those that no
member rules out, as a neighbour or as a label closer than the stability
distance.  Admitting a vertex is one bit test.  Pruning:

  * symmetry -- a vertex may only open the first empty set, so each
    unordered family is visited exactly once, in canonical order;
  * per-block caps (geometric mode, exact-count searches);
  * balance -- when requested, branches whose size spread cannot return to
    within 1 are cut;
  * quota deficits -- a block whose remaining vertices cannot fill the
    per-set minimums kills the branch;
  * forward checking -- a set whose candidates left in a block cannot fill
    its own minimum there kills the branch.  Only the pairs a step can change
    are checked: the blocks the new member rules positions out of, and every
    set on the block of the decided position;
  * uncovered budget -- flavors with a per-block cap on uncovered vertices
    prune as soon as a block overspends.

Below the leaves, a node calls no Python function and builds no list or
tuple: it is a handful of list reads and bit operations.  At the first
arrival at a position, each of the q sets below its minimum in the
position's block costs one AND and one popcount against the block's later
positions; a set at or above the minimum has no shortfall and a popcount is
never negative, so its popcount is skipped, and the scan stops at the second
short set (two sets that both need the vertex kill the branch).  Admitting
the vertex to a set is one bit test, plus a cap test and a max/min over the
q set sizes when balance is required.
After a set takes the vertex, each touched block where that set is still
below its minimum costs one more AND and popcount.  The mask a step
replaces is kept in one flat per-depth list.

Complete assignments are checked for balance, weak stability and, in
geometric mode, a common point of the hulls; not for quotas, since the
deficit prune at each block's last position leaves no deficit.  Every
visited node counts once against one budget shared by the whole search.
"exhausted_none" is only reported after full (symmetry-reduced)
exhaustion; a budget cutoff is reported as "budget_exceeded", never as
nonexistence.

The per-problem tables come from one pass over the graph's edges and one
sweep over the positions.  They keep n-bit masks per position, so they take
O(n^2) bits on long instances: a problem whose two n-bit tables would exceed
errors.MEMORY_LIMIT raises ResourceBudget before any mask is built.  Every
answer is then certified independently of these tables, in time linear in its
members (see splitting.py), held to the caps, and in geometric mode its common
point is re-derived from the LP's weights in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MEMORY_LIMIT, InputError, ResourceBudget
from .exactlp import convex_hulls_common_point
from .geometry import PointConfiguration
from .graphs import Graph, VertexPartition
from .splitting import (Splitting, SplittingSpec, check_splitting,
                        is_weakly_q_stable, leftover_cap, required_min)

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass
class SearchProblem:
    partition: VertexPartition
    spec: SplittingSpec
    graph: Graph
    points: PointConfiguration | None = None  # given exactly in geometric mode
    caps: list | None = None
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if not self.partition.covers(self.graph.n):
            raise InputError("partition must cover the graph's vertex set")
        if self.budget < 0:
            raise InputError("budget must be nonnegative")
        if self.points is not None:
            if len(self.points) < self.graph.n:
                raise InputError("need a point for every vertex label")
            if self.caps is None:
                self.caps = [len(b) // self.spec.q for b in self.partition.blocks]
        if self.caps is not None:
            if len(self.caps) != self.partition.m:
                raise InputError("need one cap per block")
            if any(c < 0 for c in self.caps):
                raise InputError("caps must be nonnegative")


@dataclass
class SearchOutcome:
    status: str  # found | exhausted_none | budget_exceeded
    splitting: Splitting | None = None
    certificate: object = None
    nodes: int = 0
    common_point: tuple | None = None

    def to_json(self):
        out = {
            "schema": "outcome/1",
            "status": self.status,
            "nodes": self.nodes,
            "splitting": None if self.splitting is None else [list(s) for s in self.splitting.sets],
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }
        if self.common_point is not None:
            out["common_point"] = [[p.numerator, p.denominator] for p in self.common_point]
        return out


class _Ctx:
    """Per-problem tables, indexed by position: the partition covers exactly
    1..n, so label v sits at position v - 1."""

    def __init__(self, problem):
        p = problem
        spec = p.spec
        blocks = p.partition.blocks
        self.q = q = spec.q
        self.n = n = p.graph.n
        # keep and after_in_block hold an n-bit int per position, 2 * n^2
        # bits or n^2 / 4 bytes in all, and the kill masks beside them add
        # n^2 bits more.  MEMORY_LIMIT (500 MB) admits up to 44,721
        # positions: a q = 2 path on 40,000 vertices solves at a 663 MB peak
        # RSS, and one on 100,000 would need about 4 GB.
        if n * n > 4 * MEMORY_LIMIT:
            raise ResourceBudget("search tables need %d^2 / 4 bytes, over the "
                                 "memory limit of %d" % (n, MEMORY_LIMIT))
        index = p.partition._block_of
        self.block_of = block_of = [index[v] for v in range(1, n + 1)]
        self.mins = [required_min(spec.flavor, len(b), q) for b in blocks]
        self.unused_cap = leftover_cap(spec.flavor, q)
        self.caps = p.caps
        self.balanced = spec.balanced
        self.weak = spec.weak
        self.points = p.points
        # kill[d]: the later positions a set holding position d must skip;
        # touch[d]: the blocks of those positions, where that step can starve a set
        kill = [0] * n
        touch = [[] for _ in range(n)]
        for a, b in p.graph.edges:  # a < b
            kill[a - 1] |= 1 << (b - 1)
            touch[a - 1].append(block_of[b - 1])
        if spec.stability >= 2:
            for d in range(n):
                t, e = touch[d], d + 1
                while e < n and e - d < spec.stability:
                    kill[d] |= 1 << e
                    t.append(block_of[e])
                    e += 1
        # each block once per position, in any order: all cut the same branches
        self.touch = [list(set(t)) if len(t) > 1 else t for t in touch]
        # one sweep from the right: keep[d] is what a set's candidate mask
        # keeps when position d joins it, after_in_block[d] the later
        # positions of d's block and rem_after[d] their number
        full = (1 << n) - 1
        keep = self.keep = [0] * n
        after_in_block = self.after_in_block = [0] * n
        rem_after = self.rem_after = [0] * n
        block_mask = self.block_mask = [0] * len(blocks)
        left = [0] * len(blocks)
        for d in range(n - 1, -1, -1):
            j = block_of[d]
            keep[d] = (full ^ ((2 << d) - 1)) ^ kill[d]
            after_in_block[d] = block_mask[j]
            rem_after[d] = left[j]
            block_mask[j] |= 1 << d
            left[j] += 1


def _leaf(ctx, choice):
    members = [[] for _ in range(ctx.q)]
    for v, c in enumerate(choice, 1):
        if c < ctx.q:
            members[c].append(v)
    sets = [tuple(m) for m in members]
    if ctx.balanced and max(map(len, sets)) - min(map(len, sets)) > 1:
        return None
    if ctx.weak and is_weakly_q_stable(sets, ctx.q) is not True:
        return None
    hull = None
    if ctx.points is not None:
        if any(not s for s in sets):
            return None
        hull = convex_hulls_common_point([ctx.points.subset(s) for s in sets])
        if hull is None:
            return None
    return sets, hull


def _search(problem, limit):
    """Returns (status, solutions, nodes): status is found | exhausted_none |
    budget_exceeded, solutions the first `limit` (or fewer) in search order,
    and nodes the visited nodes, root included, never more than the budget."""
    ctx = _Ctx(problem)
    q, n = ctx.q, ctx.n
    mins, caps, block_of, block_mask = ctx.mins, ctx.caps, ctx.block_of, ctx.block_mask
    keep, touch, rem_after = ctx.keep, ctx.touch, ctx.rem_after
    after_in_block, unused_cap = ctx.after_in_block, ctx.unused_cap
    balanced = ctx.balanced
    budget = problem.budget
    cand = [(1 << n) - 1] * q
    counts = [[0] * len(mins) for _ in range(q)]
    sizes = [0] * q
    deficit = [q * x for x in mins]
    unused = [0] * len(mins)
    used = 0                 # sets holding a vertex; they are sets 0..used-1
    choice = [-1] * n        # choice in force at each depth; q means unused
    lone = [None] * n        # the one set that needs the vertex; -1 when two do
    saved_cand = [0] * n     # candidate mask of the set extended at each depth
    solutions = []
    if budget < 1:
        return "budget_exceeded", solutions, 0
    nodes, d = 1, 0
    while True:
        if d == n:
            found = _leaf(ctx, choice)
            if found is not None:
                solutions.append(found)
                if len(solutions) >= limit:
                    return "found", solutions, nodes
            if d == 0:
                break
            d -= 1
            continue
        j = block_of[d]
        c = choice[d]
        if c == q:
            unused[j] -= 1
        elif c >= 0:
            cnt = counts[c]
            cnt[j] -= 1
            if cnt[j] < mins[j]:
                deficit[j] += 1
            sizes[c] -= 1
            if not sizes[c]:
                used -= 1
            cand[c] = saved_cand[d]
        else:
            # first arrival: which sets cannot afford to miss this vertex?
            # A set already at the block's minimum has no shortfall, and a
            # popcount is never negative, so its popcount is skipped.
            must = None
            need, rest = mins[j], after_in_block[d]
            for x in range(q):
                short = need - counts[x][j]
                if short > 0 and (cand[x] & rest).bit_count() < short:
                    if must is not None:
                        must = -1
                        break
                    must = x
            lone[d] = must
        must = lone[d]
        c += 1
        hi = used + 1 if used < q else q  # symmetry: only the first empty set may open
        if must is not None:
            if c < must:
                c = must
            if hi > must + 1:
                hi = must + 1
        while c < hi:
            if cand[c] >> d & 1 and (caps is None or counts[c][j] < caps[j]):
                if not balanced:
                    break
                # balance: can the size spread still end within 1 once set c grows?
                sizes[c] += 1
                spread = max(sizes) - min(sizes)
                sizes[c] -= 1
                if spread - (n - d - 1) <= 1:
                    break
            c += 1
        else:
            if c <= q and must is None and (unused_cap is None or unused[j] < unused_cap):
                c = q
            else:
                c = q + 1
        if c > q:
            choice[d] = -1
            if d == 0:
                break
            d -= 1
            continue
        choice[d] = c
        if c == q:
            unused[j] += 1
            if deficit[j] > rem_after[d]:
                continue
        else:
            cnt = counts[c]
            if cnt[j] < mins[j]:
                deficit[j] -= 1
            cnt[j] += 1
            if not sizes[c]:
                used += 1
            sizes[c] += 1
            saved_cand[d] = m = cand[c]
            m &= keep[d]
            cand[c] = m
            if deficit[j] > rem_after[d]:
                continue  # pruned: the next pass undoes choice[d] and tries the one after
            # forward checking on the blocks this step touched
            starved = False
            for t in touch[d]:
                short = mins[t] - cnt[t]
                if short > 0 and (m & block_mask[t]).bit_count() < short:
                    starved = True
                    break
            if starved:
                continue
        if nodes == budget:
            return "budget_exceeded", solutions, nodes
        nodes += 1
        d += 1
    return ("found" if solutions else "exhausted_none"), solutions, nodes


def _certified(problem, sets, hull, nodes):
    """The found outcome for `sets` and the LP's (point, weights) `hull`, once
    checked apart from the search: the certificate holds, every count is
    within its cap, and each set's weights are nonnegative, sum to 1 and
    average its points to the point, exactly.  A failure is a fault of the
    search, not a verdict."""
    splitting = Splitting(sets)
    cert = check_splitting(problem.graph, problem.partition, splitting, problem.spec)
    ok = cert.ok and (problem.caps is None or all(
        c <= cap for row in cert.counts for c, cap in zip(row, problem.caps)))
    point = None
    if hull is not None:
        point, weights = hull
        for s, w in zip(splitting.sets, weights):
            pts = problem.points.subset(s)
            ok = ok and min(w) >= 0 and sum(w) == 1 and all(
                sum(x * p[c] for x, p in zip(w, pts)) == y for c, y in enumerate(point))
    if not ok:
        # the CLI reports it as internal (exit 4)
        raise AssertionError("search produced a splitting its own certificate rejects")
    return SearchOutcome("found", splitting, cert, nodes, point)


def find_splitting(problem: SearchProblem) -> SearchOutcome:
    status, solutions, nodes = _search(problem, 1)
    if status == "found":
        return _certified(problem, *solutions[0], nodes)
    return SearchOutcome(status, None, None, nodes)


def enumerate_splittings(problem: SearchProblem, limit) -> list:
    if limit < 0:
        raise InputError("limit must be nonnegative")
    if limit == 0:
        return []
    status, solutions, nodes = _search(problem, limit)
    if status == "budget_exceeded":
        raise ResourceBudget("node budget hit after %d splittings" % len(solutions))
    return [_certified(problem, sets, hull, nodes) for sets, hull in solutions]
