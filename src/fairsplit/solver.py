"""Exact depth-first search for splittings.

A `SearchProblem` states the instance, the spec and the budget; every search
goes through it, either to `find_splitting` (the first solution) or to
`enumerate_splittings` (the first `limit`).  Geometric mode caps each block
at |V_j| // q vertices per set unless the problem gives its own caps.

Vertices are visited in ascending label order, one position per vertex.  Each
position goes to one of the q sets, tried in order 0..q-1, or stays unused,
tried last.  Solutions therefore come out in one fixed order, and the first is
the witness whatever the budget.  The search is a single loop over an explicit
stack, so no instance size runs into Python's recursion limit.

Every set keeps a candidate mask over the later positions: those that no
member rules out, as a neighbour or as a label closer than the stability
distance.  Admitting a vertex is one bit test; host-complex problems also
intersect per-set facet masks.  Pruning:

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

Complete assignments are checked for balance, weak stability and, in
geometric mode, a common point of the hulls.  Every visited node counts once
against one budget shared by the whole search.  "exhausted_none" is only
reported after full (symmetry-reduced) exhaustion; a budget cutoff is
reported as "budget_exceeded", never as nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import InputError, ResourceBudget
from .exactlp import convex_hulls_common_point
from .geometry import PointConfiguration
from .graphs import Graph, VertexPartition
from .splitting import (Splitting, SplittingSpec, certificate_for,
                        check_splitting, is_weakly_q_stable, leftover_cap,
                        required_min)

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass
class SearchProblem:
    partition: VertexPartition
    spec: SplittingSpec
    graph: Graph | None = None
    host: SimplicialComplex | None = None
    mode: str = "combinatorial"
    points: PointConfiguration | None = None
    caps: list | None = None
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.graph is None and self.host is None:
            raise InputError("need a graph or a host complex")
        ground = set(self.partition.ground)
        if self.graph is not None and ground != set(self.graph.vertices):
            raise InputError("partition must cover the graph's vertex set")
        if self.graph is None and ground != set(self.host.vertices):
            raise InputError("partition must cover the host's vertex set")
        if self.mode not in ("combinatorial", "geometric"):
            raise InputError("unknown mode %r" % (self.mode,))
        if self.mode == "geometric":
            if self.points is None:
                raise InputError("geometric mode needs a point configuration")
            if len(self.points) < max(ground):
                raise InputError("need a point for every vertex label")
            if self.caps is None:
                self.caps = [len(b) // self.spec.q for b in self.partition.blocks]
        if self.caps is not None and len(self.caps) != self.partition.m:
            raise InputError("need one cap per block")


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
    """Per-problem tables, indexed by position in label order."""

    def __init__(self, problem):
        p = problem
        spec = p.spec
        self.q = q = spec.q
        self.order = order = sorted(p.partition.ground)
        self.n = n = len(order)
        if spec.stability >= 2 and not all(isinstance(v, int) for v in order):
            raise InputError("stability needs integer labels")
        self.block_of = block_of = [p.partition.block_of(v) for v in order]
        self.mins = [required_min(spec.flavor, len(b), q) for b in p.partition.blocks]
        self.unused_cap = leftover_cap(spec.flavor, q)
        self.caps = p.caps
        self.balanced = spec.balanced
        self.weak = spec.weak_stability
        self.points = p.points if p.mode == "geometric" else None
        self.block_mask = block_mask = [0] * p.partition.m
        for d, j in enumerate(block_of):
            block_mask[j] |= 1 << d
        # later[d]: the later positions a set holding position d must skip
        pos = {v: d for d, v in enumerate(order)}
        later = [[] for _ in range(n)]
        if p.graph is not None:
            for a, b in p.graph.edges:
                x, y = pos[a], pos[b]
                later[min(x, y)].append(max(x, y))
        if spec.stability >= 2:
            for d in range(n):
                e = d + 1
                while e < n and order[e] - order[d] < spec.stability:
                    later[d].append(e)
                    e += 1
        # keep[d]: what a set's candidate mask keeps when position d joins it;
        # touch[d]: the blocks whose candidates that step can shrink
        full = (1 << n) - 1
        after = [full ^ ((2 << d) - 1) for d in range(n)]
        self.keep, self.touch = [], []
        for d, ps in enumerate(later):
            kill = 0
            for e in ps:
                kill |= 1 << e
            self.keep.append(after[d] & ~kill)
            self.touch.append({block_of[e] for e in ps})
        self.after_in_block = [block_mask[j] & a for j, a in zip(block_of, after)]
        self.rem_after = [x.bit_count() for x in self.after_in_block]
        # facet bitmask filters when no graph is available
        self.vmask = None
        if p.graph is None:
            facets = p.host.facets
            self.full_facets = (1 << len(facets)) - 1
            vmask = {v: 0 for v in order}
            for idx, f in enumerate(facets):
                for v in f:
                    vmask[v] |= 1 << idx
            self.vmask = [vmask[v] for v in order]


def _balance_ok(sizes, i, rest):
    """Can the size spread still end within 1 after set i grows by one?"""
    hi = lo = sizes[i] + 1
    for x, s in enumerate(sizes):
        if x != i:
            if s > hi:
                hi = s
            if s < lo:
                lo = s
    return hi - (lo + rest) <= 1


def _starved(cand, counts, blocks, mins, block_mask):
    """Does a set with these candidates and counts fall short in a block?"""
    for j in blocks:
        if (cand & block_mask[j]).bit_count() < mins[j] - counts[j]:
            return True
    return False


def _leaf(ctx, choice, deficit):
    if any(x > 0 for x in deficit):
        return None
    members = [[] for _ in range(ctx.q)]
    for v, c in zip(ctx.order, choice):
        if c < ctx.q:
            members[c].append(v)
    sets = [tuple(m) for m in members]
    if ctx.balanced and max(map(len, sets)) - min(map(len, sets)) > 1:
        return None
    if ctx.weak is not None and is_weakly_q_stable(sets, ctx.weak) is not True:
        return None
    point = None
    if ctx.points is not None:
        if any(not s for s in sets):
            return None
        got = convex_hulls_common_point([ctx.points.subset(s) for s in sets])
        if got is None:
            return None
        point = got[0]
    return sets, point


def _search(problem, limit):
    """Returns (status, solutions, nodes): status is found | none | budget,
    solutions the first `limit` (or fewer) in search order, and nodes the
    visited nodes, root included, never more than the budget."""
    ctx = _Ctx(problem)
    q, n = ctx.q, ctx.n
    mins, caps, block_of, block_mask = ctx.mins, ctx.caps, ctx.block_of, ctx.block_mask
    keep, touch, rem_after = ctx.keep, ctx.touch, ctx.rem_after
    after_in_block, unused_cap, vmask = ctx.after_in_block, ctx.unused_cap, ctx.vmask
    balanced = ctx.balanced
    cand = [(1 << n) - 1] * q
    fmask = None if vmask is None else [ctx.full_facets] * q
    counts = [[0] * len(mins) for _ in range(q)]
    sizes = [0] * q
    deficit = [q * x for x in mins]
    unused = [0] * len(mins)
    used = 0                 # sets holding a vertex; they are sets 0..used-1
    choice = [-1] * n        # choice in force at each depth; q means unused
    lone = [None] * n        # the one set that needs the vertex; -1 when two do
    saved = [None] * n       # candidate and facet masks of the set extended at each depth
    solutions = []
    if problem.budget < 1:
        return "budget", solutions, 0
    nodes, d = 1, 0
    while True:
        if d == n:
            found = _leaf(ctx, choice, deficit)
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
            cand[c], f = saved[d]
            if fmask is not None:
                fmask[c] = f
        else:
            # first arrival: which sets cannot afford to miss this vertex?
            short = [x for x in range(q) if (cand[x] & after_in_block[d]).bit_count()
                     < mins[j] - counts[x][j]]
            lone[d] = short[0] if len(short) == 1 else (-1 if short else None)
        must = lone[d]
        c += 1
        hi = used + 1 if used < q else q  # symmetry: only the first empty set may open
        if must is not None:
            c, hi = max(c, must), min(hi, must + 1)
        while c < hi:
            if (cand[c] >> d & 1 and (caps is None or counts[c][j] < caps[j])
                    and (fmask is None or fmask[c] & vmask[d])
                    and (not balanced or _balance_ok(sizes, c, n - d - 1))):
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
            saved[d] = cand[c], None if fmask is None else fmask[c]
            cand[c] &= keep[d]
            if fmask is not None:
                fmask[c] &= vmask[d]
            if deficit[j] > rem_after[d] or _starved(cand[c], cnt, touch[d], mins, block_mask):
                continue  # pruned: the next pass undoes choice[d] and tries the one after
        if nodes == problem.budget:
            return "budget", solutions, nodes
        nodes += 1
        d += 1
    return ("found" if solutions else "none"), solutions, nodes


def _verify(problem, sets):
    if problem.graph is not None:
        return check_splitting(problem.graph, problem.partition, sets, problem.spec)
    return certificate_for(problem.host.is_face, problem.partition, sets, problem.spec)


def find_splitting(problem: SearchProblem) -> SearchOutcome:
    status, solutions, nodes = _search(problem, 1)
    if status == "found":
        sets, point = solutions[0]
        cert = _verify(problem, sets)
        if not cert.ok:
            # a fault in the search, not a proven negative: the CLI reports it as internal
            raise AssertionError("search produced a splitting its own certificate rejects")
        return SearchOutcome("found", Splitting(sets), cert, nodes, point)
    if status == "budget":
        return SearchOutcome("budget_exceeded", None, None, nodes)
    return SearchOutcome("exhausted_none", None, None, nodes)


def enumerate_splittings(problem: SearchProblem, limit) -> list:
    if limit < 0:
        raise InputError("limit must be nonnegative")
    if limit == 0:
        return []
    status, solutions, nodes = _search(problem, limit)
    if status == "budget":
        raise ResourceBudget("node budget hit after %d splittings" % len(solutions))
    out = []
    for sets, point in solutions:
        cert = _verify(problem, sets)
        if not cert.ok:
            raise AssertionError("enumerated splitting fails its certificate")
        outcome = SearchOutcome("found", Splitting(sets), cert, nodes, point)
        out.append(outcome)
    return out
