"""Kneser hypergraphs of stable sets, exact chromatic numbers, and the
reduction that turns a chromatic lower bound into a splitting of a path.

KG^q(n, k) has the k-subsets of 1..n as vertices and a hyperedge for every q
pairwise disjoint subsets.  The "path" stability filter keeps subsets whose
elements pairwise differ by at least q; "cycle" additionally requires the
wrap-around gap first + n - last to be at least q.  build_hypergraph counts
the stable subsets in closed form, one factor at a time up to the vertex
budget, and checks that budget before it enumerates any; its search for
hyperedges charges every partial family it visits to the edge budget, and
drops families that cannot be completed.

chromatic_number tries c = lower bound, lower bound + 1, ... with one
iterative DSATUR search per c (Brélaz 1979).  The search keeps, for every
vertex and color, how many hyperedges that color would make monochromatic,
and updates those counts as vertices are colored and uncolored, so no node
rescans a hyperedge list.  One node budget covers all the attempts.

The reduction: given a path partitioned into blocks, pad each block with
enough trailing path vertices to bring it to size q*k_j - 1, search for q
pairwise disjoint q-stable k-sets meeting every padded block in exactly
k_j - 1 vertices (such families are exactly the hyperedges monochromatic in
the last color of the block coloring C(S)), strip the padding, and for q = 2
rebalance so the two set sizes differ by at most one.  If no such family
exists the chromatic hypothesis itself is refuted at this size, which the
pipeline reports as a falsification instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations

from .errors import (Budget, ContractError, InputError, ResourceBudget,
                     check_size)
from .graphs import Graph, VertexPartition
from .splitting import (Splitting, SplittingSpec, almost_fair_quota,
                        check_splitting, is_q_stable)
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting

VERTEX_BUDGET = 200000
EDGE_BUDGET = 5_000_000
CHI_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class KneserInstance:
    n: int
    k: int
    q: int
    stability: str = "none"  # none | path | cycle

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.q < 2:
            raise InputError("need n >= 1, k >= 0, q >= 2")
        if self.stability not in ("none", "path", "cycle"):
            raise InputError("unknown stability %r" % (self.stability,))


def stable_subsets(n, k, q, stability):
    """k-subsets of 1..n passing the stability filter, in colex order: the
    path-stable ones are c_i + (q-1)(i-1) for the k-subsets c of
    1..n - (q-1)(k-1), and the cycle-stable ones those with first + n - last
    >= q."""
    if stability == "none":
        out = list(combinations(range(1, n + 1), k))
    else:
        out = [tuple(x + (q - 1) * i for i, x in enumerate(c))
               for c in combinations(range(1, n - (q - 1) * (k - 1) + 1), k)]
        if stability == "cycle":
            out = [c for c in out if len(c) < 2 or c[0] + n - c[-1] >= q]
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


def _comb_past(m, k, cap):
    """comb(m, k) for m >= 0, or cap + 1 once it passes cap.  It is built one
    factor at a time: the partial products C(m - k + i, i) grow with i, so
    the first one past cap shows the count is too, and a huge count costs
    only the few multiplications that reach it."""
    k = min(k, m - k)
    if k < 0:
        return 0
    count = 1
    for i in range(1, k + 1):
        count = count * (m - k + i) // i
        if count > cap:
            return cap + 1
    return count


def stable_subset_count(n, k, q, stability):
    """len(stable_subsets(n, k, q, stability)) in closed form, or
    VERTEX_BUDGET + 1 once it passes that budget: choosing k elements
    pairwise q apart on a path of n is choosing k of n - (q-1)(k-1); on a
    cycle of n (k >= 2) it is n*C(m, k)/m with m = n - (q-1)k, which is at
    least C(m, k)."""
    cap = VERTEX_BUDGET
    if stability == "none":
        return _comb_past(n, k, cap)
    if stability == "cycle" and k >= 2:
        m = n - (q - 1) * k
        if m <= 0:
            return 0
        count = _comb_past(m, k, cap)
        return min(n * count // m, cap + 1)
    return _comb_past(max(n - (q - 1) * (k - 1), 0), k, cap)


@dataclass
class Hypergraph:
    vertices: list  # k-subsets as tuples
    edges: list     # sorted tuples of vertex indices


def build_hypergraph(inst: KneserInstance):
    """The hyperedges in lexicographic order of vertex indices, by a
    depth-first search over partial families on an explicit stack.  A family
    is dropped when fewer elements are unused than its missing sets need, or
    fewer candidate vertices are left than it misses; every family visited,
    complete or not, is charged to EDGE_BUDGET."""
    if stable_subset_count(inst.n, inst.k, inst.q, inst.stability) > VERTEX_BUDGET:
        raise ResourceBudget("more stable k-subsets than the vertex budget "
                             "of %d" % VERTEX_BUDGET)
    verts = stable_subsets(inst.n, inst.k, inst.q, inst.stability)
    masks = [sum(1 << v for v in c) for c in verts]
    edges = []
    spend = Budget(EDGE_BUDGET, "edge budget exceeded").spend
    stack = [(0, (), 0)]  # next candidate, the family, the elements it uses
    while stack:
        start, chosen, used = stack.pop()
        spend()
        need = inst.q - len(chosen)
        if need == 0:
            edges.append(chosen)
        elif inst.n - used.bit_count() >= inst.k * need:
            stack.extend(reversed([(i + 1, chosen + (i,), used | masks[i])
                                   for i in range(start, len(verts) - need + 1)
                                   if not masks[i] & used]))
    return Hypergraph(verts, edges)


def chromatic_formula(n, k, q):
    """ceil((n - q(k-1)) / (q-1)), the exact value for n >= qk."""
    return -((-(n - q * (k - 1))) // (q - 1))


def is_proper(h: Hypergraph, colors):
    """No hyperedge monochromatic (q >= 2 distinct colors not required --
    just at least two)."""
    for e in h.edges:
        cs = {colors[i] for i in e}
        if len(cs) == 1:
            return False
    return True


def _greedy_clique(h: Hypergraph):
    """For q = 2 only: greedy clique for a lower bound / symmetry anchor."""
    adj = {i: set() for i in range(len(h.vertices))}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    order = sorted(adj, key=lambda i: (-len(adj[i]), i))
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _colorable(h: Hypergraph, c, precolored, budget):
    """Decision search: a proper coloring with colors 1..c extending the
    precolored vertices (whose colors are at most c), or None.

    DSATUR branching (Brélaz 1979) on one explicit stack.  The next vertex is
    the first uncolored one with every color forbidden, else the one with the
    most forbidden colors, then the highest degree, then the lowest index; its
    colors are tried in ascending order up to one above the highest color used
    so far.  A color is forbidden at w when some hyperedge through w has every
    other member in that color.  hits[w][col] counts those hyperedges and
    nforb[w] counts the colors with a nonzero count; painting or clearing a
    vertex updates both for the hyperedges through it.  Every node visited
    is spent from the Budget `budget`.
    """
    nv = len(h.vertices)
    nbrs = [[] for _ in range(nv)]   # the other end of each 2-edge at v
    wider = [[] for _ in range(nv)]  # the other members of each wider edge
    for e in h.edges:
        for i in e:
            if len(e) == 2:
                nbrs[i].append(e[1] if i == e[0] else e[0])
            else:
                wider[i].append(tuple(u for u in e if u != i))
    degree = [len(a) + len(b) for a, b in zip(nbrs, wider)]
    colors = [0] * nv
    hits = [[0] * (c + 1) for _ in range(nv)]
    nforb = [0] * nv

    def completed(v, col):
        """For each hyperedge through v (colored col) with all members but
        one in color col, that one member.  A 2-edge always gives its other
        end.  The coloring stays proper, so no hyperedge is all col."""
        if not wider[v]:
            return nbrs[v]
        out = list(nbrs[v])
        for o in wider[v]:
            missing = [u for u in o if colors[u] != col]
            if len(missing) == 1:
                out.append(missing[0])
        return out

    def paint(v, col):
        colors[v] = col
        for w in completed(v, col):
            row = hits[w]
            if not row[col]:
                nforb[w] += 1
            row[col] += 1

    def clear(v, col):
        for w in completed(v, col):
            row = hits[w]
            row[col] -= 1
            if not row[col]:
                nforb[w] -= 1
        colors[v] = 0

    for v, col in precolored:
        paint(v, col)
    used = max([col for _, col in precolored], default=0)
    stack = []  # [vertex, its current color or 0, colors used above it]
    descend = True
    while True:
        if descend:
            budget.spend()
            best, bf, bd = -1, -1, -1
            for v in range(nv):
                if colors[v]:
                    continue
                f = nforb[v]
                if f >= c:
                    best, bf = v, f
                    break
                if f > bf or (f == bf and degree[v] > bd):
                    best, bf, bd = v, f, degree[v]
            if best < 0:
                return list(colors)
            stack.append([best, 0, used])
        if not stack:
            return None
        top = stack[-1]
        v, col, above = top
        if col:
            clear(v, col)
        row = hits[v]
        last = min(above + 1, c)
        col += 1
        while col <= last and row[col]:
            col += 1
        if col > last:
            stack.pop()
            descend = False
            continue
        paint(v, col)
        top[1] = col
        used = max(above, col)
        descend = True


def chromatic_number(h: Hypergraph, budget=CHI_NODE_BUDGET):
    """Exact chromatic number with a verified witness coloring.

    Tries c = lb, lb + 1, ... in turn, every attempt spending its nodes
    from one Budget of `budget` nodes.
    """
    nv = len(h.vertices)
    if nv == 0:
        return 0, []
    if not h.edges:
        return 1, [1] * nv
    q = len(h.edges[0])
    if q == 2:
        clique = _greedy_clique(h)
        lb = len(clique)
        precolored = [(v, i + 1) for i, v in enumerate(clique)]
    else:
        lb = 2
        precolored = [(h.edges[0][0], 1)]
    budget = Budget(budget, "coloring node budget exceeded")
    for c in range(lb, nv + 1):  # every precolored color is at most lb
        witness = _colorable(h, c, precolored, budget)
        if witness is not None:
            if not is_proper(h, witness):  # a fault of the search, not a verdict
                raise AssertionError("witness coloring is not proper")
            return c, witness
    raise AssertionError("unreachable: nv colors always suffice")


# ---------------------------------------------------------------------------
# the splitting pipeline


@dataclass
class PipelineResult:
    status: str  # found | falsification
    splitting: Splitting | None = None
    certificate: object = None
    details: dict = field(default_factory=dict)


def _mono_edge_search(padded_partition, q, budget):
    """q pairwise disjoint q-stable k-sets with |S_i ∩ V'_j| = k_j - 1, where
    the padded block V'_j has q*k_j - 1 vertices.  The search runs on the
    edgeless graph: q-stability already keeps apart every pair that the
    (q-1)-th power of the path joins."""
    caps = [almost_fair_quota(len(b), q) for b in padded_partition.blocks]
    if not any(caps):
        return [tuple() for _ in range(q)]
    g = Graph(len(padded_partition.ground), ())
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=q)
    problem = SearchProblem(partition=padded_partition, spec=spec, graph=g,
                            caps=caps, budget=budget)
    out = find_splitting(problem)
    if out.status == "budget_exceeded":
        raise ResourceBudget("monochromatic-edge search exceeded its budget")
    if out.status != "found":
        return None
    return out.splitting.sets


def rebalance_q2(n, padded_partition, s1, s2):
    """The successor-vertex rebalancing for q = 2.

    Inputs are the two equal-size disjoint 2-stable sets on the padded path
    meeting every padded block in exactly k_j - 1 vertices; the pads are the
    labels above n.  Removes ell_2 - ell_1 - 1 vertices (ell_i = pads inside
    S_i, S_1 the set with fewer) from the unpadded part of S_1: for each pad
    u of S_2 in turn whose successor is a pad outside S_1, the smallest-label
    remaining vertex inside the padded block of u + 1.  Every pad of S_2 but
    n_padded has a pad successor, which 2-stability keeps out of S_2, and at
    most ell_1 of them are in S_1, so at least ell_2 - ell_1 - 1 are free.
    Returns the balanced pair and the removals.
    """
    s1, s2 = tuple(sorted(s1)), tuple(sorted(s2))
    if len(s1) != len(s2):
        raise ContractError("rebalance expects equal-size inputs")
    if set(s1) & set(s2):
        raise ContractError("rebalance expects disjoint inputs")
    for s in (s1, s2):
        if not is_q_stable(s, 2):
            raise ContractError("rebalance expects 2-stable inputs")
    ell1, ell2 = (sum(1 for v in s if v > n) for s in (s1, s2))
    swapped = ell1 > ell2
    if swapped:
        s1, s2, ell1, ell2 = s2, s1, ell2, ell1
    block_of = padded_partition._block_of
    rest1 = [v for v in s1 if v <= n]
    removals = []
    for u in s2:
        if len(removals) >= ell2 - ell1 - 1:
            break
        if u > n and u + 1 in block_of and u + 1 not in s1:
            j = block_of[u + 1]
            victim = next((v for v in rest1 if block_of[v] == j), None)
            if victim is None:
                raise ContractError(
                    "rebalance anomaly: no removable vertex in block %d" % (j + 1))
            rest1.remove(victim)
            removals.append(victim)
    pair = (s2, rest1) if swapped else (rest1, s2)
    return Splitting([[v for v in s if v <= n] for s in pair]), removals


def splitting_from_coloring(n, partition, q, budget=DEFAULT_NODE_BUDGET):
    """The full reduction on the path with vertices 1..n.

    Pads every block to size q*k_j - 1 with fresh trailing path vertices
    (block order ascending), finds a monochromatic last-color hyperedge by
    exhaustive search, strips the padding (the labels above n), and for
    q = 2 rebalances.  A padded path over the instance vertex limit raises
    ResourceBudget before any pad is built.  The output is re-verified as an
    almost fair splitting by q-stable sets; for q = 2 it is additionally
    balanced.  The re-check runs on the edgeless graph on 1..n, as compose's
    does: for q >= 2, q-stable sets are independent in the path, so the
    verdict is the path's without building it.
    """
    if q < 2:
        raise InputError("need q >= 2")
    if not partition.covers(n):
        raise InputError("partition must cover the path 1..%d" % n)
    ks = [len(b) // q + 1 for b in partition.blocks]
    ts = [q * kj - len(b) for kj, b in zip(ks, partition.blocks)]
    # block j's pads are the labels ends[j]+1..ends[j+1]
    ends = list(accumulate((t - 1 for t in ts), initial=n))
    n_padded = check_size("padded path vertices", ends[-1])
    pad_blocks = [tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:])]
    padded_blocks = [tuple(b) + pad for b, pad in zip(partition.blocks, pad_blocks)]
    k = sum(kj - 1 for kj in ks)
    details = {"ks": ks, "ts": ts, "k": k, "n_padded": n_padded,
               "pad_blocks": [list(b) for b in pad_blocks]}

    padded_partition = VertexPartition(padded_blocks, n_padded)
    mono = _mono_edge_search(padded_partition, q, budget)
    if mono is None:
        return PipelineResult("falsification", details={
            **details,
            "note": "no monochromatic last-color hyperedge exists at this "
                    "size, refuting the chromatic hypothesis"})
    details["mono_edge"] = [list(s) for s in mono]

    if q == 2:
        splitting, removals = rebalance_q2(n, padded_partition, mono[0], mono[1])
        details["removals"] = removals
        details["ell"] = sorted(sum(1 for v in s if v > n) for s in mono)
    else:
        splitting = Splitting([tuple(v for v in s if v <= n) for s in mono])

    spec = SplittingSpec(q=q, flavor="almost_fair", balanced=(q == 2),
                         stability=q)
    cert = check_splitting(Graph(n, ()), partition, splitting, spec)
    if not cert.ok:
        raise ContractError("pipeline output fails its certificate: %s"
                            % cert.to_json())
    return PipelineResult("found", splitting, cert, details)
