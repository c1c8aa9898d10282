"""Kneser hypergraphs of stable sets, exact chromatic numbers, and the
reduction that turns a chromatic lower bound into a splitting of a path.

KG^q(n, k) has the k-subsets of 1..n as vertices and a hyperedge for every q
pairwise disjoint subsets.  The "path" stability filter keeps subsets whose
elements pairwise differ by at least q; "cycle" additionally requires the
wrap-around gap first + n - last to be at least q.  build_hypergraph counts
the stable subsets in closed form and checks the vertex budget before it
enumerates any.

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
from itertools import combinations
from math import comb

from .errors import ContractError, InputError, ResourceBudget
from .graphs import VertexPartition, path_graph, power_path
from .splitting import Splitting, SplittingSpec, check_splitting, is_q_stable
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting

VERTEX_BUDGET = 200000
EDGE_BUDGET = 5_000_000


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
    """k-subsets of 1..n passing the stability filter, in colex order."""
    out = []
    for c in combinations(range(1, n + 1), k):
        if stability in ("path", "cycle"):
            if any(b - a < q for a, b in zip(c, c[1:])):
                continue
        if stability == "cycle" and len(c) >= 2 and c[0] + n - c[-1] < q:
            continue
        out.append(c)
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


def stable_subset_count(n, k, q, stability):
    """len(stable_subsets(n, k, q, stability)) in closed form: choosing k
    elements pairwise q apart on a path of n is choosing k of
    n - (q-1)(k-1); on a cycle of n (k >= 2) it is n*C(m, k)/m with
    m = n - (q-1)k."""
    if stability == "none":
        return comb(n, k)
    if stability == "cycle" and k >= 2:
        m = n - (q - 1) * k
        return n * comb(m, k) // m if m > 0 else 0
    return comb(max(n - (q - 1) * (k - 1), 0), k)


@dataclass
class Hypergraph:
    vertices: list  # k-subsets as tuples
    edges: list     # sorted tuples of vertex indices


def build_hypergraph(inst: KneserInstance, vertex_budget=VERTEX_BUDGET,
                     edge_budget=EDGE_BUDGET):
    count = stable_subset_count(inst.n, inst.k, inst.q, inst.stability)
    if count > vertex_budget:
        raise ResourceBudget("%d vertices exceed the budget" % count)
    verts = stable_subsets(inst.n, inst.k, inst.q, inst.stability)
    masks = [sum(1 << v for v in c) for c in verts]
    edges = []

    def grow(start, chosen, used):
        if len(chosen) == inst.q:
            edges.append(tuple(chosen))
            if len(edges) > edge_budget:
                raise ResourceBudget("edge budget exceeded")
            return
        for i in range(start, len(verts)):
            if not masks[i] & used:
                grow(i + 1, chosen + [i], used | masks[i])

    if inst.k == 0:
        # the empty set is disjoint from itself only vacuously; a hyperedge
        # needs q distinct vertices, and there is just one 0-subset
        return Hypergraph(verts, [])
    grow(0, [], 0)
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
    precolored vertices (whose colors are at most c), or None; returns
    (colors, nodes visited).

    DSATUR branching (Brélaz 1979) on one explicit stack.  The next vertex is
    the first uncolored one with every color forbidden, else the one with the
    most forbidden colors, then the highest degree, then the lowest index; its
    colors are tried in ascending order up to one above the highest color used
    so far.  A color is forbidden at w when some hyperedge through w has every
    other member in that color.  hits[w][col] counts those hyperedges and
    nforb[w] counts the colors with a nonzero count; painting or clearing a
    vertex updates both for the hyperedges through it.  Raises ResourceBudget
    once the search has visited more than `budget` nodes.
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
    nodes = 0
    stack = []  # [vertex, its current color or 0, colors used above it]
    descend = True
    while True:
        if descend:
            nodes += 1
            if nodes > budget:
                raise ResourceBudget("coloring node budget exceeded")
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
                return list(colors), nodes
            if not (bf >= c and bf >= used + 1):
                stack.append([best, 0, used])
        if not stack:
            return None, nodes
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


def chromatic_number(h: Hypergraph, budget=20_000_000):
    """Exact chromatic number with a verified witness coloring.

    Tries c = lb, lb + 1, ... in turn; the nodes of every attempt count
    against the one `budget`, and ResourceBudget is raised once their total
    exceeds it.
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
    spent = 0
    for c in range(lb, nv + 1):
        pre = [(v, col) for v, col in precolored if col <= c]
        witness, nodes = _colorable(h, c, pre, budget - spent)
        spent += nodes
        if witness is not None:
            if not is_proper(h, witness):
                raise ContractError("witness coloring is not proper")
            return c, witness
    raise AssertionError("unreachable: nv colors always suffice")


# ---------------------------------------------------------------------------
# the coloring C(S) and the splitting pipeline


def block_coloring(q, ks):
    """The coloring C(S) of the q-stable k-sets of a path split into
    consecutive blocks of sizes q*k_j - 1: C(S) is the first block holding at
    least k_j elements of S, else m + 1."""
    if any(kj < 1 for kj in ks):
        raise InputError("block parameters must be positive")
    sizes = [q * kj - 1 for kj in ks]
    n = sum(sizes)
    k = sum(kj - 1 for kj in ks)
    blocks, start = [], 1
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    verts = stable_subsets(n, k, q, "path")
    colors = []
    for s in verts:
        sset = set(s)
        color = len(ks) + 1
        for j, b in enumerate(blocks):
            if len(sset & set(b)) >= ks[j]:
                color = j + 1
                break
        colors.append(color)
    return verts, colors, blocks


@dataclass
class PipelineResult:
    status: str  # found | falsification
    splitting: Splitting | None = None
    certificate: object = None
    details: dict = field(default_factory=dict)


def _mono_edge_search(n_padded, padded_blocks, q, ks, budget):
    """q pairwise disjoint q-stable k-sets with |S_i ∩ V'_j| = k_j - 1."""
    k = sum(kj - 1 for kj in ks)
    if k == 0:
        return [tuple() for _ in range(q)]
    g = power_path(n_padded, q - 1)
    partition = VertexPartition(padded_blocks, n_padded)
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=q)
    caps = [kj - 1 for kj in ks]
    problem = SearchProblem(partition=partition, spec=spec, graph=g,
                            caps=caps, budget=budget)
    out = find_splitting(problem)
    if out.status == "budget_exceeded":
        raise ResourceBudget("monochromatic-edge search exceeded its budget")
    if out.status != "found":
        return None
    return out.splitting.sets


def rebalance_q2(n_padded, padded_partition, s1, s2, pad_blocks):
    """The successor-vertex rebalancing for q = 2.

    Inputs are the two equal-size disjoint 2-stable sets on the padded path
    meeting every padded block in exactly k_j - 1 vertices, plus the padding
    blocks.  Removes ell_2 - ell_1 - 1 vertices (ell_i = padded vertices
    inside S_i) from the larger stripped set, each taken as the
    smallest-label remaining vertex of that set inside the block whose
    padding provides an uncovered successor.  Returns the balanced pair.
    """
    s1, s2 = tuple(sorted(s1)), tuple(sorted(s2))
    if len(s1) != len(s2):
        raise ContractError("rebalance expects equal-size inputs")
    if set(s1) & set(s2):
        raise ContractError("rebalance expects disjoint inputs")
    for s in (s1, s2):
        if not is_q_stable(s, 2):
            raise ContractError("rebalance expects 2-stable inputs")
    pad_union = set()
    pad_block_of = {}
    for j, b in enumerate(pad_blocks):
        for v in b:
            pad_union.add(v)
            pad_block_of[v] = j
    ell1 = len(set(s1) & pad_union)
    ell2 = len(set(s2) & pad_union)
    swapped = False
    if ell1 > ell2:
        s1, s2, ell1, ell2 = s2, s1, ell2, ell1
        swapped = True
    stripped1 = [v for v in s1 if v not in pad_union]
    stripped2 = [v for v in s2 if v not in pad_union]
    need = ell2 - ell1 - 1
    removals = []
    if need > 0:
        orig_blocks = [set(b) - pad_union for b in padded_partition.blocks]
        current1 = [set(orig_blocks[j]) & set(stripped1)
                    for j in range(padded_partition.m)]
        taken = set(s1) | set(s2)
        for u in sorted(set(s2) & pad_union):
            if len(removals) == need:
                break
            succ = u + 1
            if succ > n_padded or succ not in pad_union or succ in taken:
                continue
            j = pad_block_of[succ]
            if not current1[j]:
                raise ContractError(
                    "rebalance anomaly: no removable vertex in block %d" % (j + 1))
            victim = min(current1[j])
            current1[j].discard(victim)
            removals.append(victim)
        if len(removals) < need:
            raise ContractError(
                "rebalance anomaly: only %d of %d successor positions exist"
                % (len(removals), need))
        stripped1 = [v for v in stripped1 if v not in set(removals)]
    pair = (stripped2, stripped1) if swapped else (stripped1, stripped2)
    return Splitting(pair), removals


def splitting_from_coloring(n, partition, q, budget=DEFAULT_NODE_BUDGET,
                            check_chromatic=False):
    """The full reduction on the path with vertices 1..n.

    Pads every block to size q*k_j - 1 with fresh trailing path vertices
    (block order ascending), finds a monochromatic last-color hyperedge by
    exhaustive search, strips the padding, and for q = 2 rebalances.  The
    output is re-verified as an almost fair splitting by q-stable sets; for
    q = 2 it is additionally balanced.
    """
    if q < 2:
        raise InputError("need q >= 2")
    if set(partition.ground) != set(range(1, n + 1)):
        raise InputError("partition must cover the path 1..%d" % n)
    ks = [len(b) // q + 1 for b in partition.blocks]
    ts = [q * kj - len(b) for kj, b in zip(ks, partition.blocks)]
    pad_blocks = []
    nxt = n + 1
    padded_blocks = []
    for j, b in enumerate(partition.blocks):
        pad = tuple(range(nxt, nxt + ts[j] - 1))
        nxt += ts[j] - 1
        pad_blocks.append(pad)
        padded_blocks.append(tuple(b) + pad)
    n_padded = nxt - 1
    k = sum(kj - 1 for kj in ks)
    details = {"ks": ks, "ts": ts, "k": k, "n_padded": n_padded,
               "pad_blocks": [list(b) for b in pad_blocks]}

    if check_chromatic:
        inst = KneserInstance(n_padded, k, q, "path") if k > 0 else None
        if inst is not None:
            h = build_hypergraph(inst)
            chi, _ = chromatic_number(h)
            details["chi"] = chi
            details["chi_formula"] = chromatic_formula(n_padded, k, q)

    mono = _mono_edge_search(n_padded, padded_blocks, q, ks, budget)
    if mono is None:
        return PipelineResult("falsification", details={
            **details,
            "note": "no monochromatic last-color hyperedge exists at this "
                    "size, refuting the chromatic hypothesis"})
    details["mono_edge"] = [list(s) for s in mono]

    padded_partition = VertexPartition(padded_blocks, n_padded)
    if q == 2:
        splitting, removals = rebalance_q2(n_padded, padded_partition,
                                           mono[0], mono[1], pad_blocks)
        details["removals"] = removals
        ell = [len(set(s) & set().union(*pad_blocks)) if pad_blocks else 0
               for s in mono]
        details["ell"] = sorted(ell)
    else:
        pad_union = set().union(*pad_blocks) if pad_blocks else set()
        splitting = Splitting([tuple(v for v in s if v not in pad_union)
                               for s in mono])

    spec = SplittingSpec(q=q, flavor="almost_fair", balanced=(q == 2),
                         stability=q)
    cert = check_splitting(path_graph(n), partition, splitting, spec)
    if not cert.ok:
        raise ContractError("pipeline output fails its certificate: %s"
                            % cert.to_json())
    return PipelineResult("found", splitting, cert, details)
