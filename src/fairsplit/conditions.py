"""Checkable sufficient conditions for the existence of (almost fair or
transversal) splittings by independent sets.

Each predicate tests the hypotheses of one known sufficient condition from
the literature, treated as a black box: when the hypotheses hold, a splitting
of the advertised kind exists, and the search engine should confirm it on any
desk-size instance.  Nothing here computes topology; the recognizers are pure
graph/arithmetic tests.

The six conditions:
  * neighborhood_bound  -- every vertex has 2|N(v)| + |N2(v)| < q and the
    graph has at least (q-1)n + 1 vertices (N2 counts vertices at distance
    exactly two).
  * path_deletion       -- prime power q, blocks of size >= q-1, at least
    (q-1)(m+2) + 1 vertices, and some simple path whose edge deletion brings
    every vertex under the neighborhood bound.
  * cliques_plus_isolated_shape -- the graph is a disjoint union of n cliques
    of size q-1 and one isolated vertex (prime q).
  * long_path_shape     -- the graph is a simple path on (q-1)n + 1 vertices
    (prime power q >= 4).
  * path_union_cliques_shape -- edge-disjoint union of a simple path and
    pairwise vertex-disjoint (q-1)-cliques on (q-1)n + 1 vertices, n >= m+1,
    prime q, blocks >= q-1.
  * transversal_size    -- prime power q, neighborhood bound everywhere, and
    every block of size >= 2q-1; yields q disjoint independent transversals.

Each rule is coded once: neighborhood_values gives 2|N(v)| + |N2(v)| per
vertex of an adjacency map, for worst_neighborhood and for path deletion
(on the graph minus the path), and _is_disjoint_cliques is the clique test
of both clique shapes, q = 2 included.  The two path conditions are their
gates and one predicate on the adjacency map left after deleting a path's
edges; _path_condition evaluates both, testing a given path or searching
for one.  It copies the graph's adjacency map once, and the search deletes
and restores one edge of that copy as its DFS extends and backtracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Budget, InputError
from .graphs import Graph, VertexPartition

PATH_SEARCH_BUDGET = 2_000_000


def _least_prime_factor(n):
    """The least prime factor of n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n):
    return n >= 2 and _least_prime_factor(n) == n


def is_prime_power(n):
    if n < 2:
        return False
    p = _least_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def neighborhood_values(adj):
    """(2|N(v)| + |N2(v)|, v) for every vertex v of the adjacency map, in its
    order; N2(v) holds the vertices at distance exactly two from v."""
    for v, nb in adj.items():
        second = set()
        for u in nb:
            second |= adj[u]
        second -= nb
        second.discard(v)
        yield 2 * len(nb) + len(second), v


def worst_neighborhood(g: Graph):
    """(max over v of 2|N(v)| + |N2(v)|, the first vertex attaining it)."""
    return max(neighborhood_values(g.adj), key=lambda pair: pair[0],
               default=(-1, None))


def neighborhood_bound(g: Graph, q, n):
    worst, arg = worst_neighborhood(g)
    degree_ok = worst < q
    size_ok = g.n >= (q - 1) * n + 1
    return {"ok": degree_ok and size_ok, "worst_value": worst,
            "worst_vertex": arg, "degree_ok": degree_ok, "size_ok": size_ok}


def _path_edge_set(g: Graph, path):
    """Validate a vertex sequence as a simple path of g; return its edges."""
    if len(set(path)) != len(path):
        raise InputError("path repeats a vertex")
    edges = set()
    for u, w in zip(path, path[1:]):
        if not g.has_edge(u, w):
            raise InputError("path uses the non-edge (%s, %s)" % (u, w))
        edges.add((min(u, w), max(u, w)))
    return edges


def _search_simple_path(adj, holds, budget):
    """First simple path (as a vertex list, [] = delete nothing) whose edge
    deletion leaves the adjacency map `adj` satisfying `holds`, None if none
    exists.  Deterministic order: empty path, then DFS by ascending labels;
    reversals are skipped.  The DFS keeps one neighbour iterator per path
    vertex on an explicit stack, and each path it goes on to extend spends
    one node of `budget`.  It deletes edge (last, w) from `adj` as it extends
    the path to w and restores it as it backtracks, so `holds` only reads the
    map; on return the map is left edited."""
    if holds(adj):
        return []

    def neighbours(v):
        budget.spend()
        return iter(sorted(adj[v]))

    for v in sorted(adj):
        path, used = [v], {v}
        stack = [neighbours(v)]
        while stack:
            w = next((w for w in stack[-1] if w not in used), None)
            last = path[-1]
            if w is None:
                stack.pop()
                path.pop()
                if path:
                    used.discard(last)
                    adj[path[-1]].add(last)
                    adj[last].add(path[-1])
                continue
            path.append(w)
            used.add(w)
            adj[last].discard(w)
            adj[w].discard(last)
            if path[0] < w and holds(adj):
                return list(path)
            stack.append(neighbours(w))
    return None


def _path_condition(g: Graph, gates, holds, path, budget):
    """{"ok", "path", **gates}; ok, once every gate passes, with the given
    path or else the first one _search_simple_path finds from the Budget
    `budget`, when deleting its edges leaves an adjacency map that holds."""
    out = {"ok": False, "path": None, **gates}
    if not all(gates.values()):
        return out
    adj = {v: set(nb) for v, nb in g.adj.items()}
    if path is not None:
        for u, w in _path_edge_set(g, path):
            adj[u].discard(w)
            adj[w].discard(u)
        found = list(path) if holds(adj) else None
    else:
        found = _search_simple_path(adj, holds, budget)
    if found is not None:
        out.update(ok=True, path=found)
    return out


def path_deletion(g: Graph, partition: VertexPartition, q, path, budget):
    """The fragment; see _path_condition for `path` and `budget`."""
    gates = {
        "prime_power": is_prime_power(q),
        "blocks_ok": all(len(b) >= q - 1 for b in partition.blocks),
        "size_ok": g.n >= (q - 1) * (partition.m + 2) + 1,
    }
    return _path_condition(g, gates,
                           lambda adj: all(val < q for val, _ in
                                           neighborhood_values(adj)),
                           path, budget)


def _components(adj):
    seen, comps = set(), []
    for v in sorted(adj):
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _is_disjoint_cliques(adj, size):
    """Every component an isolated vertex or a complete graph on `size`
    vertices.  Degrees are checked first, which is cheap and usually decides:
    a vertex with an edge needs degree size-1 (so for size 1 the graph must
    be edgeless), and then a component of `size` vertices is complete."""
    if any(nb and len(nb) != size - 1 for nb in adj.values()):
        return False
    return all(len(c) in (1, size) for c in _components(adj))


def cliques_plus_isolated_shape(g: Graph, q):
    """Disjoint union of n >= 1 cliques of size q-1 and one isolated vertex."""
    out = {"ok": False, "n": None, "prime": is_prime(q)}
    n, rem = divmod(g.n - 1, q - 1)
    # n cliques of size q-1 hold n * C(q-1, 2) edges, which leaves exactly
    # one vertex isolated (for q = 2 the cliques are isolated vertices too)
    if (rem == 0 and n >= 1 and len(g.edges) == n * (q - 1) * (q - 2) // 2
            and _is_disjoint_cliques(g.adj, q - 1)):
        out.update(ok=True, n=n)
    return out


def long_path_shape(g: Graph, q, n):
    """A simple path on exactly (q-1)n + 1 vertices; prime power q >= 4."""
    out = {"ok": False, "prime_power_ge4": q >= 4 and is_prime_power(q),
           "size_ok": n >= 1 and g.n == (q - 1) * n + 1}
    # a connected graph with n - 1 edges is a tree, and a tree whose degrees
    # are at most 2 is a path
    shape = (len(g.edges) == g.n - 1
             and all(len(nb) <= 2 for nb in g.adj.values())
             and len(_components(g.adj)) == 1)
    out["is_path"] = shape
    out["ok"] = shape and out["prime_power_ge4"] and out["size_ok"]
    return out


def path_union_cliques_shape(g: Graph, partition: VertexPartition, q,
                             path, budget):
    """Edge-disjoint union of a simple path and pairwise vertex-disjoint
    cliques of size q-1, on (q-1)n + 1 vertices with n >= m+1; prime q;
    blocks of size >= q-1.  `path` and `budget` as in path_deletion."""
    n, rem = divmod(g.n - 1, q - 1)
    gates = {
        "prime": is_prime(q),
        "blocks_ok": all(len(b) >= q - 1 for b in partition.blocks),
        "count_ok": rem == 0 and n >= partition.m + 1,
    }
    out = _path_condition(g, gates,
                          lambda adj: _is_disjoint_cliques(adj, q - 1),
                          path, budget)
    out["n"] = n if rem == 0 else None
    return out


def transversal_size(g: Graph, partition: VertexPartition, q):
    worst, arg = worst_neighborhood(g)
    out = {
        "ok": False,
        "prime_power": is_prime_power(q),
        "worst_value": worst,
        "worst_vertex": arg,
        "degree_ok": worst < q,
        "blocks_ok": all(len(b) >= 2 * q - 1 for b in partition.blocks),
    }
    out["ok"] = out["prime_power"] and out["degree_ok"] and out["blocks_ok"]
    return out


@dataclass
class ConditionReport:
    q: int
    n: int
    fragments: dict = field(default_factory=dict)

    @property
    def any_certified(self):
        """True when at least one full sufficient condition holds."""
        keys = ("path_deletion", "path_union_cliques_shape",
                "transversal_size")
        return any(self.fragments[k]["ok"] for k in keys)

    def to_json(self):
        return {"schema": "conditions/1", "q": self.q, "n": self.n,
                "conditions": self.fragments}


def check_conditions(g: Graph, partition: VertexPartition, q, n=None,
                     path=None, budget=PATH_SEARCH_BUDGET):
    """Evaluate every condition; n defaults to the largest value compatible
    with the vertex count.  The two path searches spend from one Budget of
    `budget` nodes, the second drawing on what the first left."""
    if q < 2:
        raise InputError("need q >= 2")
    if not partition.covers(g.n):
        raise InputError("partition must cover the graph's vertex set")
    if n is None:
        n = max((g.n - 1) // (q - 1), 1)
    elif n < 1:
        raise InputError("need n >= 1")
    if path is not None:
        if not all(1 <= v <= g.n for v in path):
            raise InputError("path vertices must lie in 1..%d" % g.n)
        _path_edge_set(g, path)  # a bad path is refused whatever the gates
    budget = Budget(budget, "simple-path search budget exceeded")
    deletion = path_deletion(g, partition, q, path, budget)
    union = path_union_cliques_shape(g, partition, q, path, budget)
    frags = {
        "neighborhood_bound": neighborhood_bound(g, q, n),
        "path_deletion": deletion,
        "cliques_plus_isolated_shape": cliques_plus_isolated_shape(g, q),
        "long_path_shape": long_path_shape(g, q, n),
        "path_union_cliques_shape": union,
        "transversal_size": transversal_size(g, partition, q),
    }
    return ConditionReport(q=q, n=n, fragments=frags)
