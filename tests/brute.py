"""Brute-force splitting oracle shared by the tests.

It enumerates independent sets as bitmasks and asks the certificate about
every family, so it shares no search code with the solver.
"""

from fairsplit.splitting import Splitting, check_splitting


def independent_label_sets(g, stability):
    """Every independent set of g (as mask + label tuple) whose sorted labels
    are pairwise at least `stability` apart; includes the empty set."""
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    nbr = [0] * g.n
    for u, w in g.edges:
        nbr[pos[u]] |= 1 << pos[w]
        nbr[pos[w]] |= 1 << pos[u]
    out = []
    for mask in range(1 << g.n):
        chosen = [i for i in range(g.n) if mask >> i & 1]
        if any(nbr[i] & mask for i in chosen):
            continue
        labels = tuple(verts[i] for i in chosen)
        if any(b - a < stability for a, b in zip(labels, labels[1:])):
            continue
        out.append((mask, labels))
    return out


def brute_verdict(g, part, spec):
    """Does any q-tuple of pairwise disjoint faces satisfy `spec`?

    Families are visited with non-decreasing candidate index, so each
    unordered family appears once; only the empty face may repeat.
    """
    candidates = independent_label_sets(g, spec.stability)

    def rec(start, used, chosen):
        if len(chosen) == spec.q:
            return check_splitting(g, part, Splitting(chosen), spec).ok
        for i in range(start, len(candidates)):
            mask, labels = candidates[i]
            if mask & used:
                continue
            nxt = i if mask == 0 else i + 1
            if rec(nxt, used | mask, chosen + [labels]):
                return True
        return False

    return rec(0, 0, [])
