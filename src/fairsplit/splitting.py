"""Splitting specifications, certificates, and the stability notions.

A splitting of a vertex-partitioned graph is an ordered family S_1, ..., S_q
of pairwise disjoint independent sets.  The per-block demands are

    fair        |S_i ∩ V_j| >= floor(|V_j| / q)
    almost fair |S_i ∩ V_j| >= floor((|V_j| + 1) / q) - 1, and at most q-1
                vertices of each V_j stay uncovered

and "balanced" additionally caps the size spread max|S_i| - min|S_i| at 1.

A set is s-stable when any two of its labels differ by at least s (so 2-stable
subsets of a path's vertex order are exactly its independent sets).  A family
is weakly w-stable when, after order-preserving relabeling of its union onto
1..(w-1)N+1, every window of w consecutive labels starting at 1 mod (w-1)
meets every member exactly once; the test is three-valued because the union
size can rule the relabeling out before anything is checked.  Each window
holds w labels of the union, one per member, so a weakly w-stable family of
disjoint sets has exactly w members: the spec's `weak` flag tests at w = q.

The certificate (`check_splitting`) costs time linear in the members of the
family: one pass through the partition's label -> block map gives the
counts, the leftovers and disjointness, and graph independence looks at
each edge inside a set once (O(sum of degrees)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import InputError, is_independent


@dataclass(frozen=True)
class SplittingSpec:
    q: int
    flavor: str = "almost_fair"  # "fair" | "almost_fair" | "transversal"
    balanced: bool = False
    stability: int = 1
    weak: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise InputError("q must be positive")
        if self.flavor not in ("fair", "almost_fair", "transversal"):
            raise InputError("unknown flavor %r" % (self.flavor,))
        if self.stability < 1:
            raise InputError("stability must be >= 1")
        if self.weak and self.q < 2:
            raise InputError("weak stability needs q >= 2")


class Splitting:
    """An ordered family of vertex sets, kept sorted for canonical output."""

    def __init__(self, sets):
        self.sets = [tuple(sorted(set(s))) for s in sets]

    def __eq__(self, other):
        return isinstance(other, Splitting) and self.sets == other.sets

    def __repr__(self):
        return "Splitting(%r)" % (self.sets,)


def fair_quota(block_size, q):
    return block_size // q


def almost_fair_quota(block_size, q):
    return (block_size + 1) // q - 1


def required_min(flavor, block_size, q):
    if flavor == "fair":
        return fair_quota(block_size, q)
    if flavor == "almost_fair":
        return almost_fair_quota(block_size, q)
    return 1  # transversal; SplittingSpec allows no other flavor


def leftover_cap(flavor, q):
    """Per-block cap on uncovered vertices; None means unconstrained."""
    return q - 1 if flavor == "almost_fair" else None


def is_q_stable(s, q):
    """Any two labels differ by at least q.  For q = 1 that only forbids a
    repeated label, tested without arithmetic so that labels of any type
    work; q < 1 always holds."""
    if q <= 1:
        return q < 1 or len(set(s)) == len(s)
    xs = sorted(s)
    return all(b - a >= q for a, b in zip(xs, xs[1:]))


def is_weakly_q_stable(sets, q):
    """Three-valued: True / False / None (None = sizes rule the notion out).

    Requires the members to be pairwise disjoint and |union| = (q-1)N + 1 for
    some N >= 1; otherwise returns None.  Then relabels the union
    order-preservingly onto 1..(q-1)N+1 and demands that each of the N windows
    {(q-1)(i-1)+1, ..., (q-1)i+1} contain exactly one element of every member.
    """
    if q < 2:
        raise InputError("weak stability needs q >= 2")
    sets = [frozenset(s) for s in sets]
    total = sum(len(s) for s in sets)
    union = sorted(set().union(*sets) if sets else set())
    if len(union) != total:
        return None  # overlapping members
    if len(union) < 1 or (len(union) - 1) % (q - 1) != 0:
        return None
    big_n = (len(union) - 1) // (q - 1)
    if big_n == 0:
        return None
    pos = {v: i + 1 for i, v in enumerate(union)}
    relabeled = [frozenset(pos[v] for v in s) for s in sets]
    for i in range(1, big_n + 1):
        window = set(range((q - 1) * (i - 1) + 1, (q - 1) * i + 2))
        for s in relabeled:
            if len(window & s) != 1:
                return False
    return True


@dataclass
class QuotaCertificate:
    """Everything check_splitting measured, plus the per-clause verdicts:
    its fields are the certificate/1 document."""

    q: int
    flavor: str
    counts: list = field(default_factory=list)       # counts[i][j] = |S_i ∩ V_j|
    mins: list = field(default_factory=list)         # per-block demanded minimum
    quota_ok: bool = True
    independence_ok: list = field(default_factory=list)
    disjoint_ok: bool = True
    leftover: list = field(default_factory=list)     # per-block uncovered count
    leftover_ok: bool = True
    sizes: list = field(default_factory=list)
    balanced_ok: bool | None = None
    stability_ok: list = field(default_factory=list)
    weak_verdict: bool | None = None
    ok: bool = False

    def to_json(self):
        return {"schema": "certificate/1", **vars(self)}


def check_splitting(g, partition, splitting, spec):
    """Pure measurement against a graph: never raises on a failing splitting,
    only on structurally impossible input (wrong q, vertices outside 1..n).
    One pass over the members gives the counts, leftovers and disjointness
    (see the module docstring)."""
    sets = splitting.sets
    n = g.n
    for s in sets:  # sorted, so the ends bound the labels
        if s and (s[0] < 1 or s[-1] > n):
            v = next(v for v in s if not 1 <= v <= n)
            raise InputError("vertex %d outside 1..%d" % (v, n))
    q = spec.q
    if len(sets) != q:
        raise InputError("expected %d sets, got %d" % (q, len(sets)))

    index = partition._block_of
    sizes_of_blocks = partition.sizes()
    m = len(sizes_of_blocks)
    counts = []
    hit = [0] * m          # distinct covered labels per block
    seen = set()           # the labels of the sets before this one
    for s in sets:
        row = [0] * m
        for v in s:
            j = index.get(v)
            if j is not None:
                row[j] += 1
                if v not in seen:
                    hit[j] += 1
        counts.append(row)
        seen.update(s)

    mins = [required_min(spec.flavor, size, q) for size in sizes_of_blocks]
    leftover = [size - h for size, h in zip(sizes_of_blocks, hit)]
    cap = leftover_cap(spec.flavor, q)
    sizes = [len(s) for s in sets]
    cert = QuotaCertificate(
        q=q, flavor=spec.flavor, counts=counts, mins=mins,
        quota_ok=all(c >= lo for row in counts for c, lo in zip(row, mins)),
        independence_ok=[is_independent(g, s) for s in sets],
        disjoint_ok=len(seen) == sum(sizes),
        leftover=leftover,
        leftover_ok=cap is None or all(x <= cap for x in leftover),
        sizes=sizes,
        balanced_ok=(max(sizes) - min(sizes) <= 1) if spec.balanced else None,
        stability_ok=[is_q_stable(s, spec.stability) for s in sets],
        weak_verdict=is_weakly_q_stable(sets, q) if spec.weak else None)
    cert.ok = (cert.disjoint_ok and all(cert.independence_ok) and cert.quota_ok
               and cert.leftover_ok and all(cert.stability_ok)
               and (cert.balanced_ok is not False)
               and (not spec.weak or cert.weak_verdict is True))
    return cert
