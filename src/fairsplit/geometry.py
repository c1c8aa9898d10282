"""Exact rational geometry on the moment curve.

All predicates reduce to rational linear feasibility (exactlp); there is no
floating point, so repeated runs are bit-identical.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import Budget, InputError, ResourceBudget, check_size
from .exactlp import convex_hulls_common_point

GEOMETRY_BUDGET = 500_000


@dataclass
class PointConfiguration:
    """Ordered rational points."""

    points: list  # list of tuples of Fractions

    def __post_init__(self):
        self.points = [tuple(Fraction(c) for c in p) for p in self.points]
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise InputError("points of mixed dimension")

    @property
    def dim(self):
        return len(self.points[0]) if self.points else 0

    def __len__(self):
        return len(self.points)

    def subset(self, labels):
        """Points for 1-based labels."""
        return [self.points[i - 1] for i in labels]


def _power_prints(m, e):
    """Does m^e (m >= 0, e >= 1) have at most L decimal digits, L being the
    interpreter's int digit limit?  With b = m.bit_length(), 2^(e(b-1)) <=
    m^e < 2^(eb), and 2^(3L) < 10^L < 2^(4L), so the bit lengths decide
    unless 3L < eb and e(b-1) < 4L; only then, at under 8L bits, is the
    power computed and compared."""
    limit = sys.get_int_max_str_digits()
    b = m.bit_length()
    if limit == 0 or e * b <= 3 * limit:
        return True
    if e * (b - 1) >= 4 * limit:
        return False
    return m ** e < 10 ** limit


def moment_points(params, d=None, dim=None):
    """Points (t, t^2, ..., t^dim) for strictly increasing rational params.

    Either d (ambient dimension 2d) or an explicit target dimension.  The
    params are read one at a time; ResourceBudget is raised, before any
    point is built, as soon as the params read times dim passes
    INSTANCE_VERTEX_LIMIT coordinates, or at a param whose numerator or
    denominator to the dim-th power would not print.
    """
    if (d is None) == (dim is None):
        raise InputError("give exactly one of d or dim")
    if dim is None:
        dim = 2 * d
    if dim < 1:
        raise InputError("dimension must be positive")
    ts = []
    for t in params:
        check_size("moment coordinates", (len(ts) + 1) * dim)
        t = Fraction(t)
        if ts and t <= ts[-1]:
            raise InputError("moment parameters must be strictly increasing")
        if not _power_prints(max(abs(t.numerator), t.denominator), dim):
            raise ResourceBudget("parameter %d's coordinates have too many "
                                 "digits to print" % (len(ts) + 1))
        ts.append(t)
    pts = [tuple(t ** e for e in range(1, dim + 1)) for t in ts]
    return PointConfiguration(pts)


def stretched_moment_points(n, d=None, dim=None, base=2):
    """Moment configuration with doubly exponential parameters B^(2^i).

    The spacing is intended to make q-fold hull intersections happen exactly
    on weakly q-stable families; tests validate that per instance with the LP
    oracle instead of assuming it.
    """
    if n < 1:
        raise InputError("need at least one point")
    base = Fraction(base)
    if base <= 1:
        raise InputError("base must exceed 1")

    def params():  # B^(2^i) by repeated squaring, one at a time
        t = base
        for _ in range(n):
            t *= t
            yield t

    return moment_points(params(), d=d, dim=dim)


def hulls_intersect(point_sets):
    """True iff the convex hulls of the given point sets share a point."""
    return convex_hulls_common_point(point_sets) is not None


def gale_alternating(s1, s2):
    """Strict alternation of two equal-size disjoint label sets in their
    natural order -- on moment-curve points in R^(2d) with |S_i| = d+1 this
    is equivalent to their hulls crossing."""
    a, b = set(s1), set(s2)
    if a & b:
        raise InputError("label sets must be disjoint")
    if len(a) != len(b):
        raise InputError("label sets must have equal size")
    if not a:
        return False
    merged = sorted(a | b)
    side = [x in a for x in merged]
    return all(u != v for u, v in zip(side, side[1:]))


def _family_count(n_points, q, max_total):
    """len(list(_disjoint_families(n_points, q, max_total))): choose the t
    labels used, then split them into q unordered nonempty classes."""
    stirling = [1] + [0] * q  # S(t, k) for k = 0..q, starting at t = 0
    count = 0
    for t in range(1, min(n_points, max_total) + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, q + 1)]
        count += comb(n_points, t) * stirling[q]
    return count


def _disjoint_families(n_points, q, max_total, min_total=0):
    """Canonical families of q pairwise disjoint nonempty label subsets with
    at most max_total labels in total; canonical = classes ordered by first
    label, so each unordered family appears once.

    Yields them in lexicographic order of the per-label choices, where
    leaving a label out comes before putting it in class 0, 1, ...; a label
    may open only the first empty class.  A label is left out only while
    the labels after it can still bring the total up to min_total <= n_points;
    min_total = max_total = n_points gives the partitions into q parts.
    """
    classes = [[] for _ in range(q)]
    choice = [-2] * n_points  # per label: -2 untried, -1 left out, c >= 0 in class c
    used = total = 0          # nonempty classes (always classes 0..used-1), labels placed
    i = 0
    while i >= 0:
        if i == n_points:
            if used == q:
                yield [tuple(c) for c in classes]
            i -= 1
            continue
        c = choice[i]
        if c >= 0:
            classes[c].pop()
            total -= 1
            if not classes[c]:
                used -= 1
        c += 1
        if c < 0 and total + n_points - 1 - i < min_total:
            c = 0
        if c >= 0 and (total >= max_total or c > min(used, q - 1)):
            choice[i] = -2
            i -= 1
            continue
        choice[i] = c
        if c >= 0:
            if not classes[c]:
                used += 1
            classes[c].append(i + 1)
            total += 1
        i += 1


def strong_general_position_check(config, q, budget=GEOMETRY_BUDGET):
    """True iff every family of q pairwise disjoint nonempty subsets with at
    most (q-1)(D+1) points in total has empty common hull intersection.

    Returns (verdict, witness_family_or_None).  Fewer than q points hold no
    such family, which is decided before anything of size q is built; else
    the families are counted before any is built, so an over-budget check
    fails at once.
    """
    if q < 1:
        raise InputError("q must be positive")
    if q > len(config):
        return True, None
    bound = (q - 1) * (config.dim + 1)
    count = _family_count(len(config), q, bound)
    if count > budget:
        raise ResourceBudget("too many families to check: %d" % count)
    for fam in _disjoint_families(len(config), q, bound):
        if hulls_intersect([config.subset(c) for c in fam]):
            return False, fam
    return True, None


def tverberg_search(config, q, target_dim=None, budget=GEOMETRY_BUDGET):
    """First partition of all the labels into q nonempty parts whose convex
    hulls share a point, as (parts, common_point); None when no partition
    works, at once when there are fewer labels than parts."""
    if q < 1:
        raise InputError("q must be positive")
    if target_dim is not None and target_dim != config.dim:
        raise InputError("configuration lives in dimension %d, not %d"
                         % (config.dim, target_dim))
    n = len(config)
    if q > n:
        return None
    spend = Budget(budget, "partition budget exceeded").spend
    for parts in _disjoint_families(n, q, n, n):
        spend()
        got = convex_hulls_common_point([config.subset(p) for p in parts])
        if got is not None:
            return parts, got[0]
    return None
