"""Exact linear feasibility over the rationals.

A single phase-1 simplex with Bland's rule decides {x >= 0 : Ax = b}.  The
rational input is scaled by one positive common denominator to an integer
tableau, which is pivoted without fractions (integer-preserving pivoting, as
in Bareiss and Edmonds): every row other than the pivot row becomes
(x*p - f*y) / den, where p is the pivot, f the row's entry in the entering
column and den the previous pivot, and that division is always exact.  The
integer tableau is always den times the rational one, so Bland's rule reads
the same signs and ratios and takes the same pivots as a Fraction simplex
would.  Fractions appear only in results.  No floating point anywhere.

convex_hulls_common_point builds that system for the convex weights of
several point sets.  Before it pivots, it refutes a family whose bounding
boxes miss: a common point lies in every set's box, so when along one axis
some set's lowest coordinate exceeds another set's highest, the hulls share
no point, and that axis with those two sets is the certificate.  Boxes that
touch still go to the simplex.  A common point it finds is summed in
integers: the first set's weights over one common denominator, dotted with
its scaled integer coordinates, and divided once per coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError


def _phase1(rows, rhs, scale):
    """Phase-1 simplex on integer rows that are `scale` (> 0) times the
    rational system; some x >= 0 with Ax = b as Fractions, or None."""
    m, n = len(rows), len(rows[0])

    # Tableau rows: original columns, artificial identity, rhs; rhs >= 0.
    tab = []
    for i in range(m):
        row = rows[i] + [0] * m + [rhs[i]]
        if rhs[i] < 0:
            row = [-x for x in row]
        row[n + i] = scale
        tab.append(row)
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the artificial sum; artificials start at 0.
    cost = [-sum(col) for col in zip(*tab)]
    cost[n:n + m] = [0] * m

    den = 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test rhs/entry over positive entries, by cross-multiplication.
        leave, best_num, best_den = None, 0, 1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                lhs, rhs_i = tab[i][-1] * best_den, best_num * a
                if leave is None or lhs < rhs_i or (lhs == rhs_i and basis[i] < basis[leave]):
                    leave, best_num, best_den = i, tab[i][-1], a
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                row = tab[i]
                f = row[enter]
                if f:
                    tab[i] = [(x * p - f * y) // den for x, y in zip(row, prow)]
                elif p != den:
                    tab[i] = [x * p // den for x in row]
        f = cost[enter]
        cost = [(x * p - f * y) // den for x, y in zip(cost, prow)]
        den = p
        basis[leave] = enter

    if cost[-1] != 0:  # optimal artificial sum is -cost[-1] / den
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1], den)
    return x


def _rational(c):
    """c as an exact rational: ints and Fractions as they are, anything else
    through Fraction."""
    return c if type(c) is Fraction or type(c) is int else Fraction(c)


def _scaled(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def convex_hulls_common_point(point_sets):
    """A point in the intersection of the convex hulls of the given nonempty
    point sets, as (point, weights per set), or None.

    Unknowns are the convex weights of every set; the equations force each
    weight block to sum to 1 and all barycenters to coincide.  Returns None
    without pivoting when along some axis the sets' coordinate intervals
    share no point; intervals that only touch are left to the simplex.  The
    point is the first set's barycenter, summed in integers and divided once
    per coordinate.
    """
    if not point_sets or any(not ps for ps in point_sets):
        raise InputError("need nonempty point sets")
    sets = [[tuple(map(_rational, p)) for p in ps] for ps in point_sets]
    dim = len(sets[0][0])
    if any(len(p) != dim for ps in sets for p in ps):
        raise InputError("points of mixed dimension")

    # Every equation is multiplied by one common denominator of the coordinates.
    scale = lcm(*(c.denominator for ps in sets for p in ps for c in p))
    # Per set, its scaled integer coordinates axis by axis.
    axes = [list(zip(*(_scaled(p, scale) for p in ps))) for ps in sets]
    # A common point lies in every set's bounding box: when the sets'
    # intervals along some axis share no point, there is none.
    for c in range(dim):
        cols = [a[c] for a in axes]
        if max(map(min, cols)) > min(map(max, cols)):
            return None
    offsets, total = [], 0
    for ps in sets:
        offsets.append(total)
        total += len(ps)

    rows, rhs = [], []
    for s, ps in enumerate(sets):
        row = [0] * total
        row[offsets[s]:offsets[s] + len(ps)] = [scale] * len(ps)
        rows.append(row)
        rhs.append(scale)
    first = axes[0]
    for s in range(1, len(sets)):
        for c, other in enumerate(axes[s]):
            row = [0] * total
            row[:len(first[c])] = first[c]
            row[offsets[s]:offsets[s] + len(other)] = [-v for v in other]
            rows.append(row)
            rhs.append(0)

    x = _phase1(rows, rhs, scale)
    if x is None:
        return None
    weights = [x[offsets[s]:offsets[s] + len(ps)] for s, ps in enumerate(sets)]
    # The first set's barycenter in integers: weights times one common
    # denominator, dotted with the scaled coordinates, divided once.
    den = lcm(*(w.denominator for w in weights[0]))
    ints = _scaled(weights[0], den)
    point = tuple(Fraction(sum(w * v for w, v in zip(ints, col)), den * scale)
                  for col in first)
    return point, weights
