import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fairsplit import constraint_map, serial
from fairsplit.complexes import FACE_BUDGET
from fairsplit.constraint_map import (ConstraintMapInstance, EquivarianceReport,
                                      ZeroSetReport, _adjacent_transpositions,
                                      _all_slot_permutations,
                                      _verify_equivariance_numpy,
                                      _witness_chain, verify_equivariance,
                                      verify_zero_set)
from fairsplit.errors import InputError, ResourceBudget

from shared import (all_faces, is_constrained_face, random_vertex_orders,
                    slot_sizes, valid_parameter_triples)

# The scalar direction rule, the map's values at subdivision vertices and on
# chains, and the face-by-face direction table: the references that
# _directions_array and the two checks are compared with.


def constrained_size_bound(q, k, t):
    """Max total size of a constrained face: q(k-1) - (t-1)."""
    return q * (k - 1) - t + 1


def _levels_with_unconstrained(inst):
    """Levels s (face sizes) at which some slot-size vector fails the
    constrained-region test, found by walking every composition of s into q
    parts: the reference for the closed form verify_zero_set reads."""
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    levels = []
    for s in range(1, n + 1):
        for cuts in itertools.combinations(range(s + q - 1), q - 1):
            bounds = (-1,) + cuts + (s + q - 1,)
            counts = [b - a - 1 for a, b in zip(bounds, bounds[1:])]
            if (max(counts) > k - 1
                    or sum(1 for c in counts if c <= k - 2) < t - 1):
                levels.append(s)
                break
    return levels


def face_direction(inst, digits):
    """Direction in 1..q for unconstrained faces, None for constrained ones
    (the empty face is constrained for every valid instance)."""
    q, k, t = inst.q, inst.k, inst.t
    counts = slot_sizes(digits, q)
    ok, _ = is_constrained_face(digits, q, k, t)
    if ok:
        return None
    m = max(counts)
    tied = {j + 1 for j, c in enumerate(counts) if c == m}
    if len(tied) == 1:
        return tied.pop()
    for v in inst.vertex_order:
        if digits[v] in tied:
            return digits[v]
    raise AssertionError("unconstrained face has a nonempty maximal slot")


def slot_vector(q, j):
    """Projection of e_j onto the zero-sum hyperplane of R^q."""
    return tuple(Fraction(-1, q) + (1 if i == j else 0) for i in range(q))


def vertex_value(inst, digits):
    """Value at the subdivision vertex sitting at this face's barycenter."""
    d = face_direction(inst, digits)
    if d is None:
        return tuple(Fraction(0) for _ in range(inst.q))
    return slot_vector(inst.q, d - 1)


def is_subface(sub, sup):
    return all(a == 0 or a == b for a, b in zip(sub, sup))


def evaluate(inst, weighted_chain):
    """Value of the interpolated map at sum(w_F * barycenter(F)) for an
    inclusion chain of faces with positive weights summing to 1."""
    chain = [(tuple(d), Fraction(w)) for d, w in weighted_chain]
    if not chain:
        raise InputError("empty chain")
    if any(len(d) != inst.n for d, _ in chain):
        raise InputError("face has wrong ground set size")
    if any(w <= 0 for _, w in chain):
        raise InputError("weights must be positive")
    if sum(w for _, w in chain) != 1:
        raise InputError("weights must sum to 1")
    chain.sort(key=lambda fw: sum(1 for x in fw[0] if x))
    for (a, _), (b, _) in zip(chain, chain[1:]):
        if a == b or not is_subface(a, b):
            raise InputError("faces do not form a strict inclusion chain")
    out = [Fraction(0)] * inst.q
    for digits, w in chain:
        val = vertex_value(inst, digits)
        out = [acc + w * x for acc, x in zip(out, val)]
    return tuple(out)


def build_map(inst, budget=FACE_BUDGET):
    """Materialized direction assignment {digits: direction-or-None}."""
    if inst.face_count() > budget:
        raise ResourceBudget("instance has %d faces" % inst.face_count())
    return {digits: face_direction(inst, digits) for digits in all_faces(inst)}


def permute_slots(digits, perm):
    """perm maps slot j to perm[j] (1-based, perm[0] = 0 fixed)."""
    return tuple(perm[d] for d in digits)


def _vertex_order_directions(inst):
    """_directions_array's tensor flat in C order of its vertex-order view
    (axis v for vertex v): the layout the face-by-face references read."""
    tensor = constraint_map._directions_array(inst)
    return np.ascontiguousarray(constraint_map._in_vertex_order(inst, tensor)).reshape(-1)


def _build_order(inst, dirs):
    """A flat vertex-order direction array as _directions_array returns it:
    the tensor whose axis i is vertex vertex_order[i]."""
    shape = (inst.q + 1,) * inst.n
    return np.ascontiguousarray(dirs.reshape(shape).transpose(inst.vertex_order))


def _equivariance_numpy(inst, perms, report):
    """_verify_equivariance_numpy on the tensor _directions_array builds."""
    _verify_equivariance_numpy(inst, perms, report, constraint_map._directions_array(inst))


# Face-by-face references for the vectorised checks.  Each takes the
# direction rule as an argument, so a deliberately wrong rule can be fed to
# both sides.

def _witness_chain_reference(inst, top, need_mask, direction=face_direction):
    """_witness_chain's descent, reading each direction from the rule."""

    def rec(digits, need, acc):
        if need == 0:
            return acc
        for v in [v for v, d in enumerate(digits) if d]:
            sub = digits[:v] + (0,) + digits[v + 1:]
            d = direction(inst, sub)
            nxt, nd = acc, need
            if d is not None and need & (1 << (d - 1)):
                nxt = [sub] + acc
                nd = need & ~(1 << (d - 1))
            got = rec(sub, nd, nxt)
            if got is not None:
                return got
        return None

    need = need_mask & ~(1 << (direction(inst, top) - 1))
    got = rec(top, need, [top])
    return got if got is not None else [top]


def _verify_equivariance_python(inst, perms, report, direction=face_direction):
    for digits in all_faces(inst):
        report.faces_processed += 1
        d0 = direction(inst, digits)
        for perm in perms:
            d1 = direction(inst, permute_slots(digits, perm))
            want = None if d0 is None else perm[d0]
            if d1 != want:
                report.violations.append({
                    "face": list(digits), "perm": list(perm),
                    "got": 0 if d1 is None else d1,
                    "want": 0 if want is None else want})
                if len(report.violations) >= 5:
                    return


def _verify_zero_set_python(inst, direction=face_direction):
    """Per-face DP over antichains of direction masks, faces enumerated by
    size, then support, then slot assignment, up to the first violation."""
    q, n = inst.q, inst.n
    levels = _levels_with_unconstrained(inst)
    report = ZeroSetReport(q, inst.k, inst.t, inst.vertex_order,
                           len(levels), False, 0)
    if len(levels) < q:
        report.short_circuit = True
        return report
    full = (1 << q) - 1
    prev_down, prev_dir = {}, {}
    processed = 0
    for s in range(n + 1):
        cur_down, cur_dir = {}, {}
        for support in itertools.combinations(range(n), s):
            for assign in itertools.product(range(1, q + 1), repeat=s):
                digits = [0] * n
                for v, a in zip(support, assign):
                    digits[v] = a
                digits = tuple(digits)
                processed += 1
                d = direction(inst, digits)
                down = set()
                for v in support:
                    sub = digits[:v] + (0,) + digits[v + 1:]
                    sd = prev_dir.get(sub)
                    sdown = prev_down.get(sub, ())
                    down.update(sdown)
                    if sd is not None:
                        bit = 1 << (sd - 1)
                        down.add(bit)
                        down.update(msk | bit for msk in sdown)
                if d is not None:
                    need = full & ~(1 << (d - 1))
                    if need == 0 or any(msk & need == need for msk in down):
                        report.violations.append(
                            {"chain": [list(f) for f in _witness_chain_reference(
                                inst, digits, full, direction)]})
                        report.faces_processed = processed
                        return report
                down = [m for m in down
                        if not any(m != o and m | o == o for o in down)]
                if down:
                    cur_down[digits] = tuple(down)
                cur_dir[digits] = d
        prev_down, prev_dir = cur_down, cur_dir
    report.faces_processed = processed
    return report


# The face-integer zero-set DP that the support-slice DP replaced: faces are
# base-(q+1) integers (vertex 0 most significant), levels come from an
# argsort over every face, and each level's hits are sorted by enumeration
# rank.

def _face_weights(n, base):
    """Place value of each vertex's digit in a face integer."""
    return [base ** (n - 1 - v) for v in range(n)]


def _face_digits(face, weights, base):
    return tuple(face // w % base for w in weights)


def _enumeration_rank(digits, q):
    """Position of a face in the order verify_zero_set reports in: by size,
    then support (as a sorted tuple), then slot assignment, 0-based."""
    n = len(digits)
    support = [v for v, d in enumerate(digits) if d]
    s = len(support)
    rank = sum(math.comb(n, j) * q ** j for j in range(s))
    comb_rank, prev = 0, -1
    for i, v in enumerate(support):
        comb_rank += sum(math.comb(n - 1 - u, s - 1 - i) for u in range(prev + 1, v))
        prev = v
    assign_rank = 0
    for v in support:
        assign_rank = assign_rank * q + digits[v] - 1
    return rank + comb_rank * q ** s + assign_rank


def _add_direction(masks, b):
    """{m | 2^b : m in X} for each entry X of `masks`, a bitset over direction
    masks (bit m = mask m) in one word."""
    shift = 1 << b
    keep = masks.dtype.type(sum(1 << p for p in range(8 * masks.itemsize) if p & shift))
    return (masks & keep) | ((masks & ~keep) << masks.dtype.type(shift))


def _first_rainbow_face_by_integer(inst):
    q, n = inst.q, inst.n
    base = q + 1
    weights = _face_weights(n, base)
    dirs = _vertex_order_directions(inst)
    dtype = np.dtype("uint%d" % max(8, 1 << q))
    full_bit = dtype.type((1 << q) - 1)
    ints = np.arange(dirs.size, dtype=np.int64)
    level = np.zeros(dirs.size, dtype=np.int8)
    for w in weights:
        level += ints // w % base != 0
    by_level = np.argsort(level, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(level, minlength=n + 1))))
    reach = np.zeros(dirs.size, dtype=dtype)
    for s in range(n + 1):
        faces = by_level[starts[s]:starts[s + 1]]
        acc = np.ones(faces.size, dtype=dtype)
        for w in weights:
            digit = faces // w % base
            sub = np.nonzero(digit)[0]
            acc[sub] |= reach[faces[sub] - digit[sub] * w]
        fdir = dirs[faces]
        for d in range(1, q + 1):
            rows = np.nonzero(fdir == d)[0]
            if rows.size:
                acc[rows] |= _add_direction(acc[rows], d - 1)
        reach[faces] = acc
        hit = (fdir != 0) & (acc >> full_bit != 0)
        if hit.any():
            return min((_face_digits(int(f), weights, base) for f in faces[hit]),
                       key=lambda digits: _enumeration_rank(digits, q))
    return None


def _verify_zero_set_by_integer(inst):
    q = inst.q
    levels = _levels_with_unconstrained(inst)
    report = ZeroSetReport(inst.q, inst.k, inst.t, inst.vertex_order,
                           len(levels), False, 0)
    if len(levels) < q:
        report.short_circuit = True
        return report
    found = _first_rainbow_face_by_integer(inst)
    if found is None:
        report.faces_processed = inst.face_count()
        return report
    dirs = _vertex_order_directions(inst).reshape((q + 1,) * inst.n)
    report.violations.append(
        {"chain": [list(f) for f in _witness_chain(dirs, found, (1 << q) - 1)]})
    report.faces_processed = _enumeration_rank(found, q) + 1
    return report


def _digit_rows(lo, hi, weights, base):
    """(n, hi - lo) matrix: row v holds digit v of the faces lo..hi-1."""
    ints = np.arange(lo, hi, dtype=np.int64)
    return np.stack([(ints // w % base).astype(np.int8) for w in weights])


def _directions_array_chunked(inst, chunk=1 << 20):
    """The digit-row version of _directions_array: slot counts per face from
    its digits, then ties broken vertex by vertex in the vertex order."""
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    m = inst.face_count()
    base = q + 1
    weights = _face_weights(n, base)
    dirs = np.zeros(m, dtype=np.int8)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        digs = _digit_rows(lo, hi, weights, base)
        rows = np.arange(hi - lo)
        counts = np.stack([(digs == j).sum(axis=0, dtype=np.int16)
                           for j in range(base)], axis=1)  # column 0: unused
        slots = counts[:, 1:]
        mx = slots.max(axis=1)
        undecided = ~((mx <= k - 1) & ((slots <= k - 2).sum(axis=1) >= t - 1))
        out = dirs[lo:hi]
        for v in inst.vertex_order:
            if not undecided.any():
                break
            cand = digs[v]
            hit = undecided & (cand != 0) & (counts[rows, cand] == mx)
            out[hit] = cand[hit]
            undecided &= ~hit
    return dirs


def _directions_array_by_slot_sizes(inst):
    """The slot-size version of _directions_array: all q slot-size tensors
    of shape (q+1,)*n at once, then ties settled vertex by vertex in the
    vertex order on the slices of that vertex's axis."""
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    base = q + 1
    sizes = []  # sizes[j - 1][F]: how many vertices face F puts in slot j
    for j in range(1, base):
        unit = (np.arange(base) == j).astype(np.int8)
        size = unit
        for _ in range(n - 1):
            size = np.add.outer(unit, size)
        sizes.append(size)
    dirs = np.zeros((base,) * n, dtype=np.int8)
    top = np.zeros_like(sizes[0])
    for size in sizes:
        np.maximum(top, size, out=top)
        dirs += size <= k - 2  # dirs counts the slots at k-2 or fewer for now
    undecided = top > k - 1
    undecided |= dirs < t - 1
    dirs[...] = 0
    tied = [np.equal(size, top, out=size.view(np.bool_)) for size in sizes]
    del sizes, top
    for v in inst.vertex_order:
        if not undecided.any():
            break
        for j, is_max in enumerate(tied, 1):
            at = (slice(None),) * v + (slice(j, j + 1),)  # vertex v in slot j
            hit = undecided[at] & is_max[at]
            np.copyto(dirs[at], j, where=hit)
            undecided[at] ^= hit
    return dirs.reshape(-1)


def _verify_equivariance_chunked(inst, perms, report, chunk=1 << 18):
    """The digit-row version of _verify_equivariance_numpy: each permuted
    face's integer is summed from its permuted digits, chunk by chunk."""
    n, base = inst.n, inst.q + 1
    weights = _face_weights(n, base)
    dirs = _vertex_order_directions(inst)
    m = dirs.size
    luts = [np.array(perm, dtype=np.int64) for perm in perms]
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        digs = _digit_rows(lo, hi, weights, base)
        bad = np.zeros((len(perms), hi - lo), dtype=bool)
        for row, lut in zip(bad, luts):
            image = np.zeros(hi - lo, dtype=np.int64)
            for digit, w in zip(digs, weights):
                image += lut[digit] * w
            row[:] = dirs[image] != lut[dirs[lo:hi]]
        for f, i in zip(*np.nonzero(bad.T)):
            digits = _face_digits(lo + int(f), weights, base)
            image = permute_slots(digits, perms[i])
            image_int = sum(d * w for d, w in zip(image, weights))
            report.violations.append({
                "face": list(digits), "perm": list(perms[i]),
                "got": int(dirs[image_int]),
                "want": int(perms[i][dirs[lo + int(f)]])})
            if len(report.violations) >= 5:
                report.faces_processed = lo + int(f) + 1
                return
    report.faces_processed = m


def _take_image(inst, perm, dirs):
    """pi^-1 d(pi F) for every face F of the flat vertex-order directions
    dirs, flat: every direction goes through pi^-1's lookup table, and
    every axis is reindexed by np.take."""
    lut = np.array(perm, dtype=dirs.dtype)
    image = np.argsort(lut).astype(dirs.dtype)[dirs.reshape((inst.q + 1,) * inst.n)]
    for axis in range(inst.n):
        image = np.take(image, lut, axis=axis)
    return image.reshape(-1)


def _verify_equivariance_take(inst, perms, report):
    """The whole-tensor version of _verify_equivariance_numpy: _take_image
    for every permutation (the identity included)."""
    shape = (inst.q + 1,) * inst.n
    dirs = _vertex_order_directions(inst)
    found = []
    for i, perm in enumerate(perms):
        image = _take_image(inst, perm, dirs)
        for f in np.flatnonzero(image != dirs)[:5]:
            found.append((int(f), i, perm[image[f]], perm[dirs[f]]))
    found = sorted(found)[:5]
    for f, i, got, want in found:
        report.violations.append({
            "face": [int(d) for d in np.unravel_index(f, shape)],
            "perm": list(perms[i]), "got": got, "want": want})
    report.faces_processed = found[-1][0] + 1 if len(found) == 5 else dirs.size


def _equivariance_json(kernel, inst, perms, *args):
    """The report document of one equivariance kernel over perms."""
    report = EquivarianceReport(inst.q, inst.k, inst.t, inst.vertex_order,
                                len(perms), True, 0)
    kernel(inst, perms, report, *args)
    return report.to_json()


def _first_vertex_rule(inst, digits):
    """Equivariant but wrong: the slot of the first used vertex."""
    if face_direction(inst, digits) is None:
        return None
    return next(d for d in digits if d)


def _highest_tied_slot_rule(inst, digits):
    """Not equivariant: ties go to the highest slot number."""
    if face_direction(inst, digits) is None:
        return None
    counts = slot_sizes(digits, inst.q)
    return max(j + 1 for j, c in enumerate(counts) if c == max(counts))


def _use_rule(monkeypatch, inst, rule):
    dirs = np.array([rule(inst, d) or 0 for d in all_faces(inst)], dtype=np.int8)
    tensor = _build_order(inst, dirs)
    monkeypatch.setattr(constraint_map, "_directions_array", lambda inst: tensor)


def test_instance_validation():
    inst = ConstraintMapInstance(3, 2, 2)
    assert inst.n == 4 and inst.face_count() == 4 ** 4
    with pytest.raises(InputError):
        ConstraintMapInstance(1, 2, 1)
    with pytest.raises(InputError):
        ConstraintMapInstance(3, 2, 4)  # t > q
    with pytest.raises(InputError):
        ConstraintMapInstance(3, 1, 2)  # k < min(t, 2)
    with pytest.raises(InputError):
        ConstraintMapInstance(2, 2, 1, vertex_order=(0, 0, 1))


def test_constrained_membership_reasons():
    # q=2, k=2, t=1 on three vertices
    ok, _ = is_constrained_face((0, 0, 0), 2, 2, 1)
    assert ok
    ok, why = is_constrained_face((1, 1, 0), 2, 2, 1)
    assert not ok and "slot 1" in why
    # q=3, k=2, t=3: needs two slots empty
    ok, why = is_constrained_face((1, 2, 0), 3, 2, 3)
    assert not ok and "only 1" in why
    ok, _ = is_constrained_face((1, 0, 0), 3, 2, 3)
    assert ok


def test_constrained_size_bound():
    assert constrained_size_bound(3, 2, 2) == 2
    assert constrained_size_bound(2, 2, 1) == 2
    # every constrained face respects the bound (q=3, k=2, t=2)
    inst = ConstraintMapInstance(3, 2, 2)
    for digits in all_faces(inst):
        if face_direction(inst, digits) is None:
            assert sum(1 for d in digits if d) <= 2


def test_direction_unique_max():
    inst = ConstraintMapInstance(3, 2, 3)
    assert face_direction(inst, (1, 1, 2)) == 1
    assert face_direction(inst, (2, 3, 3)) == 3


def test_direction_tie_uses_vertex_order():
    inst = ConstraintMapInstance(3, 2, 3)
    # all three slots hold one vertex each: tie broken by vertex 0's slot
    assert face_direction(inst, (1, 2, 3)) == 1
    assert face_direction(inst, (3, 1, 2)) == 3
    shuffled = ConstraintMapInstance(3, 2, 3, vertex_order=(2, 1, 0))
    assert face_direction(shuffled, (1, 2, 3)) == 3


def test_constrained_faces_have_no_direction():
    inst = ConstraintMapInstance(2, 2, 1)
    assert face_direction(inst, (0, 0, 0)) is None
    assert vertex_value(inst, (0, 0, 0)) == (0, 0)


def test_slot_vector_zero_sum():
    for q in range(2, 6):
        for j in range(q):
            v = slot_vector(q, j)
            assert sum(v) == 0
            assert v[j] == Fraction(q - 1, q)


def test_vertex_values_lie_on_hyperplane():
    inst = ConstraintMapInstance(2, 2, 2)
    for digits in all_faces(inst):
        assert sum(vertex_value(inst, digits)) == 0


def test_evaluate_single_vertex():
    inst = ConstraintMapInstance(2, 2, 1)
    val = evaluate(inst, [((1, 1, 0), 1)])
    assert val == (Fraction(1, 2), Fraction(-1, 2))


def test_evaluate_chain_average():
    inst = ConstraintMapInstance(2, 2, 1)
    # (1,0,0) is constrained, (1,1,0) points at slot 1
    val = evaluate(inst, [((1, 0, 0), Fraction(1, 2)),
                          ((1, 1, 0), Fraction(1, 2))])
    assert val == (Fraction(1, 4), Fraction(-1, 4))


def test_evaluate_validation():
    inst = ConstraintMapInstance(2, 2, 1)
    with pytest.raises(InputError):
        evaluate(inst, [])
    with pytest.raises(InputError):
        evaluate(inst, [((1, 0), 1)])  # wrong length
    with pytest.raises(InputError):
        evaluate(inst, [((1, 0, 0), 0), ((1, 1, 0), 1)])  # zero weight
    with pytest.raises(InputError):
        evaluate(inst, [((1, 0, 0), Fraction(1, 2))])  # weights don't sum to 1
    with pytest.raises(InputError):
        # (0,1,0) is not a subface of (1,0,1)
        evaluate(inst, [((0, 1, 0), Fraction(1, 2)), ((1, 0, 1), Fraction(1, 2))])


def test_build_map_and_budget():
    inst = ConstraintMapInstance(2, 2, 1)
    m = build_map(inst)
    assert len(m) == 27
    assert m[(0, 0, 0)] is None
    assert m[(1, 1, 1)] == 1
    with pytest.raises(ResourceBudget):
        build_map(inst, budget=10)


def test_permute_slots():
    assert permute_slots((0, 1, 2), (0, 2, 1)) == (0, 2, 1)
    assert permute_slots((3, 0, 1), (0, 3, 1, 2)) == (2, 0, 3)


def test_zero_set_small_instances():
    for q, k, t in [(2, 2, 1), (3, 2, 2), (2, 3, 2), (3, 2, 3)]:
        report = verify_zero_set(ConstraintMapInstance(q, k, t))
        assert report.ok, (q, k, t, report.violations)


def test_zero_set_short_circuit():
    # q=2, k=2, t=2: only one face size admits unconstrained faces, so no
    # chain can realize both directions
    report = verify_zero_set(ConstraintMapInstance(2, 2, 2))
    assert report.short_circuit and report.ok
    assert report.levels_with_unconstrained == 1


def test_unconstrained_levels_closed_form_matches_composition_walk():
    # every valid (q, k, t) with q <= 8, k <= 7 and n <= 40: the levels
    # holding an unconstrained face are the interval k..n
    triples = [(q, k, t) for q, k, t in valid_parameter_triples(40)
               if q <= 8 and k <= 7]
    assert len(triples) == 193
    for q, k, t in triples:
        inst = ConstraintMapInstance(q, k, t)
        levels = _levels_with_unconstrained(inst)
        assert levels == list(range(k, inst.n + 1)), (q, k, t)
    for q, k, t in [(2, 1, 1), (2, 2, 2), (3, 2, 2), (3, 3, 2)]:
        inst = ConstraintMapInstance(q, k, t)
        assert (verify_zero_set(inst).levels_with_unconstrained
                == len(_levels_with_unconstrained(inst)))


def test_zero_set_budget_and_json():
    with pytest.raises(ResourceBudget):
        constraint_map.verify_both(ConstraintMapInstance(3, 3, 2), budget=100)
    doc = verify_zero_set(ConstraintMapInstance(2, 2, 1)).to_json()
    assert doc["schema"] == "zero_set_report/1"
    assert doc["ok"] is True and doc["violations"] == []


def test_face_budget_is_exact_for_both_checks(monkeypatch):
    # each check alone is held to FACE_BUDGET, the pair to phi-check's budget
    inst = ConstraintMapInstance(3, 3, 2)  # 4^7 = 16,384 faces
    for check in (verify_zero_set, verify_equivariance):
        monkeypatch.setattr(constraint_map, "FACE_BUDGET", 16384)
        assert check(inst).ok
        monkeypatch.setattr(constraint_map, "FACE_BUDGET", 16383)
        with pytest.raises(ResourceBudget, match="face budget of 16383"):
            check(inst)
    assert all(r.ok for r in constraint_map.verify_both(inst, budget=16384))
    with pytest.raises(ResourceBudget, match="face budget of 16383"):
        constraint_map.verify_both(inst, budget=16383)


def test_memory_limit_is_exact_for_both_checks(monkeypatch):
    inst = ConstraintMapInstance(3, 3, 2)  # 4^7 = 16,384 faces
    for check, per_face in (
            (verify_zero_set, constraint_map._zero_set_bytes_per_face(3)),
            (verify_equivariance, constraint_map._EQUIVARIANCE_BYTES_PER_FACE)):
        monkeypatch.setattr(constraint_map, "MEMORY_LIMIT", 16384 * per_face)
        assert check(inst).ok
        monkeypatch.setattr(constraint_map, "MEMORY_LIMIT", 16384 * per_face - 1)
        with pytest.raises(ResourceBudget, match="4\\^7 faces at %d bytes" % per_face):
            check(inst)


def test_short_circuit_is_not_held_to_the_memory_limit(monkeypatch):
    # 4 levels hold unconstrained faces, fewer than q = 5: nothing is built
    monkeypatch.setattr(constraint_map, "MEMORY_LIMIT", 0)
    report = verify_zero_set(ConstraintMapInstance(5, 1, 1))
    assert report.short_circuit and report.ok


def test_zero_set_random_orders():
    for order in random_vertex_orders(4, 3, seed=7):
        inst = ConstraintMapInstance(3, 2, 2, vertex_order=order)
        assert verify_zero_set(inst).ok


def test_equivariance_brute_oracle():
    # independent re-check: permuting slot labels commutes with the direction
    inst = ConstraintMapInstance(3, 2, 3)
    m = build_map(inst)
    for perm in _all_slot_permutations(3):
        for digits, d in m.items():
            want = None if d is None else perm[d]
            assert m[permute_slots(digits, perm)] == want


def test_equivariance_report():
    report = verify_equivariance(ConstraintMapInstance(3, 2, 2))
    assert report.ok and report.full_group
    assert report.permutations_checked == 6
    assert report.faces_processed == 4 ** 4
    doc = report.to_json()
    assert doc["schema"] == "equivariance_report/1" and doc["ok"] is True


def test_equivariance_numpy_matches_python():
    inst = ConstraintMapInstance(3, 2, 2, vertex_order=(2, 0, 3, 1))
    perms = _all_slot_permutations(3)
    r1 = EquivarianceReport(3, 2, 2, inst.vertex_order, len(perms), True, 0)
    r2 = EquivarianceReport(3, 2, 2, inst.vertex_order, len(perms), True, 0)
    _verify_equivariance_python(inst, perms, r1)
    _equivariance_numpy(inst, perms, r2)
    assert r1.ok and r2.ok
    assert r1.faces_processed == r2.faces_processed == 256


def test_valid_parameter_triples():
    assert valid_parameter_triples(3) == [
        (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 3), (4, 1, 1)]
    for q, k, t in valid_parameter_triples(7):
        assert q >= 2 and 1 <= t <= q and k >= min(t, 2)
        assert 1 <= q * k - t <= 7


def test_random_vertex_orders_deterministic():
    a = random_vertex_orders(6, 4, seed=13)
    b = random_vertex_orders(6, 4, seed=13)
    assert a == b and len(a) == 4
    assert all(sorted(o) == list(range(6)) for o in a)
    assert random_vertex_orders(6, 4, seed=14) != a


def test_directions_array_matches_face_direction():
    for q, k, t in valid_parameter_triples(6):
        inst = ConstraintMapInstance(q, k, t)
        if inst.face_count() > 20000:
            continue
        for order in [None] + random_vertex_orders(inst.n, 2, seed=q + k + t):
            inst = ConstraintMapInstance(q, k, t, vertex_order=order)
            want = [face_direction(inst, d) or 0 for d in all_faces(inst)]
            got = _vertex_order_directions(inst)
            assert got.tolist() == want, (q, k, t, order)


@pytest.mark.parametrize("q,k,t", valid_parameter_triples(7))
def test_directions_tensor_matches_chunked_reference(q, k, t):
    n = q * k - t
    for order in [None] + random_vertex_orders(n, 1, seed=7 * q + k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        got = _vertex_order_directions(inst)
        want = _directions_array_chunked(inst, chunk=1 << 16)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (q, k, t, order)


@pytest.mark.parametrize("q,k,t", valid_parameter_triples(7) + [(2, 7, 1)])
def test_directions_tensor_matches_slot_size_reference(q, k, t):
    # valid_parameter_triples(7) holds (7, 2, 7), with 2.1M faces, and the
    # n = 1 triple (2, 1, 1); (2, 7, 1) has 13 axes.  The reversed order
    # sends every tie to the last vertex of its slots
    n = q * k - t
    orders = [None, tuple(reversed(range(n)))]
    orders += random_vertex_orders(n, 1, seed=11 * q + k + t)
    for order in orders:
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        got = _vertex_order_directions(inst)
        want = _directions_array_by_slot_sizes(inst)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (q, k, t, order)
        # the tensor itself is returned in build order, axis i for vertex
        # vertex_order[i], as built
        tensor = constraint_map._directions_array(inst)
        assert tensor.shape == (q + 1,) * n and tensor.flags.c_contiguous
        assert np.array_equal(tensor, _build_order(inst, want)), (q, k, t, order)


def _peak_bytes_per_face(fn, inst):
    """Peak bytes numpy and Python allocate during fn(inst), per face."""
    fn(inst)  # first-call allocations (tables, imports) are not per face
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / inst.face_count()


def test_peak_bytes_per_face():
    # numpy reports its buffers to tracemalloc.  Building the direction
    # tensor peaks at 1 + (2q+3)/(q+1) bytes per face (the slot-size build
    # held q + 4, 11 at q = 7).  The equivariance check then holds the
    # directions and two block-sized int8 buffers, the image and one of the
    # step buffer, the moved slices and the comparison's mask: a block is
    # at most 2^19 faces, the whole tensor for (7,1,1), 1/8 of it for
    # (7,2,7).  So it peaks no higher than the build; only the permutations,
    # the report and the call frames come on top, a few kilobytes whatever
    # the face count.  The zero-set DP adds its
    # 2^q-bit reach bitsets: 4 bytes per face at q = 5, plus the closure's
    # temporaries on one support slice.
    inst = ConstraintMapInstance(7, 1, 1, vertex_order=(3, 0, 5, 1, 4, 2))
    assert _peak_bytes_per_face(constraint_map._directions_array, inst) < 4
    assert _peak_bytes_per_face(verify_equivariance, inst) < 4
    for inst in (inst, ConstraintMapInstance(7, 2, 7, vertex_order=(5, 2, 6, 0, 3, 1, 4))):
        build = _peak_bytes_per_face(constraint_map._directions_array, inst)
        check = _peak_bytes_per_face(verify_equivariance, inst)
        assert check * inst.face_count() <= build * inst.face_count() + 4096, inst
    inst = ConstraintMapInstance(5, 2, 3, vertex_order=(6, 2, 0, 4, 1, 5, 3))
    assert not verify_zero_set(inst).short_circuit
    assert _peak_bytes_per_face(verify_zero_set, inst) < 7.5
    # the figures the memory limit is checked with bound these peaks, and
    # the build's peak is the documented 1 + (2q+3)/(q+1) bytes per face
    # (the last step's tensor, the one before it, the slot sizes, the
    # winners and the two constraint masks) plus a few kilobytes of tables
    # and call frames; at q = 2 the constraint masks' temporaries come close
    for q, k, t in [(2, 6, 1), (3, 3, 1), (4, 2, 1), (5, 2, 3)]:
        inst = ConstraintMapInstance(q, k, t)
        if q in (2, 4):
            build = _peak_bytes_per_face(constraint_map._directions_array, inst)
            figure = 1 + (2 * q + 3) / (q + 1)
            assert build * inst.face_count() <= figure * inst.face_count() + 4096, (q, build)
        assert (_peak_bytes_per_face(verify_equivariance, inst)
                <= constraint_map._EQUIVARIANCE_BYTES_PER_FACE)
        assert (_peak_bytes_per_face(verify_zero_set, inst)
                <= constraint_map._zero_set_bytes_per_face(q))


def test_equivariance_violation_peak_does_not_grow_with_the_vertex_order(monkeypatch):
    # direction 1 read as 2 on every face breaks equivariance on a quarter
    # of them.  The violation path compares two transposed views of the
    # build-order tensors; it must lay the mask out in vertex order at
    # once, not in build order and then again for the search, and find the
    # first five violations in it without listing them all (an int64 index
    # per violating face took this to 5.95 bytes per face)
    build, peaks = constraint_map._directions_array, []
    for order in (None, (6, 5, 4, 3, 2, 1, 0)):
        inst = ConstraintMapInstance(4, 2, 1, vertex_order=order)
        wrong = build(inst)
        wrong[wrong == 1] = 2
        monkeypatch.setattr(constraint_map, "_directions_array", lambda inst: wrong)
        assert len(verify_equivariance(inst).violations) == 5
        peaks.append(_peak_bytes_per_face(verify_equivariance, inst) * inst.face_count())
    assert peaks[1] <= peaks[0] + 4096, peaks
    bound = constraint_map._EQUIVARIANCE_BYTES_PER_FACE * inst.face_count()
    assert max(peaks) <= bound, peaks


def test_single_vertex_ground_set():
    # n = 1: the tensor has one axis, and each slice of it is one face
    inst = ConstraintMapInstance(2, 1, 1)
    assert inst.n == 1
    dirs = _vertex_order_directions(inst)
    assert dirs.tolist() == [face_direction(inst, d) or 0 for d in all_faces(inst)]
    perms = _all_slot_permutations(2)
    reports = [EquivarianceReport(2, 1, 1, inst.vertex_order, len(perms), True, 0)
               for _ in range(2)]
    _equivariance_numpy(inst, perms, reports[0])
    _verify_equivariance_python(inst, perms, reports[1])
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].ok and reports[0].faces_processed == 3
    assert verify_zero_set(inst).to_json() == _verify_zero_set_python(inst).to_json()


def test_fourteen_axis_tensor():
    # q = 2, n = 14: 3^14 = 4,782,969 faces, the most axes the face budget
    # allows, under a shuffled vertex order
    order = random_vertex_orders(14, 1, seed=14)[0]
    inst = ConstraintMapInstance(2, 8, 2, vertex_order=order)
    assert inst.face_count() == 4782969
    dirs = _vertex_order_directions(inst)
    assert np.array_equal(dirs, _directions_array_chunked(inst))
    report = verify_equivariance(inst)
    assert report.ok and report.faces_processed == 4782969
    assert report.permutations_checked == 1 and not report.full_group


def test_zero_set_matches_python_reference():
    for q, k, t in [(2, 2, 1), (3, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 2),
                    (4, 2, 2), (2, 2, 2)]:
        for order in random_vertex_orders(q * k - t, 2, seed=q * k):
            inst = ConstraintMapInstance(q, k, t, vertex_order=order)
            assert (verify_zero_set(inst).to_json()
                    == _verify_zero_set_python(inst).to_json()), (q, k, t)


@pytest.mark.parametrize("q,k,t", [(2, 2, 1), (3, 2, 2), (3, 3, 2), (4, 2, 1)])
def test_zero_set_reports_a_wrong_rule_like_the_reference(monkeypatch, q, k, t):
    inst = ConstraintMapInstance(q, k, t)
    _use_rule(monkeypatch, inst, _first_vertex_rule)
    got = verify_zero_set(inst).to_json()
    want = _verify_zero_set_python(inst, _first_vertex_rule).to_json()
    assert got == want and not got["ok"], (got, want)
    assert len(got["violations"]) == 1


@pytest.mark.parametrize("q,k,t", [(3, 2, 2), (4, 2, 1), (4, 1, 1)])
def test_equivariance_reports_a_wrong_rule_like_the_reference(monkeypatch, q, k, t):
    inst = ConstraintMapInstance(q, k, t)
    _use_rule(monkeypatch, inst, _highest_tied_slot_rule)
    for perms in (_all_slot_permutations(q), _adjacent_transpositions(q)):
        got = _equivariance_json(_equivariance_numpy, inst, perms)
        assert got == _equivariance_json(_verify_equivariance_python, inst, perms,
                                         _highest_tied_slot_rule)
        assert len(got["violations"]) == 5
        assert got == _equivariance_json(_verify_equivariance_chunked, inst, perms, 7)
        assert got == _equivariance_json(_verify_equivariance_take, inst, perms)


@pytest.mark.parametrize("q,k,t", [(q, k, t) for q, k, t in valid_parameter_triples(7)
                                   if (q + 1) ** (q * k - t) <= 300000])
def test_equivariance_tensor_matches_chunked_reference(q, k, t):
    n = q * k - t
    for order in [None] + random_vertex_orders(n, 1, seed=7 * q + k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        groups = [_adjacent_transpositions(q)]
        if math.factorial(q) * inst.face_count() <= 2_000_000:
            groups.append(_all_slot_permutations(q))
        for perms in groups:
            got = _equivariance_json(_equivariance_numpy, inst, perms)
            assert got == _equivariance_json(_verify_equivariance_chunked, inst,
                                             perms, 1 << 16), (q, k, t, order)
            assert got == _equivariance_json(_verify_equivariance_take, inst,
                                             perms), (q, k, t, order)


def test_equivariance_of_corrupted_directions_matches_the_references(monkeypatch):
    # (7, 1, 1): 262,144 faces, adjacent transpositions only.  A few faces
    # late in C order get a wrong direction, so the first five violations
    # come from them and stop the check short of the last face
    inst = ConstraintMapInstance(7, 1, 1, vertex_order=(4, 1, 5, 0, 3, 2))
    assert not verify_equivariance(inst).full_group
    dirs = _vertex_order_directions(inst)
    rng = np.random.default_rng(711)
    for f in rng.choice(np.arange(dirs.size // 2, dirs.size), size=4, replace=False):
        dirs[f] = dirs[f] % 7 + 1 if rng.integers(3) else 0
    tensor = _build_order(inst, dirs)
    monkeypatch.setattr(constraint_map, "_directions_array", lambda inst: tensor)
    perms = _adjacent_transpositions(7)
    got = _equivariance_json(_equivariance_numpy, inst, perms)
    assert len(got["violations"]) == 5 and got["faces_processed"] < dirs.size
    assert got == _equivariance_json(_verify_equivariance_take, inst, perms)
    assert got == _equivariance_json(_verify_equivariance_chunked, inst, perms, 1 << 16)


# The equivariance check works one block at a time, a block being the faces
# under a digit prefix of the leading build-order axes.  The tests below
# force blocks of 1, q+1 and (q+1)^2 faces, so that a prefix fixes up to
# every axis.  Each block costs a few dozen numpy calls, so a forced size
# is left out where it would take more than this many block builds.
_FORCED_BLOCK_BUILDS = 40000


def _forced_block_sizes(inst, perms):
    base = inst.q + 1
    return [size for size in (1, base, base ** 2)
            if inst.face_count() // size * len(perms) <= _FORCED_BLOCK_BUILDS]


def _blocks_of(inst, faces, size):
    """The index, in the check's block order, of the block that holds each
    face (flat in vertex order) when blocks have at most `size` faces: the
    face's digits on the fewest leading build-order axes that leave that
    few faces below them, read as a base-(q+1) number."""
    base, n = inst.q + 1, inst.n
    lead = next(a for a in range(n + 1) if base ** (n - a) <= size)
    digits = np.unravel_index(np.asarray(faces), (base,) * n)
    index = np.zeros(len(faces), dtype=np.int64)
    for v in inst.vertex_order[:lead]:
        index = index * base + digits[v]
    return index


def _check_in_forced_blocks(monkeypatch, inst, perms, tensor, want):
    """Assert that the check in every forced block size reports `want`;
    return how many sizes it ran in."""
    sizes = _forced_block_sizes(inst, perms)
    for size in sizes:
        monkeypatch.setattr(constraint_map, "_BLOCK_FACES", size)
        got = _equivariance_json(_verify_equivariance_numpy, inst, perms, tensor)
        assert got == want, (inst, perms, size)
    return len(sizes)


@pytest.mark.parametrize("q,k,t", [(q, k, t) for q, k, t in valid_parameter_triples(7)
                                   if (q + 1) ** (q * k - t) <= 300000])
def test_forced_blocks_match_the_references(monkeypatch, q, k, t):
    # the tensors and groups of test_equivariance_tensor_matches_chunked_reference
    n, runs = q * k - t, 0
    for order in [None] + random_vertex_orders(n, 1, seed=7 * q + k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        tensor = constraint_map._directions_array(inst)
        groups = [_adjacent_transpositions(q)]
        if math.factorial(q) * inst.face_count() <= 2_000_000:
            groups.append(_all_slot_permutations(q))
        for perms in groups:
            want = _equivariance_json(_verify_equivariance_take, inst, perms)
            assert want == _equivariance_json(_verify_equivariance_chunked, inst,
                                              perms, 1 << 16), (q, k, t, order)
            runs += _check_in_forced_blocks(monkeypatch, inst, perms, tensor, want)
    assert runs


@pytest.mark.parametrize("q,k,t", [(3, 2, 2), (4, 2, 1), (4, 1, 1)])
def test_forced_blocks_report_a_wrong_rule_like_the_reference(monkeypatch, q, k, t):
    inst = ConstraintMapInstance(q, k, t)
    _use_rule(monkeypatch, inst, _highest_tied_slot_rule)
    tensor, runs = constraint_map._directions_array(inst), 0
    for perms in (_all_slot_permutations(q), _adjacent_transpositions(q)):
        want = _equivariance_json(_verify_equivariance_python, inst, perms,
                                  _highest_tied_slot_rule)
        assert len(want["violations"]) == 5
        assert want == _equivariance_json(_verify_equivariance_take, inst, perms)
        runs += _check_in_forced_blocks(monkeypatch, inst, perms, tensor, want)
    assert runs


def _corrupted(monkeypatch, inst, dirs):
    """Make the flat vertex-order directions dirs the tensor every check
    reads, and return it in build order."""
    tensor = _build_order(inst, dirs)
    monkeypatch.setattr(constraint_map, "_directions_array", lambda inst: tensor)
    return tensor


def test_forced_blocks_find_a_first_violation_in_a_later_block(monkeypatch):
    # under the reversed vertex order the leading build axes are the last
    # vertices, the least significant digits of the vertex-order C order
    # the violations are reported in.  Face (0,3,3,3) comes early in C
    # order and in the last block; face (3,0,0,0) late in C order and in
    # the first block.  Both are made to read 1, so the first violation
    # reported lies in a later block than the first block in which its
    # permutation breaks
    inst = ConstraintMapInstance(3, 2, 2, vertex_order=(3, 2, 1, 0))
    dirs = _vertex_order_directions(inst)
    shape = (4,) * 4
    dirs[np.ravel_multi_index(([0, 3], [3, 0], [3, 0], [3, 0]), shape)] = 1
    tensor = _corrupted(monkeypatch, inst, dirs)
    table = dirs.reshape(shape)
    for perms in (_adjacent_transpositions(3), _all_slot_permutations(3)):
        want = _equivariance_json(_verify_equivariance_python, inst, perms,
                                  lambda inst, digits: int(table[digits]) or None)
        assert want == _equivariance_json(_verify_equivariance_take, inst, perms)
        first = want["violations"][0]
        face = np.ravel_multi_index(first["face"], shape)
        bad = np.flatnonzero(_take_image(inst, first["perm"], dirs) != dirs)
        for size in _forced_block_sizes(inst, perms):
            blocks = _blocks_of(inst, bad, size)
            assert _blocks_of(inst, [face], size)[0] > blocks.min(), size
        assert _check_in_forced_blocks(monkeypatch, inst, perms, tensor, want) == 3


def test_forced_blocks_find_violations_only_in_the_last_block(monkeypatch):
    # the slot permutations that fix slot q keep each face's leading
    # digits q, so a few wrong faces whose leading build-order digits are
    # all q put every violation in the last block
    q, k, t = 4, 2, 3
    inst = ConstraintMapInstance(q, k, t, vertex_order=(2, 4, 0, 3, 1))
    perms = [perm for perm in _all_slot_permutations(q) if perm[q] == q]
    base, n = q + 1, inst.n
    clean = _vertex_order_directions(inst)
    rng = np.random.default_rng(423)
    for size in _forced_block_sizes(inst, perms):
        lead = next(a for a in range(n + 1) if base ** (n - a) <= size)
        last = np.flatnonzero(_blocks_of(inst, np.arange(clean.size), size)
                              == base ** lead - 1)
        dirs = clean.copy()
        for f in rng.choice(last, size=min(3, last.size), replace=False):
            dirs[f] = (dirs[f] + rng.integers(1, base)) % base
        tensor = _corrupted(monkeypatch, inst, dirs)
        bad = np.concatenate([np.flatnonzero(_take_image(inst, perm, dirs) != dirs)
                              for perm in perms])
        assert bad.size and set(_blocks_of(inst, bad, size)) == {base ** lead - 1}
        want = _equivariance_json(_verify_equivariance_take, inst, perms)
        assert want["violations"]
        monkeypatch.setattr(constraint_map, "_BLOCK_FACES", size)
        assert _equivariance_json(_verify_equivariance_numpy, inst, perms, tensor) == want


def test_equivariance_check_holds_two_blocks():
    # a prebuilt (7,2,7) tensor, 8^7 faces, is checked in blocks of 8^6:
    # besides views and frames the check holds its image and one of the
    # step buffer, the moved slices and the comparison's mask, so no more
    # than two blocks plus the moved slices of one, 2/8 of a block for a
    # transposition
    inst = ConstraintMapInstance(7, 2, 7, vertex_order=(5, 2, 6, 0, 3, 1, 4))
    tensor = constraint_map._directions_array(inst)
    perms = _adjacent_transpositions(7)
    block = max(8 ** m for m in range(inst.n + 1) if 8 ** m <= constraint_map._BLOCK_FACES)
    assert block < inst.face_count()

    def check(inst):
        report = EquivarianceReport(7, 2, 7, inst.vertex_order, len(perms), False, 0)
        _verify_equivariance_numpy(inst, perms, report, tensor)
        assert report.ok

    peak = _peak_bytes_per_face(check, inst) * inst.face_count()
    assert peak <= 2 * block + 2 * block // 8 + 4096, peak


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_add_direction_matches_set_semantics(q):
    bits = 1 << q
    keep, shift = tables = constraint_map._closure_tables(q)
    assert keep.shape == shift.shape == (q + 1,)
    assert keep.dtype.itemsize * 8 == max(8, bits)
    rng = np.random.default_rng(q)
    sets = [set(rng.choice(bits, size=min(5, bits), replace=False).tolist())
            for _ in range(3 * (q + 1))]
    fdir = np.arange(len(sets)) % (q + 1)  # every direction, and 0, three times
    acc = np.array([sum(1 << m for m in masks) for masks in sets], dtype=keep.dtype)
    constraint_map._add_directions(acc, fdir, tables)
    for word, masks, d in zip(acc, sets, fdir):
        got = {p for p in range(bits) if int(word) >> p & 1}
        want = masks | {m | 1 << (d - 1) for m in masks} if d else masks
        assert got == want, (q, d)


@pytest.mark.parametrize("q", [7, 8, 9, 10])
def test_zero_set_past_q6_is_refused_before_building(monkeypatch, q):
    # a reach bitset of 2^q bits fits one 64-bit word only for q <= 6; every
    # instance of larger q either short-circuits or is over the memory limit
    # whatever the face budget, so the DP never sees it
    def unreachable(inst):
        raise AssertionError("direction tensor built for q = %d" % inst.q)

    monkeypatch.setattr(constraint_map, "_directions_array", unreachable)
    monkeypatch.setattr(constraint_map, "FACE_BUDGET", 10 ** 30)
    inst = ConstraintMapInstance(q, 2, q - 1)  # the fewest faces past the short circuit
    assert inst.n - inst.k + 1 >= q
    with pytest.raises(ResourceBudget, match="memory limit"):
        verify_zero_set(inst)
    for k in range(1, 5):
        for t in range(1, q + 1):
            if k < min(t, 2):
                continue
            inst = ConstraintMapInstance(q, k, t)
            try:
                report = verify_zero_set(inst)
            except ResourceBudget:
                continue
            assert report.short_circuit and report.faces_processed == 0, (q, k, t)


ORDERS_PER_TRIPLE = 4


@pytest.mark.parametrize("q,k,t", valid_parameter_triples(7))
def test_zero_set_matches_integer_reference(q, k, t):
    n = q * k - t
    for order in [None] + random_vertex_orders(n, ORDERS_PER_TRIPLE - 1, seed=q * k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        got = serial.canonical_dumps(verify_zero_set(inst).to_json())
        want = serial.canonical_dumps(_verify_zero_set_by_integer(inst).to_json())
        assert got == want, (q, k, t, order)


@pytest.mark.parametrize("rule", [_first_vertex_rule, _highest_tied_slot_rule])
@pytest.mark.parametrize("q,k,t", [(q, k, t) for q, k, t in valid_parameter_triples(7)
                                   if (q + 1) ** (q * k - t) <= 20000])
def test_zero_set_wrong_rule_matches_integer_reference(monkeypatch, rule, q, k, t):
    inst = ConstraintMapInstance(q, k, t)
    _use_rule(monkeypatch, inst, rule)
    got = serial.canonical_dumps(verify_zero_set(inst).to_json())
    want = serial.canonical_dumps(_verify_zero_set_by_integer(inst).to_json())
    assert got == want, (q, k, t)


def test_zero_set_thirteen_axes_matches_integer_reference():
    # q = 2, n = 13: 2^13 support slices over 3^13 faces
    order = random_vertex_orders(13, 1, seed=13)[0]
    inst = ConstraintMapInstance(2, 7, 1, vertex_order=order)
    assert verify_zero_set(inst).to_json() == _verify_zero_set_by_integer(inst).to_json()


def _wrong_without_vertex_0(inst, digits):
    """Wrong only on the faces that leave vertex 0 unused: there it is the
    slot of the first used vertex.  A rainbow chain then tops out at such a
    face, which lies past the first support of its level."""
    if digits[0]:
        return face_direction(inst, digits)
    return _first_vertex_rule(inst, digits)


def test_zero_set_first_hit_in_a_later_support_of_its_level(monkeypatch):
    inst = ConstraintMapInstance(3, 3, 2)
    _use_rule(monkeypatch, inst, _wrong_without_vertex_0)
    got = verify_zero_set(inst).to_json()
    assert got["violations"] == [{"chain": [[0, 0, 0, 3, 3, 3, 0], [0, 0, 2, 3, 3, 3, 0],
                                            [0, 1, 2, 3, 3, 3, 0]]}]
    # the top face has support {1, .., 5}; level 5 starts after the 3,991
    # smaller faces, and its first support {0, .., 4} holds 3^5 faces
    assert got["faces_processed"] == 7690 > 3991 + 3 ** 5
    assert got == _verify_zero_set_python(inst, _wrong_without_vertex_0).to_json()
    assert got == _verify_zero_set_by_integer(inst).to_json()


@pytest.mark.parametrize("q,k,t", [(3, 3, 2), (4, 2, 2)])
def test_zero_set_later_support_hit_under_shuffled_orders(monkeypatch, q, k, t):
    for order in random_vertex_orders(q * k - t, 2, seed=5 * q + k):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        _use_rule(monkeypatch, inst, _wrong_without_vertex_0)
        got = verify_zero_set(inst).to_json()
        assert not got["ok"], order
        assert got == _verify_zero_set_python(inst, _wrong_without_vertex_0).to_json()
        assert got == _verify_zero_set_by_integer(inst).to_json()


@pytest.mark.parametrize("q,k,t", [(2, 7, 1), (6, 2, 5)])
def test_zero_set_peak_is_within_its_bytes_per_face(q, k, t):
    # (2, 7, 1) has 13 axes and 2^13 supports; (6, 2, 5) has 64-bit reach
    # words.  The DP keeps one level's reach besides the one it fills
    inst = ConstraintMapInstance(q, k, t)
    assert not verify_zero_set(inst).short_circuit
    assert (_peak_bytes_per_face(verify_zero_set, inst)
            <= constraint_map._zero_set_bytes_per_face(q))


@pytest.mark.parametrize("q,k,t", [(2, 4, 1), (3, 2, 1), (3, 3, 2), (4, 2, 2), (5, 2, 4)])
def test_zero_set_of_perturbed_directions_matches_the_references(monkeypatch, q, k, t):
    # random directions on a few faces of k or more vertices (the smaller
    # ones stay constrained, as the DP assumes), so that rainbow chains
    # start, stop and branch at arbitrary supports and facets
    n = q * k - t
    rng = np.random.default_rng(100 * q + 10 * k + t)
    for order in [None] + random_vertex_orders(n, 2, seed=q + k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        clean = _vertex_order_directions(inst)
        big = np.flatnonzero(np.array([sum(1 for d in f if d) >= k for f in all_faces(inst)]))
        for _ in range(4):
            dirs = clean.copy()
            faces = rng.choice(big, size=int(rng.integers(1, 1 + big.size // 50)), replace=False)
            dirs[faces] = rng.integers(0, q + 1, size=faces.size)
            tensor = _build_order(inst, dirs)
            with monkeypatch.context() as patch:
                patch.setattr(constraint_map, "_directions_array", lambda inst: tensor)
                got = verify_zero_set(inst).to_json()
                assert got == _verify_zero_set_by_integer(inst).to_json(), (q, k, t, order)
            if inst.face_count() <= 5000:
                table = dirs.reshape((q + 1,) * n)
                rule = lambda inst, digits: int(table[digits]) or None
                assert got == _verify_zero_set_python(inst, rule).to_json(), (q, k, t, order)


@pytest.mark.parametrize("q,k,t", [(3, 2, 2), (4, 2, 1), (3, 3, 3)])
def test_equivariance_of_corrupted_directions_under_shuffled_orders(monkeypatch, q, k, t):
    # the check compares in build order, and reads its violations from the
    # vertex-order view, in that view's C order; a few corrupted faces make
    # the violations depend on the vertex order
    n = q * k - t
    rng = np.random.default_rng(3 * q + k + t)
    for order in random_vertex_orders(n, 3, seed=3 * q + k + t):
        inst = ConstraintMapInstance(q, k, t, vertex_order=order)
        dirs = _vertex_order_directions(inst)
        for f in rng.choice(dirs.size, size=3, replace=False):
            dirs[f] = (dirs[f] + rng.integers(1, q + 1)) % (q + 1)
        tensor = _build_order(inst, dirs)
        table = dirs.reshape((q + 1,) * n)
        with monkeypatch.context() as patch:
            patch.setattr(constraint_map, "_directions_array", lambda inst: tensor)
            for perms in (_all_slot_permutations(q), _adjacent_transpositions(q)):
                got = _equivariance_json(_equivariance_numpy, inst, perms)
                assert got["violations"], order
                assert got == _equivariance_json(
                    _verify_equivariance_python, inst, perms,
                    lambda inst, digits: int(table[digits]) or None), order
                assert got == _equivariance_json(_verify_equivariance_take, inst, perms)
