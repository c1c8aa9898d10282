"""The labeled-direction constraint map on the q-fold deleted join of a
simplex, and its two correctness checks.

Setting: ground set of n = q*k - t vertices (0-based), 1 <= t <= q,
k >= min(t, 2).  A face of the q-fold deleted join assigns each vertex a
digit in {0..q}: 0 = unused, j = placed in slot j.  The constrained region
consists of the faces whose slots all have at most k-1 vertices, with at
least t-1 slots at k-2 or fewer; every face outside it gets a direction
d(F) in 1..q, and the face's barycenter is sent to the projection of
e_{d(F)} onto the zero-sum hyperplane (constrained faces are sent to 0).
Affine interpolation over the barycentric subdivision extends this to the
whole space.

Direction rule: the slot of largest size wins; ties are broken by the slot
containing the earliest vertex (in a configurable vertex order) among the
tied slots' members.  Ties can only involve nonempty slots, so the rule is
total, and it commutes with permuting the slots because it only looks at
slot contents.

The two checks:

  verify_zero_set      the map vanishes nowhere outside the constrained
                       region.  On an open cell of the subdivision (an
                       inclusion chain of faces) the map takes the value
                       sum of w_F * proj(e_{d(F)}) with all w_F > 0; such a
                       combination vanishes iff every direction 1..q occurs
                       among the chain's unconstrained faces.  So the check
                       is a search for an inclusion chain of unconstrained
                       faces whose directions cover 1..q, done by a
                       level-by-level numpy DP that keeps, for every face,
                       the set of direction masks its chains can carry as a
                       2^q-bit bitset.

  verify_equivariance  d(pi F) = pi(d(F)) for slot permutations pi; the
                       adjacent transpositions generate the full symmetric
                       group, so checking them suffices, and small instances
                       are additionally checked against every permutation.

Both checks read the directions of all faces from one numpy array indexed by
face integers: the digits of a face read as a base-(q+1) number, vertex 0
most significant, so integer order is the order of `all_faces`.  That array
is the C-order tensor of shape (q+1,)*n whose axis v is vertex v's digit.
Slot sizes are sums of one-hot vectors broadcast along the axes, a tie at
vertex v is settled on the slices of axis v, and the directions of the
permuted faces are the tensor reindexed by the permutation along every axis;
no digits are extracted.  Violations are reported in integer order, as a
face-by-face loop would find them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import FACE_BUDGET
from .errors import InputError, ResourceBudget


@dataclass(frozen=True)
class ConstraintMapInstance:
    q: int
    k: int
    t: int
    vertex_order: tuple = None  # priority permutation of 0..n-1

    def __post_init__(self):
        if self.q < 2:
            raise InputError("q must be at least 2")
        if not 1 <= self.t <= self.q:
            raise InputError("need 1 <= t <= q")
        if self.k < min(self.t, 2):
            raise InputError("need k >= min(t, 2)")
        n = self.n
        if n < 1:
            raise InputError("ground set would be empty")
        if self.vertex_order is None:
            object.__setattr__(self, "vertex_order", tuple(range(n)))
        else:
            object.__setattr__(self, "vertex_order", tuple(self.vertex_order))
        if sorted(self.vertex_order) != list(range(n)):
            raise InputError("vertex_order must be a permutation of 0..n-1")

    @property
    def n(self):
        return self.q * self.k - self.t

    def face_count(self):
        return (self.q + 1) ** self.n


def slot_sizes(digits, q):
    counts = [0] * q
    for d in digits:
        if d:
            counts[d - 1] += 1
    return counts


def is_constrained_face(digits, q, k, t):
    """Membership in the constrained region, with a reason string."""
    counts = slot_sizes(digits, q)
    big = [j + 1 for j, c in enumerate(counts) if c > k - 1]
    if big:
        return False, "slot %d has %d > k-1 vertices" % (big[0], counts[big[0] - 1])
    small = sum(1 for c in counts if c <= k - 2)
    if small < t - 1:
        return False, "only %d slots at k-2 or fewer (need %d)" % (small, t - 1)
    return True, "all slots <= k-1 and %d slots <= k-2" % small


def constrained_size_bound(q, k, t):
    """Max total size of a constrained face: q(k-1) - (t-1)."""
    return q * (k - 1) - t + 1


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


def all_faces(inst):
    return itertools.product(range(inst.q + 1), repeat=inst.n)


def build_map(inst, budget=FACE_BUDGET):
    """Materialized direction assignment {digits: direction-or-None}."""
    if inst.face_count() > budget:
        raise ResourceBudget("instance has %d faces" % inst.face_count())
    return {digits: face_direction(inst, digits) for digits in all_faces(inst)}


def permute_slots(digits, perm):
    """perm maps slot j to perm[j] (1-based, perm[0] = 0 fixed)."""
    return tuple(perm[d] for d in digits)


# ---------------------------------------------------------------------------
# zero-set verification


@dataclass
class ZeroSetReport:
    q: int
    k: int
    t: int
    vertex_order: tuple
    levels_with_unconstrained: int
    short_circuit: bool
    faces_processed: int
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "schema": "zero_set_report/1",
            "q": self.q, "k": self.k, "t": self.t,
            "vertex_order": list(self.vertex_order),
            "levels_with_unconstrained": self.levels_with_unconstrained,
            "short_circuit": self.short_circuit,
            "faces_processed": self.faces_processed,
            "violations": [{"chain": [list(f) for f in chain]} for chain in self.violations],
            "ok": self.ok,
        }


def _levels_with_unconstrained(inst):
    """Levels s (face sizes) at which some slot-size vector fails the
    constrained-region test; computed over compositions, not faces."""
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    levels = []
    for s in range(1, n + 1):
        found = False
        for cuts in itertools.combinations(range(s + q - 1), q - 1):
            counts = []
            prev = -1
            for c in cuts:
                counts.append(c - prev - 1)
                prev = c
            counts.append(s + q - 2 - prev)
            if not is_constrained_face_counts(counts, q, k, t):
                found = True
                break
        if found:
            levels.append(s)
    return levels


def is_constrained_face_counts(counts, q, k, t):
    if any(c > k - 1 for c in counts):
        return False
    return sum(1 for c in counts if c <= k - 2) >= t - 1


def _witness_chain(inst, top, need_mask):
    """Reconstruct an explicit rainbow chain below `top` covering need_mask,
    by depth-first descent; used only to decorate violations."""
    q = inst.q

    def rec(digits, need, acc):
        if need == 0:
            return acc
        support = [v for v, d in enumerate(digits) if d]
        for v in support:
            sub = list(digits)
            sub[v] = 0
            sub = tuple(sub)
            d = face_direction(inst, sub)
            nxt = acc
            nd = need
            if d is not None and need & (1 << (d - 1)):
                nxt = [sub] + acc
                nd = need & ~(1 << (d - 1))
            got = rec(sub, nd, nxt)
            if got is not None:
                return got
        return None

    d_top = face_direction(inst, top)
    need = need_mask & ~(1 << (d_top - 1))
    got = rec(top, need, [top])
    return got if got is not None else [top]


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


def _add_direction(masks, b, word_bits):
    """{m | 2^b : m in X} for each row X of `masks`, a bitset over direction
    masks (bit m of the row = mask m), stored as (rows, words)."""
    shift = 1 << b
    if shift < word_bits:
        keep = sum(1 << p for p in range(word_bits) if p & shift)
        keep = masks.dtype.type(keep)
        return (masks & keep) | ((masks & ~keep) << masks.dtype.type(shift))
    step = shift // word_bits
    out = np.zeros_like(masks)
    for w in range(masks.shape[1]):
        if w & step:
            out[:, w] = masks[:, w] | masks[:, w ^ step]
    return out


def _rainbow_faces(inst, enough):
    """Digits of the unconstrained faces F that top an inclusion chain of
    unconstrained faces whose directions cover 1..q, in enumeration order,
    scanning levels until at least `enough` are known.

    reach[F] is the set of masks of directions carried by chains of
    unconstrained faces inside F (the empty chain included): the union of
    reach over F's facets, closed under adding d(F) when F is unconstrained."""
    q, n = inst.q, inst.n
    base = q + 1
    weights = _face_weights(n, base)
    dirs = _directions_array(inst)
    bits = 1 << q
    if bits <= 64:
        dtype = np.dtype("uint%d" % max(8, bits))
        words = 1
    else:
        dtype, words = np.dtype(np.uint64), bits // 64
    word_bits = min(bits, 64)
    full_word, full_bit = divmod(bits - 1, word_bits)
    ints = np.arange(dirs.size, dtype=np.int64)
    level = np.zeros(dirs.size, dtype=np.int8)
    for w in weights:
        level += ints // w % base != 0
    by_level = np.argsort(level, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(level, minlength=n + 1))))
    reach = np.zeros((dirs.size, words), dtype=dtype)
    found = []
    for s in range(n + 1):
        faces = by_level[starts[s]:starts[s + 1]]
        acc = np.zeros((faces.size, words), dtype=dtype)
        acc[:, 0] = 1
        for w in weights:
            digit = faces // w % base
            sub = np.nonzero(digit)[0]
            acc[sub] |= reach[faces[sub] - digit[sub] * w]
        fdir = dirs[faces]
        for d in range(1, q + 1):
            rows = np.nonzero(fdir == d)[0]
            if rows.size:
                acc[rows] |= _add_direction(acc[rows], d - 1, word_bits)
        reach[faces] = acc
        hit = (fdir != 0) & (acc[:, full_word] >> dtype.type(full_bit) & dtype.type(1) != 0)
        found += sorted((_face_digits(int(f), weights, base) for f in faces[hit]),
                        key=lambda digits: _enumeration_rank(digits, q))
        if len(found) >= enough:
            break
    return found


def verify_zero_set(inst, budget=FACE_BUDGET, max_witnesses=1):
    """Search for an inclusion chain of unconstrained faces whose directions
    cover all of 1..q; an empty violations list proves the map's zero set
    stays inside the constrained region.  Reports the first max_witnesses
    violating faces in enumeration order (size, support, assignment), with
    faces_processed counted up to the last one as a face-by-face scan would."""
    q = inst.q
    if inst.face_count() > budget:
        raise ResourceBudget("instance has %d faces" % inst.face_count())
    levels = _levels_with_unconstrained(inst)
    report = ZeroSetReport(inst.q, inst.k, inst.t, inst.vertex_order,
                           len(levels), False, 0)
    if len(levels) < q:
        report.short_circuit = True
        return report
    enough = max(1, max_witnesses)
    full = (1 << q) - 1
    found = _rainbow_faces(inst, enough)[:enough]
    for digits in found:
        report.violations.append(
            [list(f) for f in _witness_chain(inst, digits, full)])
    if len(found) == enough:
        report.faces_processed = _enumeration_rank(found[-1], q) + 1
    else:
        report.faces_processed = inst.face_count()
    return report


# ---------------------------------------------------------------------------
# equivariance verification


@dataclass
class EquivarianceReport:
    q: int
    k: int
    t: int
    vertex_order: tuple
    permutations_checked: int
    full_group: bool
    faces_processed: int
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "schema": "equivariance_report/1",
            "q": self.q, "k": self.k, "t": self.t,
            "vertex_order": list(self.vertex_order),
            "permutations_checked": self.permutations_checked,
            "full_group": self.full_group,
            "faces_processed": self.faces_processed,
            "violations": self.violations,
            "ok": self.ok,
        }


def _adjacent_transpositions(q):
    out = []
    for a in range(1, q):
        perm = list(range(q + 1))
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
        out.append(tuple(perm))
    return out


def _all_slot_permutations(q):
    out = []
    for p in itertools.permutations(range(1, q + 1)):
        out.append((0,) + p)
    return out


def _face_weights(n, base):
    """Place value of each vertex's digit in a face integer."""
    return [base ** (n - 1 - v) for v in range(n)]


def _face_digits(face, weights, base):
    return tuple(face // w % base for w in weights)


def _directions_array(inst):
    """dirs[face_int] in {0 = constrained, 1..q}; the vectorised
    face_direction, built as the tensor of shape (q+1,)*n and returned flat."""
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    base = q + 1
    sizes = []  # sizes[j - 1][F]: how many vertices face F puts in slot j
    for j in range(1, base):
        unit = (np.arange(base) == j).astype(np.int8)
        size = unit
        for _ in range(n - 1):  # new axes in front keep each add contiguous
            size = np.add.outer(unit, size)
        sizes.append(size)
    dirs = np.zeros((base,) * n, dtype=np.int8 if q <= 127 else np.int64)
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


def _verify_equivariance_numpy(inst, perms, report):
    """Compare d(pi F) with pi(d(F)) for every face and permutation.  Stops
    at the fifth violation (faces in all_faces order, then permutations in
    the given order); faces_processed counts the faces read up to it."""
    n, base = inst.n, inst.q + 1
    weights = _face_weights(n, base)
    dirs = _directions_array(inst)
    tensor = dirs.reshape((base,) * n)
    found = []  # (face, permutation index, got, want): each one's first five
    for i, perm in enumerate(perms):
        lut = np.array(perm, dtype=dirs.dtype)
        image = tensor
        for axis in range(n):
            image = np.take(image, lut, axis=axis)
        image = image.reshape(-1)  # image[F] = dirs[pi F]
        want = lut[dirs]
        for f in np.flatnonzero(image != want)[:5]:
            found.append((int(f), i, int(image[f]), int(want[f])))
    found = sorted(found)[:5]
    for f, i, got, want in found:
        report.violations.append({
            "face": list(_face_digits(f, weights, base)),
            "perm": list(perms[i]), "got": got, "want": want})
    report.faces_processed = found[-1][0] + 1 if len(found) == 5 else dirs.size


def verify_equivariance(inst, full_group=None, budget=FACE_BUDGET):
    """Check d(pi F) = pi d(F).  Adjacent transpositions generate the whole
    slot-permutation group, so they are always checked; the full group is
    checked too when the instance is small (or on request)."""
    m = inst.face_count()
    if m > budget:
        raise ResourceBudget("instance has %d faces" % m)
    if full_group is None:
        full_group = math.factorial(inst.q) * m <= 2_000_000
    perms = _all_slot_permutations(inst.q) if full_group else _adjacent_transpositions(inst.q)
    report = EquivarianceReport(inst.q, inst.k, inst.t, inst.vertex_order,
                                len(perms), full_group, 0)
    _verify_equivariance_numpy(inst, perms, report)
    return report


def valid_parameter_triples(max_ground):
    """All (q, k, t) with q >= 2, 1 <= t <= q, k >= min(t, 2) and ground set
    size qk - t between 1 and max_ground."""
    out = set()
    for q in range(2, max_ground + 2):
        for t in range(1, q + 1):
            k = min(t, 2)
            while q * k - t <= max_ground:
                if q * k - t >= 1:
                    out.add((q, k, t))
                k += 1
    return sorted(out)


def random_vertex_orders(n, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        out.append(tuple(order))
    return out
