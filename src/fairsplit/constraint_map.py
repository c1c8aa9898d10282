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
                       faces whose directions cover 1..q, done by a numpy DP
                       that keeps, for every face, the set of direction
                       masks its chains can carry as a 2^q-bit bitset in one
                       machine word (q <= 6), fills it in one level (face
                       size) at a time, and stops at the first face topping
                       such a chain.  Every face of fewer than k vertices is
                       constrained, and every level from k to n holds an
                       unconstrained face, so the DP starts at level k; with
                       fewer than q such levels no chain can carry q
                       directions (the short circuit).

  verify_equivariance  d(pi F) = pi(d(F)) for slot permutations pi; the
                       adjacent transpositions generate the full symmetric
                       group, so checking them suffices, and small instances
                       are additionally checked against every permutation.

Both checks read the directions of all faces from one numpy array, which
phi-check and suite build once for the pair (verify_both).  It is the
C-contiguous tensor of shape (q+1,)*n whose axis i is the digit of vertex
vertex_order[i], the order it is built in.  A face's direction is the slot
of its first vertex in the vertex order when that slot is a largest one;
otherwise the face without that vertex has the same largest slots, and so
the same direction under the rule read before the constraint.  So the
tensor grows one leading axis per vertex, from the last in the vertex order
to the first (see _directions_array), and is never copied into another
axis order: the transposed view with axis v for vertex v
(_in_vertex_order) has C order equal to the order of
itertools.product(range(q + 1), repeat=n).

The directions of the permuted faces are the tensor reindexed by the
permutation along every axis, which rewrites only the slices of the digits
the permutation moves, as whole blocks of the axes below; the check does it
one cache-sized block of the leading axes at a time.  The tensor build
selects by arithmetic, and neither kernel makes a masked copy.  Every axis
is treated alike, so the check runs in build order, and only a permutation
with a violation writes a mask in vertex order, so that violations are
reported in its C order, as a face-by-face loop would find them.  The
zero-set DP works one level s at a time, as one array of shape (C(n, s),) +
(q,)*s: supports in `combinations` order, then slot assignments, which is
the order it reports in.  It gathers the level's directions from the tensor
through per-vertex strides, and each facet's reach from the previous level
by the row of the facet's support, read from a table indexed by support
bitmask (2^n entries), broadcast along the axis of the dropped vertex.  No
digits are extracted.  numpy is imported inside the functions that build or
read the tensor, so that commands which never run a check (every one but
phi-check and suite) do not pay for loading it.

Memory, in bytes per face: the int8 direction tensor is 1, and building it
peaks at 1 + (2q+3)/(q+1), at most 3.34.  The equivariance check then holds
the tensor and two int8 blocks of at most _BLOCK_FACES faces: the image,
and either the step buffer, the copied slices of the moved digits or the
comparison's mask.  That is at most 3 bytes per face, so it peaks no higher
than the build; a permutation with a violation adds a 1-byte mask.  The
zero-set DP keeps the reach bitsets, max(1, 2^q/8) bytes per face, of two
levels only, the one it fills and the one below, plus that level's int32
gather index or the closure's temporaries, and a rank table of 2^n words,
far below (q+1)^n faces.  Before the tensor is built, the faces times the
check's bound (5 for equivariance, 4 plus twice the reach for the zero set)
are held to errors.MEMORY_LIMIT; a pair built once is held to both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .complexes import FACE_BUDGET
from .errors import MEMORY_LIMIT, InputError, ResourceBudget


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
        # so n = qk - t >= 1: at least q - 1 for t = 1, and q for k >= 2
        n = self.n
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


# bytes per face that bound each check's peak under tracemalloc: the tensor
# build's 1 + (2q+3)/(q+1), at most 3.34, which the equivariance check's
# tensor and two blocks stay under (a violation's mask adds 1), plus a few
# kilobytes of tables and frames (3.35 in all at q = 2, n = 11); the zero
# set adds the reach bitsets of two levels and the temporaries of one
_EQUIVARIANCE_BYTES_PER_FACE = 5

# the most faces in a block of the equivariance check: its image, its step
# buffer and the block it reads, 512 KiB each, fit in a 2 MiB L2 cache
_BLOCK_FACES = 1 << 19


def _zero_set_bytes_per_face(q):
    """The fewest faces past the short circuit are (q+1)^(q+1), at (q, 2,
    q-1); at q = 7 that is 8^8 faces at 36 bytes, 604 MB, and both factors
    grow with q.  So MEMORY_LIMIT refuses every zero set of q >= 7, and a
    reach bitset is one word of at most 64 bits."""
    return 4 + 2 * max(1, (1 << q) // 8)


def _check_face_budget(inst, budget, bytes_per_face):
    """Raise ResourceBudget when the (q+1)^n faces exceed budget, or when
    they take more than MEMORY_LIMIT at bytes_per_face each.  The power is
    built one factor at a time and abandoned once past the budget, so a huge
    instance costs at most n multiplications of numbers near budget."""
    faces = 1
    for _ in range(inst.n):  # n >= 1
        faces *= inst.q + 1
        if faces > budget:
            raise ResourceBudget("instance has more faces than the face budget of %d"
                                 % budget)
    if faces * bytes_per_face > MEMORY_LIMIT:
        raise ResourceBudget("%d^%d faces at %d bytes each pass the memory "
                             "limit of %d bytes" % (inst.q + 1, inst.n,
                                                    bytes_per_face, MEMORY_LIMIT))


# ---------------------------------------------------------------------------
# zero-set verification


@dataclass
class ZeroSetReport:
    """Its fields and ok are the zero_set_report/1 document."""

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
        return {"schema": "zero_set_report/1", **vars(self), "ok": self.ok}


def _witness_chain(dirs, top, need_mask):
    """Reconstruct an explicit rainbow chain below `top` covering need_mask,
    by depth-first descent, reading each face's direction from the tensor
    (0 = constrained); used only to decorate violations."""

    def rec(digits, need, acc):
        if need == 0:
            return acc
        support = [v for v, d in enumerate(digits) if d]
        for v in support:
            sub = list(digits)
            sub[v] = 0
            sub = tuple(sub)
            d = int(dirs[sub])
            nxt = acc
            nd = need
            if d and need & (1 << (d - 1)):
                nxt = [sub] + acc
                nd = need & ~(1 << (d - 1))
            got = rec(sub, nd, nxt)
            if got is not None:
                return got
        return None

    d_top = int(dirs[top])
    need = need_mask & ~(1 << (d_top - 1))
    got = rec(top, need, [top])
    return got if got is not None else [top]


def _closure_tables(q):
    """Tables that add a face's direction d to its bitset of direction masks
    (bit m = mask m, in one word of max(8, 2^q) bits): the masks without d,
    acc & keep[d], move up by shift[d] = 2^(d-1).  Row 0, for constrained
    faces, moves nothing."""
    import numpy as np
    keep = np.zeros(q + 1, dtype=np.dtype("uint%d" % max(8, 1 << q)))
    shift = np.zeros(q + 1, dtype=np.uint8)
    for d in range(1, q + 1):
        shift[d] = b = 1 << (d - 1)
        keep[d] = sum(1 << m for m in range(1 << q) if not m & b)
    return keep, shift


def _add_directions(acc, fdir, tables):
    """acc[F] |= {m | 2^(d-1) : m in acc[F]} with d = fdir[F], in place."""
    keep, shift = tables
    moved = keep[fdir]
    moved &= acc
    moved <<= shift[fdir]
    acc |= moved


def _first_rainbow_face(inst, dirs, start):
    """The first unconstrained face F, in enumeration order, that tops an
    inclusion chain of unconstrained faces whose directions cover 1..q, or
    None; and how many faces the enumeration reads up to it (all of them if
    there is none).

    reach[F] is the set of masks of directions carried by chains of
    unconstrained faces inside F (the empty chain included): the union of
    reach over F's facets, closed under adding d(F) when F is unconstrained.
    Level s is one array of shape (C(n, s),) + (q,)*s: supports in
    `combinations` order, then slot assignments, so a flat position in it is
    the face's place in the enumeration.  Its directions are gathered from
    the tensor through per-vertex strides.  Dropping the i-th vertex of a
    support gives a facet whose assignments are those of axis 1+i removed,
    so the previous level's reach, gathered by the facets' support rows
    (looked up by bitmask: the support's mask less the vertex's bit),
    broadcasts along that axis.  Faces below level `start` are all
    constrained, so their reach is the empty chain.  `dirs` is the direction
    tensor of _directions_array, in its build order."""
    import numpy as np
    q, n = inst.q, inst.n
    tables = _closure_tables(q)
    top = tables[0].dtype.type((1 << q) - 1)  # the full mask's bit
    flat = dirs.reshape(-1)
    # int32 holds every face index: faces * 6 bytes <= MEMORY_LIMIT
    stride = np.empty(n, dtype=np.int32)
    for i, v in enumerate(inst.vertex_order):
        stride[v] = (q + 1) ** (n - 1 - i)
    digits = np.arange(1, q + 1, dtype=np.int32)
    # rank[mask] is the row of the support with that bitmask in its level;
    # levels have distinct popcounts, so one table holds them all
    rank = np.empty(1 << n, dtype=np.intp)
    processed = sum(math.comb(n, s) * q ** s for s in range(start))
    reach = None  # the previous level's; None for the empty chain alone
    for s in range(start, n + 1):  # start = k >= 1
        supports = np.array(list(itertools.combinations(range(n), s)),
                            dtype=np.intp)
        rows = len(supports)
        bits = np.left_shift(1, supports)
        mask = bits.sum(axis=1)
        index = sum(np.multiply.outer(stride[supports[:, i]], digits).reshape(
            (rows,) + (1,) * i + (q,) + (1,) * (s - 1 - i)) for i in range(s))
        fdir = flat[index]
        del index
        if reach is None:
            acc = np.ones(fdir.shape, dtype=tables[0].dtype)
        else:
            facets = rank[mask[:, None] - bits]  # facet i drops vertex c_i
            acc = np.zeros(fdir.shape, dtype=reach.dtype)
            for i in range(s):
                acc |= reach[facets[:, i]].reshape(
                    (rows,) + (q,) * i + (1,) + (q,) * (s - 1 - i))
        rank[mask] = np.arange(rows)
        _add_directions(acc, fdir, tables)
        # a chain covering 1..q holds q unconstrained faces, of distinct
        # sizes from level `start` up.  A constrained face adds no direction,
        # so the first level where the full mask shows has it only on
        # unconstrained faces
        if s >= start + q - 1:
            hits = np.flatnonzero(acc >> top)
            if hits.size:
                row, assigned = divmod(int(hits[0]), q ** s)
                face = [0] * n
                for v, a in zip(supports[row], np.unravel_index(assigned, (q,) * s)):
                    face[int(v)] = int(a) + 1
                return tuple(face), processed + int(hits[0]) + 1
        processed += fdir.size
        del fdir
        reach = acc
    return None, processed


def _in_vertex_order(inst, dirs):
    """The view of the direction tensor whose axis v is vertex v's digit
    (_directions_array builds axis i for vertex vertex_order[i])."""
    axes = [0] * inst.n
    for i, v in enumerate(inst.vertex_order):
        axes[v] = i
    return dirs.transpose(axes)


def _zero_set_report(inst, budget):
    """The zero-set report before any face is read, once the budget admits
    the faces the DP needs."""
    q, k = inst.q, inst.k
    # the levels (face sizes) holding an unconstrained face are k..n: a face
    # of k or more vertices can put k of them in one slot, and a smaller one
    # could only leave the region with q-t+2 slots of k-1 vertices each,
    # which takes 2(k-1) >= k vertices when k >= 2 (and k = 1 forces t = 1,
    # which would need q+1 slots)
    levels = inst.n - k + 1
    report = ZeroSetReport(q, k, inst.t, inst.vertex_order, levels,
                           levels < q, 0)
    # the short circuit builds nothing
    _check_face_budget(inst, budget,
                       0 if report.short_circuit else _zero_set_bytes_per_face(q))
    return report


def _search_zero_set(inst, dirs, report):
    """Fill the report, past its short circuit, from the direction tensor."""
    face, report.faces_processed = _first_rainbow_face(inst, dirs, inst.k)
    if face is not None:
        report.violations.append({"chain": [list(f) for f in _witness_chain(
            _in_vertex_order(inst, dirs), face, (1 << inst.q) - 1)]})


def verify_zero_set(inst):
    """Search for an inclusion chain of unconstrained faces whose directions
    cover all of 1..q; an empty violations list proves the map's zero set
    stays inside the constrained region.  Reports the first violating face
    in enumeration order (size, support, assignment), with faces_processed
    counted up to it as a face-by-face scan would.  Held to FACE_BUDGET;
    phi-check sets its own budget through verify_both."""
    report = _zero_set_report(inst, FACE_BUDGET)
    if not report.short_circuit:
        _search_zero_set(inst, _directions_array(inst), report)
    return report


# ---------------------------------------------------------------------------
# equivariance verification


@dataclass
class EquivarianceReport:
    """Its fields and ok are the equivariance_report/1 document."""

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
        return {"schema": "equivariance_report/1", **vars(self), "ok": self.ok}


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


def _directions_array(inst):
    """dirs[face] in {0 = constrained, 1..q}: the direction rule of the
    module docstring, as the C-contiguous tensor of shape (q+1,)*n whose
    axis i is the digit of vertex vertex_order[i], the order it is built in
    (_in_vertex_order views it with axis v for vertex v).

    Step m puts the axis of vertex vertex_order[n - 1 - m] in front of the
    directions of the faces G of the vertices after it in the order, read
    before the constraint (0 for the empty face).  size[j - 1][G] = 1 +
    (vertices of G in slot j) is slot j's size once the new vertex joins it,
    the same tensor whichever vertex that is, since the axes are symmetric.
    Slot j is then a largest slot iff size[j - 1] >= G's largest slot, and
    the face (j, G) takes direction j; otherwise it takes G's.  Each step
    writes that select as arithmetic, prev + wins * (j - prev), in three
    passes over the new tensor with no masked copy.  The constrained faces
    are read off the last step's tensors and zeroed by multiplying with the
    complement of their mask.

    The peak, in bytes per face, is 1 + (2q+3)/(q+1), at most 3.34: at the
    last step's allocation the new tensor (1) and, per face of the tensor
    before it (1/(q+1) each), that tensor, the q slot sizes, the q winner
    flags and the two constraint masks.  The masks' temporaries are freed
    as they go, so that they stay under it even at q = 2."""
    import numpy as np
    q, k, t, n = inst.q, inst.k, inst.t, inst.n
    base = q + 1
    dtype = np.int8  # MEMORY_LIMIT admits q <= 9, n <= 16
    slots = np.arange(1, base, dtype=dtype)[:, None]
    unit = np.eye(q, base, 1, dtype=dtype)[:, :, None]
    size = np.ones((q, 1), dtype=dtype)
    prev = np.zeros(1, dtype=dtype)  # the empty face has no largest slot
    for step in range(n):
        if step:  # the new axis in front keeps the add contiguous
            size = (unit + size[:, None, :]).reshape(q, -1)
        largest = size.max(axis=0)
        largest -= 1
        wins = size >= largest
        if step == n - 1:
            # (0, G) is constrained iff G's slots are at most k-1 and t-1 of
            # them at most k-2; (j, G) iff also size[j - 1] <= k-1, and then
            # slot j is at k-2 or fewer only if size[j - 1] <= k-2
            small = np.sum(size <= k - 1, axis=0, dtype=dtype)
            fits = largest <= k - 1
            del largest
            unused = small >= t - 1
            unused &= fits
            fits &= small >= t  # now: (j, G) may take k-1 in slot j
            del small
            limit = unused.view(dtype) * dtype(k - 2)
            limit += fits.view(dtype)
            del fits
        # (j, G) takes prev + wins * (j - prev): j where slot j wins, else G's
        dirs = np.empty(base * prev.size, dtype=dtype)
        by_digit = dirs.reshape(base, -1)
        by_digit[0] = prev
        np.subtract(slots, prev, out=by_digit[1:])
        del prev
        by_digit[1:] *= wins.view(dtype)
        by_digit[1:] += by_digit[0]
        prev = dirs
    # zero the constrained faces: multiply by the complement of their mask
    by_digit[0] *= np.logical_not(unused, out=unused).view(dtype)
    by_digit[1:] *= np.greater(size, limit, out=wins).view(dtype)
    return dirs.reshape((base,) * n)


def _verify_equivariance_numpy(inst, perms, report, dirs):
    """Compare d(pi F) with pi(d(F)) for every face and permutation, as
    pi^-1 d(pi F) against d(F), moving only what pi moves, one block at a
    time.  A block is the sub-tensor under a digit prefix c of the fewest
    leading axes that leave it at most _BLOCK_FACES faces (the whole tensor
    when it has no more), and its image is read from block pi(c).  The
    image starts as pi^-1 d(F): d(F) plus v - pi(v) on the faces with d(F)
    = pi(v), for each digit v that pi moves, added through one int8 step
    buffer, the first straight from the source block.  With the buffer
    freed, along each remaining axis the slices of the moved digits v take
    those of pi(v), each run of faces below the axis moved as one block;
    numpy copies the source slices first, 2/(q+1) of a block for a
    transposition.  So the tensor and at most two blocks are alive.  Every
    axis is treated alike, so the tensor is compared in its build order;
    a permutation with a violation builds its blocks again, into a mask laid
    out in vertex order, and reads got = d(pi F) from the tensor.  The
    identity is skipped.  Stops at the fifth violation (faces in C order of
    the vertex-order tensor, then permutations in the given order);
    faces_processed counts the faces read up to it."""
    import numpy as np
    base, n = inst.q + 1, inst.n
    lead = next(a for a in range(n + 1) if base ** (n - a) <= _BLOCK_FACES)
    prefixes = list(itertools.product(range(base), repeat=lead))
    image = np.empty((base,) * (n - lead), dtype=dirs.dtype)
    # image as (before, digit) around each axis, each entry the run of
    # `after` bytes below it as one void block, so that a slice move copies
    # whole blocks; the innermost axis, with runs of one, stays int8
    axes = []
    for a in range(n - lead):
        after = base ** (n - lead - 1 - a)
        view = image.reshape(-1, base, after)
        axes.append((view.view("V%d" % after) if after > 1 else view)[..., 0])
    found = []  # (face, permutation index, got, want): each one's first five
    for i, perm in enumerate(perms):
        moved = [v for v in range(base) if perm[v] != v]
        if not moved:
            continue
        to, fro = np.array(moved), np.array([perm[v] for v in moved])

        def permuted(c):
            """image[F] = pi^-1 d(pi F) on block c"""
            source = dirs[tuple(map(perm.__getitem__, c))]
            step = np.empty(image.shape, dtype=np.bool_)
            shift, out = step.view(dirs.dtype), source
            for v in moved:
                np.equal(source, perm[v], out=step)
                if abs(v - perm[v]) > 1:  # a step of one is the mask itself
                    shift *= abs(v - perm[v])
                out = (np.add if v > perm[v] else np.subtract)(out, shift, out=image)
            del step, shift
            for view in axes:
                view[:, to] = view[:, fro]
            return image

        for c in prefixes:
            if not (permuted(c) == dirs[c]).all():
                break
        else:
            continue
        # the mask of violations in vertex order, written block by block
        # through its build-order view, where argmax finds each next one
        mask = np.empty(dirs.shape, dtype=np.bool_)
        marks = mask.transpose(inst.vertex_order)
        for c in prefixes:
            np.not_equal(permuted(c), dirs[c], out=marks[c + (...,)])
        flat, want = mask.reshape(-1), _in_vertex_order(inst, dirs)
        for _ in range(5):
            f = int(flat.argmax())
            if not flat[f]:
                break
            flat[f] = False
            face = np.unravel_index(f, dirs.shape)
            found.append((f, i, int(want[tuple(perm[d] for d in face)]), perm[want[face]]))
        del mask, marks, flat
    found = sorted(found)[:5]
    for f, i, got, want in found:
        report.violations.append({
            "face": [int(d) for d in np.unravel_index(f, dirs.shape)],
            "perm": list(perms[i]), "got": got, "want": want})
    report.faces_processed = found[-1][0] + 1 if len(found) == 5 else dirs.size


def _equivariance_report(inst, budget):
    """The equivariance report before any face is read, and the slot
    permutations to check, once the budget admits the faces.  Adjacent
    transpositions generate the whole slot-permutation group, so checking
    them suffices; small instances (q! (q+1)^n <= 2,000,000) are checked
    against every permutation instead."""
    _check_face_budget(inst, budget, _EQUIVARIANCE_BYTES_PER_FACE)
    full_group = math.factorial(inst.q) * inst.face_count() <= 2_000_000
    perms = _all_slot_permutations(inst.q) if full_group else _adjacent_transpositions(inst.q)
    report = EquivarianceReport(inst.q, inst.k, inst.t, inst.vertex_order,
                                len(perms), full_group, 0)
    return report, perms


def verify_equivariance(inst):
    """Check d(pi F) = pi d(F) (see _equivariance_report for which pi),
    held to FACE_BUDGET like verify_zero_set."""
    report, perms = _equivariance_report(inst, FACE_BUDGET)
    _verify_equivariance_numpy(inst, perms, report, _directions_array(inst))
    return report


def verify_both(inst, budget=FACE_BUDGET):
    """verify_zero_set and verify_equivariance, in that order, reading one
    direction tensor.  Both budgets are checked before it is built, and
    each check's bytes per face bound its peak, since the zero-set DP's
    arrays are gone before the equivariance check starts."""
    zero_set = _zero_set_report(inst, budget)
    equivariance, perms = _equivariance_report(inst, budget)
    dirs = _directions_array(inst)
    if not zero_set.short_circuit:
        _search_zero_set(inst, dirs, zero_set)
    _verify_equivariance_numpy(inst, perms, equivariance, dirs)
    return zero_set, equivariance
