import itertools
from fractions import Fraction

import numpy as np
import pytest

from fairsplit import constraint_map
from fairsplit.constraint_map import (ConstraintMapInstance, EquivarianceReport,
                                      ZeroSetReport, _adjacent_transpositions,
                                      _all_slot_permutations,
                                      _levels_with_unconstrained,
                                      _verify_equivariance_numpy,
                                      _witness_chain, all_faces,
                                      build_map, constrained_size_bound,
                                      evaluate, face_direction,
                                      is_constrained_face, permute_slots,
                                      random_vertex_orders, slot_sizes,
                                      slot_vector,
                                      valid_parameter_triples,
                                      verify_equivariance, verify_zero_set,
                                      vertex_value)
from fairsplit.errors import InputError, ResourceBudget


# Face-by-face references for the vectorised checks.  Each takes the
# direction rule as an argument, so a deliberately wrong rule can be fed to
# both sides.

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


def _verify_zero_set_python(inst, direction=face_direction, max_witnesses=1):
    """Per-face DP over antichains of direction masks, faces enumerated by
    size, then support, then slot assignment."""
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
                            [list(f) for f in _witness_chain(inst, digits, full)])
                        if len(report.violations) >= max_witnesses:
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
    monkeypatch.setattr(constraint_map, "_directions_array", lambda inst: dirs)
    monkeypatch.setattr(constraint_map, "face_direction", rule)


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


def test_zero_set_budget_and_json():
    with pytest.raises(ResourceBudget):
        verify_zero_set(ConstraintMapInstance(3, 3, 2), budget=100)
    doc = verify_zero_set(ConstraintMapInstance(2, 2, 1)).to_json()
    assert doc["schema"] == "zero_set_report/1"
    assert doc["ok"] is True and doc["violations"] == []


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
    _verify_equivariance_numpy(inst, perms, r2)
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
            got = constraint_map._directions_array(inst, chunk=1000)
            assert got.tolist() == want, (q, k, t, order)


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
    for witnesses in (1, 3, 10 ** 6):
        got = verify_zero_set(inst, max_witnesses=witnesses).to_json()
        want = _verify_zero_set_python(inst, _first_vertex_rule,
                                       max_witnesses=witnesses).to_json()
        assert got == want and not got["ok"], (witnesses, got, want)


@pytest.mark.parametrize("q,k,t", [(3, 2, 2), (4, 2, 1), (4, 1, 1)])
def test_equivariance_reports_a_wrong_rule_like_the_reference(monkeypatch, q, k, t):
    inst = ConstraintMapInstance(q, k, t)
    _use_rule(monkeypatch, inst, _highest_tied_slot_rule)
    for perms in (_all_slot_permutations(q), _adjacent_transpositions(q)):
        reports = [EquivarianceReport(q, k, t, inst.vertex_order, len(perms), True, 0)
                   for _ in range(2)]
        _verify_equivariance_numpy(inst, perms, reports[0], chunk=7)
        _verify_equivariance_python(inst, perms, reports[1], _highest_tied_slot_rule)
        assert reports[0].to_json() == reports[1].to_json()
        assert len(reports[0].violations) == 5


@pytest.mark.parametrize("q", [2, 3, 6, 7, 8])
def test_add_direction_matches_set_semantics(q):
    bits = 1 << q
    word_bits = min(bits, 64)
    dtype = np.dtype("uint%d" % max(8, word_bits))
    rng = np.random.default_rng(q)
    sets = [set(rng.choice(bits, size=min(5, bits), replace=False).tolist())
            for _ in range(4)]
    rows = np.zeros((len(sets), max(1, bits // 64)), dtype=dtype)
    for row, masks in zip(rows, sets):
        for m in masks:
            row[m // word_bits] |= dtype.type(1 << m % word_bits)
    for b in range(q):
        out = constraint_map._add_direction(rows, b, word_bits)
        for row, masks in zip(out, sets):
            got = {w * word_bits + p for w in range(row.size)
                   for p in range(word_bits) if int(row[w]) >> p & 1}
            assert got == {m | 1 << b for m in masks}, (q, b)
