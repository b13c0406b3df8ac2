import random
from itertools import product

import pytest

from psiforge import (
    Congruence,
    Filter,
    PreconditionError,
    all_filters_classified,
    check_strict,
    classify_filter,
    congruence_from_filter,
    congruence_to_filter,
    example_3bamo,
    is_simple,
    is_subdirectly_irreducible,
    make_algebra,
    rel_to_op,
    relational_iff_simple_strict_check,
    smallest_diamond,
    variety_spot_checks,
)
from psiforge.filter_congruence import (
    _compose,
    _subalgebra_congruences,
    closed_filter_generators,
    congruence_from_partition,
    congruence_is_boolean_compatible,
    congruence_respects_op,
    enumerate_subalgebras,
    filter_is_closed,
    filter_is_closed_su_mid,
    filter_is_modal,
    filter_is_modal_via_generator,
)
from psiforge.enumeration import enumerate_psi_operators
from psiforge.ternary_operator import TernaryOperator, mu
from psiforge.verify import bamo_operator_pool, psi_operator_pool


def all_partitions(items):
    """Oracle helper: every partition of a small list."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def test_trivial_and_improper_filters_closed_and_modal(alg2, psi_ops_k2):
    for op in list(psi_ops_k2) + [example_3bamo()]:
        for g in (alg2.top, 0):
            cf = classify_filter(op, Filter(alg2, g))
            assert cf.is_closed and cf.is_modal


def test_smallest_k2_filter_flags(alg2):
    op = smallest_diamond(alg2)
    cf = classify_filter(op, Filter(alg2, 1))
    # computed flags; the one law that must hold: closed implies modal
    assert not cf.is_closed or cf.is_modal
    # mu is the identity here, so every filter is modal and (R1)(R2) make
    # every modal filter closed
    assert cf.is_modal and cf.is_closed


def test_relational_k2_only_trivial_modal(rel_ops_k2, alg2):
    for op in rel_ops_k2:
        modal_gens = [
            cf.filter.generator for cf in all_filters_classified(op) if cf.is_modal
        ]
        assert sorted(modal_gens) == [0, alg2.top]


def test_smallest_k2_every_filter_modal(alg2):
    op = smallest_diamond(alg2)
    assert all(cf.is_modal for cf in all_filters_classified(op))


def test_k1_has_exactly_two_filters(alg1):
    op = smallest_diamond(alg1)
    assert len(all_filters_classified(op)) == 2


def test_closed_implies_modal_everywhere(psi_ops_k2):
    for op in list(psi_ops_k2) + [example_3bamo()]:
        for cf in all_filters_classified(op):
            assert not cf.is_closed or cf.is_modal


def test_su_mid_reduction_on_psi(psi_ops_k2):
    for op in psi_ops_k2:
        for cf in all_filters_classified(op):
            assert cf.is_closed == cf.closed_via_su_mid


def test_modal_generator_shortcut(psi_ops_k2):
    for op in psi_ops_k2:
        for cf in all_filters_classified(op):
            assert cf.is_modal == cf.modal_via_generator


def _literal_filter_laws(op, flt):
    """The four filter predicates, read off their definitions."""
    alg = op.alg
    elems = alg.elements()
    pairs = [(x, y) for x in elems for y in elems if alg.implies(x, y) in flt]
    closed = all(
        alg.implies(op(x1, x2, x3), op(y1, y2, y3)) in flt
        for x1, y1 in pairs
        for x2, y2 in pairs
        for x3, y3 in pairs
    )
    su_mid = all(
        alg.implies(op(x, y, a), op(x, y, b)) in flt and alg.implies(op(x, a, y), op(x, b, y)) in flt
        for a, b in pairs
        for x in elems
        for y in elems
    )
    modal = all(mu(op, a) in flt for a in flt.members())
    return closed, su_mid, modal, mu(op, flt.generator) in flt


def test_filter_predicates_match_definitions(alg3):
    rng = random.Random(5)
    ops = [smallest_diamond(alg3)]
    for k in (1, 2):
        alg = make_algebra(k)
        for _ in range(12):  # uniform, 0/top-valued and sparse tables, mostly non-monotone
            ops.append(TernaryOperator(alg, tuple(rng.randrange(alg.size) for _ in range(8**k))))
            ops.append(TernaryOperator(alg, tuple(rng.choice((0, alg.top)) for _ in range(8**k))))
            ops.append(
                TernaryOperator(alg, tuple(rng.randrange(alg.size) * (rng.random() < 0.1) for _ in range(8**k)))
            )
    seen = set()
    for op in ops:
        for g in op.alg.elements():
            flt = Filter(op.alg, g)
            want = _literal_filter_laws(op, flt)
            got = (
                filter_is_closed(op, flt),
                filter_is_closed_su_mid(op, flt),
                filter_is_modal(op, flt),
                filter_is_modal_via_generator(op, flt),
            )
            assert got == want, (op.table, g)
            seen.add(want)
    # each predicate is seen both to hold and to fail
    assert all({v[i] for v in seen} == {True, False} for i in range(4))


def test_congruence_trivial_cases(alg2):
    identity = congruence_from_partition(alg2, [[a] for a in alg2.elements()])
    assert congruence_to_filter(identity).generator == alg2.top
    one_block = congruence_from_partition(alg2, [list(alg2.elements())])
    assert congruence_to_filter(one_block).generator == 0


def test_congruence_filter_k2_example(alg2):
    theta = congruence_from_filter(alg2, Filter(alg2, 1))
    assert sorted(map(sorted, theta.blocks())) == [[0, 2], [1, 3]]
    assert congruence_to_filter(theta).generator == 1


def test_congruence_round_trips(alg2):
    for g in alg2.elements():
        theta = congruence_from_filter(alg2, Filter(alg2, g))
        assert congruence_to_filter(theta).generator == g
        back = congruence_from_filter(alg2, congruence_to_filter(theta))
        assert back.reps == theta.reps


def test_congruence_dispatch(alg2):
    theta = congruence_from_filter(alg2, Filter(alg2, 2))
    assert isinstance(theta, Congruence)
    assert congruence_to_filter(theta).generator == 2


def test_incompatible_partition_rejected(alg2):
    bad = congruence_from_partition(alg2, [[0, 3], [1, 2]])
    assert not congruence_is_boolean_compatible(bad)
    with pytest.raises(ValueError):
        congruence_to_filter(bad)


def test_boolean_congruences_are_exactly_filter_induced(alg2):
    """Oracle: sweep every partition of the 4-element carrier."""
    filter_induced = {
        congruence_from_filter(alg2, Filter(alg2, g)).reps for g in alg2.elements()
    }
    compatible = set()
    for blocks in all_partitions(list(alg2.elements())):
        cong = congruence_from_partition(alg2, blocks)
        if congruence_is_boolean_compatible(cong):
            compatible.add(cong.reps)
    assert compatible == filter_induced


def test_op_compatibility_iff_closed_filter(psi_ops_k2, alg2):
    for op in psi_ops_k2:
        for g in alg2.elements():
            theta = congruence_from_filter(alg2, Filter(alg2, g))
            assert congruence_respects_op(op, theta) == filter_is_closed(
                op, Filter(alg2, g)
            )


def test_simple_on_relational(rel_ops_k2, ecas_k1):
    for op in rel_ops_k2:
        assert is_simple(op)
    op1 = rel_to_op(ecas_k1[0])
    assert is_simple(op1)


def test_smallest_k2_not_simple(alg2):
    op = smallest_diamond(alg2)
    assert not is_simple(op)
    # every filter is closed here (computed via the classifier)
    assert closed_filter_generators(op) == list(alg2.elements())
    assert not is_subdirectly_irreducible(op)


def test_simple_refuses_non_psi():
    with pytest.raises(PreconditionError):
        is_simple(example_3bamo())


def test_relational_iff_simple_strict(psi_ops_k2):
    for op in psi_ops_k2:
        assert relational_iff_simple_strict_check(op).passed


def test_si_implies_simple_on_strict(psi_ops_k2):
    for op in psi_ops_k2:
        if check_strict(op).passed and is_subdirectly_irreducible(op):
            assert is_simple(op)


def test_subalgebras_of_smallest_k2(alg2):
    subs = enumerate_subalgebras(smallest_diamond(alg2))
    assert (0, 3) in subs and (0, 1, 2, 3) in subs
    assert len(subs) == 2


def test_variety_spot_checks(psi_ops_k2, alg1):
    strict_ops = [op for op in psi_ops_k2 if check_strict(op).passed]
    strict_ops.append(smallest_diamond(alg1))
    assert len(strict_ops) >= 3
    assert variety_spot_checks(strict_ops).passed


def test_variety_refuses_non_strict(psi_ops_k2):
    non_strict = [op for op in psi_ops_k2 if not check_strict(op).passed]
    assert non_strict, "expected some non-strict pseudo-inference table"
    with pytest.raises(PreconditionError):
        variety_spot_checks(non_strict[:1])


def test_congruence_lattice_of_simple_is_two_chain(rel_ops_k2, alg2):
    for op in rel_ops_k2:
        assert closed_filter_generators(op) == [0, alg2.top]


# Definitional loops over related pairs: the references for the lead tests.


def _boolean_by_pairs(cong):
    alg = cong.alg
    for a in alg.elements():
        for b in alg.elements():
            if not cong.related(a, b):
                continue
            if not cong.related(alg.neg(a), alg.neg(b)):
                return False
            for c in alg.elements():
                if not cong.related(a | c, b | c) or not cong.related(a & c, b & c):
                    return False
    return True


def _respects_op_by_pairs(op, cong):
    alg = op.alg
    for a in alg.elements():
        for b in alg.elements():
            if not cong.related(a, b):
                continue
            for x in alg.elements():
                for y in alg.elements():
                    if not cong.related(op(a, x, y), op(b, x, y)):
                        return False
                    if not cong.related(op(x, a, y), op(x, b, y)):
                        return False
                    if not cong.related(op(x, y, a), op(x, y, b)):
                        return False
    return True


def _subalgebra_congruences_by_pairs(op, carrier):
    alg = op.alg
    n = len(carrier)
    pos = {a: i for i, a in enumerate(carrier)}
    congs = []
    for assignment in product(range(n), repeat=n):
        first_of = {}
        for i, lab in enumerate(assignment):
            first_of.setdefault(lab, i)
        if tuple(first_of[lab] for lab in assignment) != assignment:
            continue

        def related(a, b, labels=assignment):
            return labels[pos[a]] == labels[pos[b]]

        ok = all(
            related(alg.neg(a), alg.neg(b))
            and all(related(a | x, b | x) and related(a & x, b & x) for x in carrier)
            and all(
                related(op(a, x, y), op(b, x, y))
                and related(op(x, a, y), op(x, b, y))
                and related(op(x, y, a), op(x, y, b))
                for x in carrier
                for y in carrier
            )
            for a in carrier
            for b in carrier
            if related(a, b)
        )
        if ok:
            congs.append(frozenset((a, b) for a in carrier for b in carrier if related(a, b)))
    return congs


def _lead_cases(alg, ops, congs):
    """Both congruence tests against the loops on every (operator,
    congruence) pair; the verdicts seen, for coverage."""
    seen = set()
    for cong in congs:
        boolean = congruence_is_boolean_compatible(cong)
        assert boolean == _boolean_by_pairs(cong), cong
        seen.add(("boolean", boolean))
        for op in ops:
            respects = congruence_respects_op(op, cong)
            assert respects == _respects_op_by_pairs(op, cong), (op.table, cong)
            seen.add(("op", respects))
    return seen


def test_lead_tests_equal_the_definitional_loops(alg1, alg2, alg3):
    """congruence_is_boolean_compatible and congruence_respects_op against
    their pairwise loops: every partition of the carrier at k <= 2, both
    with block minima as reps and with labels that are no block member,
    for the psi and bamo pools; seeded labellings at k = 3."""
    pool = psi_operator_pool(2) + bamo_operator_pool(2)
    seen = set()
    for alg in (alg1, alg2):
        ops = [op for op in pool if op.alg == alg]
        congs = []
        for blocks in all_partitions(alg.elements()):
            cong = congruence_from_partition(alg, blocks)
            # labelled by the largest member, shifted past the carrier
            label = {min(b): max(b) + 100 for b in blocks}
            congs += [cong, Congruence(alg, tuple(label[r] for r in cong.reps))]
        seen |= _lead_cases(alg, ops, congs)
    rng = random.Random(17)
    ops3 = [op for op in psi_operator_pool(3) + bamo_operator_pool(3) if op.alg == alg3]
    congs3 = [congruence_from_filter(alg3, Filter(alg3, g)) for g in alg3.elements()]
    congs3 += [Congruence(alg3, tuple(rng.randrange(4) for _ in range(8))) for _ in range(40)]
    seen |= _lead_cases(alg3, ops3, congs3)
    assert seen == {("boolean", True), ("boolean", False), ("op", True), ("op", False)}


def test_subalgebra_congruences_equal_the_definitional_loop(alg1, alg2):
    ops = [op for alg in (alg1, alg2) for op in enumerate_psi_operators(alg) if check_strict(op).passed]
    carriers = 0
    for op in ops:
        for carrier in enumerate_subalgebras(op):
            assert _subalgebra_congruences(op, carrier) == _subalgebra_congruences_by_pairs(op, carrier)
            carriers += 1
    assert carriers > len(ops)


def test_composition_equals_the_definitional_loop(alg2):
    """_compose against a loop over middle elements, on every pair of
    partitions of the 2-atom carrier; some pairs do not permute."""
    congs = [congruence_from_partition(alg2, blocks) for blocks in all_partitions(alg2.elements())]
    permute = set()
    for x in congs:
        for y in congs:
            pairs = {
                (a, c)
                for a in alg2.elements()
                for b in alg2.elements()
                for c in alg2.elements()
                if x.related(a, b) and y.related(b, c)
            }
            assert _compose(x, y) == pairs
            permute.add(_compose(x, y) == _compose(y, x))
    assert permute == {True, False}
