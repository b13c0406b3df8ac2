import itertools
import random

import pytest

from psiforge import (
    PreconditionError,
    TernaryRelation,
    characteristic_lemma_check,
    check_derived_eca_props,
    check_eca,
    check_extca,
    check_psi,
    check_strict,
    contact_from_eca,
    empty_relation,
    full_relation,
    is_relational,
    largest_eca,
    make_algebra,
    op_to_rel,
    posets_dual_iso_check,
    rel_to_op,
    relation_from_triples,
    smallest_diamond,
)
from psiforge.contact_relation import _chi_table, _law, relation_from_json
from psiforge.topo_models import eca_from_topology, three_point_space


@pytest.fixture(scope="module")
def topo_rel():
    _, rel = eca_from_topology(three_point_space())
    return rel


@pytest.mark.parametrize("k", [1, 2, 3])
def test_largest_eca_passes_both_systems(k):
    rel = largest_eca(make_algebra(k))
    assert check_eca(rel).passed
    assert check_extca(rel).passed


def test_largest_eca_membership(alg2):
    rel = largest_eca(alg2)
    for c in alg2.elements():
        assert rel.holds(1, 2, c)
    assert not rel.holds(3, 3, 0)


def test_empty_relation_fails_ec2_at_origin(alg2):
    r = check_eca(empty_relation(alg2)).result("EC2")
    assert not r.passed and r.witness == (0, 0, 0)


def test_full_relation_fails_extca3(alg2):
    r = check_extca(full_relation(alg2)).result("ExtCA3")
    assert not r.passed and r.witness == (1, 1, 0)


def test_eca_iff_extca_exhaustive_k1(alg1):
    for bits in range(256):
        rel = TernaryRelation(alg1, bits)
        assert check_eca(rel).passed == check_extca(rel).passed


def test_topological_relation_is_eca(topo_rel):
    assert check_eca(topo_rel).passed
    assert check_extca(topo_rel).passed


def test_derived_props_hold(alg2, topo_rel):
    assert check_derived_eca_props(largest_eca(alg2)).passed
    assert check_derived_eca_props(topo_rel).passed


def test_derived_props_refuses_non_eca(alg2):
    with pytest.raises(PreconditionError):
        check_derived_eca_props(empty_relation(alg2))


def test_ec3_iff_on_topological(topo_rel):
    alg = topo_rel.alg
    for a in alg.elements():
        for f in alg.elements():
            assert topo_rel.holds(a, a, f) == alg.leq(a, f)


def test_ec3_iff_reports_its_least_witness():
    """EC3-iff's two rows sweep the same (a, f), and the law reports the
    least (a, f) failing either, on relations that are not ECAs (the
    derived-law check refuses those, so _law is called directly)."""
    rng, alg1, alg2 = random.Random(31), make_algebra(1), make_algebra(2)
    rels = [TernaryRelation(alg1, bits) for bits in range(256)]
    rels += [TernaryRelation(alg2, rng.getrandbits(64)) for _ in range(200)]
    orders = set()
    for rel in rels:
        alg = rel.alg
        pairs = [(a, f) for a in alg.elements() for f in alg.elements()]
        # the first row fails where (a, a) |- f and a is not below f, the
        # second where a <= f and not (a, a) |- f
        first = [(a, f) for a, f in pairs if rel.holds(a, a, f) and not alg.leq(a, f)]
        second = [(a, f) for a, f in pairs if alg.leq(a, f) and not rel.holds(a, a, f)]
        result = _law(_chi_table(rel), alg.top, "EC3-iff")
        assert result.witness == min(first + second, default=None), rel.bits
        if first and second:
            orders.add(first[0] < second[0])
    # the least witness comes from the first row on some relations, the second on others
    assert orders == {False, True}


def test_characteristic_lemma(alg2, topo_rel):
    assert characteristic_lemma_check(largest_eca(alg2)).passed
    assert characteristic_lemma_check(topo_rel).passed
    with pytest.raises(PreconditionError):
        characteristic_lemma_check(full_relation(alg2))


def test_characteristic_spot_instance(alg2):
    # with conclusion = top both sides are 1 outright
    rel = largest_eca(alg2)
    a, x, b, c = 1, 2, 3, 3
    assert rel.chi(a | x, b, c) == 1
    assert rel.chi(a, b, c) & rel.chi(x, b, c) == 1


def test_rel_to_op_largest_formula(alg2):
    op = rel_to_op(largest_eca(alg2))
    for a in alg2.elements():
        for b in alg2.elements():
            for c in alg2.elements():
                want = alg2.top if a & b & c else 0
                assert op(a, b, c) == want


def test_rel_to_op_zero_premise(alg2, ecas_k2):
    for rel in ecas_k2:
        op = rel_to_op(rel)
        for b in alg2.elements():
            for c in alg2.elements():
                assert op(0, b, c) == 0


def test_translation_images_are_relational_psi(ecas_k1, ecas_k2):
    for rel in ecas_k1 + ecas_k2:
        op = rel_to_op(rel)
        assert is_relational(op)[0]
        assert check_psi(op).passed
        assert check_strict(op).passed


def test_round_trips(ecas_k1, ecas_k2, rel_ops_k2):
    for rel in ecas_k1 + ecas_k2:
        assert op_to_rel(rel_to_op(rel)).bits == rel.bits
    for op in rel_ops_k2:
        assert rel_to_op(op_to_rel(op)).table == op.table


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_translations_match_their_definitions(k):
    """The whole-word translations agree entry by entry with
    dia(a,b,c) = 0 iff (a,b) |- not c, on random relations and tables,
    on every enumerated ECA through 3 atoms, and on the largest relation
    (alone at 6 atoms)."""
    import random

    from psiforge import enumerate_ecas
    from psiforge.contact_relation import _chi_table
    from psiforge.ternary_operator import TernaryOperator

    alg = make_algebra(k)
    size, top, rng = alg.size, alg.top, random.Random(k)
    cells = list(itertools.product(range(size), repeat=3))
    rels = [largest_eca(alg)]
    rels += [TernaryRelation(alg, rng.getrandbits(size ** 3)) for _ in range(5)] if k <= 5 else []
    rels += enumerate_ecas(alg) if k <= 3 else []
    for rel in rels:
        raw = rel.bits.to_bytes(size ** 3 // 8, "little")  # bit (a, b, c) of the bitset, one at a time

        def holds(a, b, c):
            i = (a * size + b) * size + c
            return raw[i >> 3] >> (i & 7) & 1

        want = tuple(0 if holds(a, b, top ^ c) else top for a, b, c in cells)
        assert rel_to_op(rel).table == want
        assert _chi_table(rel) == tuple(top if holds(a, b, c) else 0 for a, b, c in cells)
    ops = [rel_to_op(rel) for rel in rels]
    ops += [TernaryOperator(alg, tuple(rng.randrange(size) for _ in cells)) for _ in range(5)] if k <= 5 else []
    for op in ops:
        want = relation_from_triples(alg, [(a, b, c) for a, b, c in cells if op(a, b, top ^ c) == 0])
        assert op_to_rel(op).bits == want.bits


def test_op_to_rel_of_zero_is_full(alg2):
    from psiforge.ternary_operator import constant_operator

    rel = op_to_rel(constant_operator(alg2, 0))
    assert rel.bits == full_relation(alg2).bits


def test_contact_from_largest(alg2):
    pairs = contact_from_eca(largest_eca(alg2))
    for a in alg2.elements():
        for b in alg2.elements():
            assert ((a, b) in pairs) == bool(a & b)
    assert not any(a == 0 for a, _ in pairs)


def test_contact_from_topological(topo_rel):
    # the two regions overlap as point sets even though their lattice
    # meet is empty, so they are in contact
    pairs = contact_from_eca(topo_rel)
    assert (1, 2) in pairs and (2, 1) in pairs


def test_contact_refuses_non_eca(alg2):
    with pytest.raises(PreconditionError):
        contact_from_eca(full_relation(alg2))


def test_every_eca_below_largest(ecas_k2, alg2):
    big = largest_eca(alg2)
    for rel in ecas_k2:
        assert rel.is_subset_of(big)


def test_posets_dual_iso(alg1, alg2, ecas_k1, ecas_k2):
    assert posets_dual_iso_check(alg1, ecas_k1).passed
    assert posets_dual_iso_check(alg2, ecas_k2).passed


def test_largest_maps_to_smallest_relational(alg2, ecas_k2, rel_ops_k2):
    big_op = rel_to_op(largest_eca(alg2))
    for op in rel_ops_k2:
        assert big_op.pointwise_leq(op)
    # but not below the non-relational least operator's relational cousins:
    # the genuinely least pseudo-inference table sits below it too
    assert smallest_diamond(alg2).pointwise_leq(big_op)


def test_relation_json_round_trips(alg2, topo_rel):
    for rel in (largest_eca(alg2), topo_rel):
        assert relation_from_json(rel.to_json()).bits == rel.bits
        assert relation_from_json(rel.to_json(compact=True)).bits == rel.bits


def test_relation_from_triples_validation(alg2):
    with pytest.raises(ValueError):
        relation_from_triples(alg2, [(0, 0, 9)])


def test_enumeration_matches_restricted_brute_force(alg2, ecas_k2):
    """Oracle: seed the provably forced triples, brute force the rest."""
    forced_true = set()
    for a, b, c in itertools.product(alg2.elements(), repeat=3):
        if a & c == a or b & c == b:
            forced_true.add((a, b, c))
    forced_false = {
        (a, a, f)
        for a in alg2.elements()
        for f in alg2.elements()
        if a & f != a
    }
    free = [
        t
        for t in itertools.product(alg2.elements(), repeat=3)
        if t not in forced_true and t not in forced_false
    ]
    assert len(free) == 10
    models = []
    for picks in itertools.product([0, 1], repeat=len(free)):
        triples = forced_true | {t for t, p in zip(free, picks) if p}
        rel = relation_from_triples(alg2, triples)
        if check_eca(rel).passed:
            models.append(rel.bits)
    from psiforge.enumeration import canonical_relation_bits

    canon = sorted({canonical_relation_bits(alg2, b) for b in models})
    assert canon == [r.bits for r in ecas_k2]
    # artifact-derived golden counts, cross-checked here against the oracle
    assert len(models) == 2
    assert len(ecas_k2) == 2


def test_ecas_k1_fixture(ecas_k1, alg1):
    assert len(ecas_k1) == 1
    assert ecas_k1[0].bits == largest_eca(alg1).bits
