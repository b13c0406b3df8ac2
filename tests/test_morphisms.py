import random
import re
from itertools import product

import pytest

from psiforge import (
    PreconditionError,
    classify_eca_morphism,
    classify_frame_map,
    classify_psi_morphism,
    dual_frame,
    enumerate_ecas,
    enumerate_homs,
    example_3bamo,
    largest_eca,
    make_hom,
    morphism_duality_check,
    smallest_diamond,
)
from psiforge.duality_frames import PsiFrame
from psiforge.verify import bamo_operator_pool, psi_operator_pool


def test_make_hom_identity(alg2):
    h = make_hom(alg2, alg2, (0, 1))
    for a in alg2.elements():
        assert h(a) == a


def test_make_hom_duplicating(alg1, alg2):
    h = make_hom(alg1, alg2, (0, 0))
    assert h(0) == 0 and h(1) == 3


def test_unique_hom_from_two_element(alg1, alg2, alg3):
    for target in (alg1, alg2, alg3):
        homs = enumerate_homs(alg1, target)
        assert len(homs) == 1
        h = homs[0]
        assert h(0) == 0 and h(1) == target.top


def test_hom_counts(alg1, alg2):
    assert len(enumerate_homs(alg2, alg2)) == 4
    assert len(enumerate_homs(alg2, alg1)) == 2
    assert len(enumerate_homs(alg1, alg2)) == 1


def test_identity_classification(alg2, psi_ops_k2):
    ident = make_hom(alg2, alg2, (0, 1))
    for op in psi_ops_k2[:4]:
        mc = classify_psi_morphism(ident, op, op)
        assert mc.full


def test_pointwise_comparable_identity_carrier(alg2, psi_ops_k2):
    ident = make_hom(alg2, alg2, (0, 1))
    found = False
    for o1 in psi_ops_k2:
        for o2 in psi_ops_k2:
            if o1.table == o2.table or not o1.pointwise_leq(o2):
                continue
            found = True
            mc = classify_psi_morphism(ident, o1, o2)
            assert mc.semi and not mc.hemi
            back = classify_psi_morphism(ident, o2, o1)
            assert back.hemi and not back.semi
    assert found


def test_two_element_into_smallest(alg1, alg2):
    h = make_hom(alg1, alg2, (0, 0))
    mc = classify_psi_morphism(h, smallest_diamond(alg1), smallest_diamond(alg2))
    # meets are preserved by any homomorphism, so this one is full
    assert mc.full


def test_classify_mismatched_algebras(alg1, alg2):
    h = make_hom(alg1, alg2, (0, 0))
    with pytest.raises(ValueError):
        classify_psi_morphism(h, smallest_diamond(alg2), smallest_diamond(alg2))


def test_frame_map_identity(alg2):
    fr = dual_frame(smallest_diamond(alg2))
    rep = classify_frame_map((0, 1), fr, fr)
    assert rep.passed


def test_frame_map_into_full_relation():
    ne = range(1, 4)
    full = PsiFrame(
        2,
        frozenset(
            (x, y1, y2, y3) for x in range(2) for y1 in ne for y2 in ne for y3 in ne
        ),
    )
    sparse = PsiFrame(2, frozenset({(0, 3, 3, 3)}))
    rep = classify_frame_map((1, 0), sparse, full)
    assert rep.result("Sp2").passed


def _literal_frame_map(f, frame1, frame2):
    """Sp2 and Sp3's first violations (None when they hold), scanning the
    sorted entry sets."""

    def image(y):
        return sum({1 << f[i] for i in range(frame1.point_count) if y >> i & 1})

    sp2 = next((
        (x, y1, y2, y3) for x, y1, y2, y3 in sorted(frame1.entries)
        if (f[x], image(y1), image(y2), image(y3)) not in frame2.entries
    ), None)
    sp3 = None
    for x in range(frame1.point_count):
        rx = sorted((y1, y2, y3) for p, y1, y2, y3 in frame1.entries if p == x)
        for x2, z1, z2, z3 in sorted(frame2.entries):
            if x2 == f[x] and not any(
                image(y1) & ~z1 == 0 and image(y2) & ~z2 == 0 and image(y3) & ~z3 == 0 for y1, y2, y3 in rx
            ):
                sp3 = (x, z1, z2, z3)
                break
        if sp3:
            break
    return sp2, sp3


def test_frame_map_conditions_match_entry_scan():
    """Sp2 and Sp3, witnesses included, against the entry-set scan for
    every point map between the 1- and 2-point pool dual frames and
    between random frames of 1-3 points."""
    frames = [fr for fr in map(dual_frame, bamo_operator_pool(3)) if fr.point_count <= 2]
    rng = random.Random(12)
    extra = []
    for _ in range(12):
        n = rng.randrange(1, 4)
        ne = range(1, 1 << n)
        extra.append(PsiFrame(n, [(rng.randrange(n), rng.choice(ne), rng.choice(ne), rng.choice(ne)) for _ in range(rng.randrange(25))]))
    pairs = [(a, b) for a in frames for b in frames] + [(a, b) for a in extra for b in extra]
    seen = set()
    for frame1, frame2 in pairs:
        for f in product(range(frame2.point_count), repeat=frame1.point_count):
            rep = classify_frame_map(f, frame1, frame2)
            got = tuple(None if r.passed else r.witness for r in (rep.result("Sp2"), rep.result("Sp3")))
            assert got == _literal_frame_map(f, frame1, frame2)
            seen.add(tuple(w is None for w in got))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_semi_corresponds_to_sp3_not_sp2(alg2, psi_ops_k2):
    """The crosswise pairing: an inclusion-style semi morphism dualizes to
    the existential lifting condition, not the forward one."""
    ident = make_hom(alg2, alg2, (0, 1))
    pairs = [
        (o1, o2)
        for o1 in psi_ops_k2
        for o2 in psi_ops_k2
        if o1.table != o2.table and o1.pointwise_leq(o2)
    ]
    assert pairs
    for o1, o2 in pairs[:3]:
        mc = classify_psi_morphism(ident, o1, o2)
        assert mc.semi and not mc.hemi
        fm = classify_frame_map(
            ident.atom_map, dual_frame(o2), dual_frame(o1)
        )
        assert fm.result("Sp3").passed
        assert not fm.result("Sp2").passed


def test_morphism_duality_all_homs_k2(alg2, psi_ops_k2):
    ops = psi_ops_k2[:4]
    for h in enumerate_homs(alg2, alg2):
        for o1 in ops:
            for o2 in ops:
                assert morphism_duality_check(h, o1, o2).passed


def test_morphism_duality_cross_size(alg1, alg2, rel_ops_k2):
    o1 = smallest_diamond(alg1)
    for h in enumerate_homs(alg1, alg2):
        for o2 in rel_ops_k2:
            assert morphism_duality_check(h, o1, o2).passed
    for h in enumerate_homs(alg2, alg1):
        for o2 in rel_ops_k2:
            assert morphism_duality_check(h, o2, o1).passed


def test_morphism_duality_refuses_non_psi(alg2):
    from psiforge import check_psi

    h = make_hom(alg2, alg2, (0, 1))
    bad_op, good = example_3bamo(), smallest_diamond(alg2)
    bad = check_psi(bad_op).failures()[0]
    for source, target, name in ((bad_op, good, "source"), (good, bad_op, "target")):
        message = f"morphism_duality_check ({name}) requires a pseudo-inference operator; {bad.axiom} fails at {bad.witness}"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            morphism_duality_check(h, source, target)


def test_eca_morphism_identity_similarity(alg2, ecas_k2):
    ident = make_hom(alg2, alg2, (0, 1))
    for rel in ecas_k2:
        cls, rep = classify_eca_morphism(ident, rel, rel)
        assert cls.similarity
        assert rep.passed


def test_hom_into_largest_is_preserving(alg1, alg2, ecas_k1, ecas_k2):
    big = largest_eca(alg2)
    for rel in ecas_k1:
        for h in enumerate_homs(alg1, alg2):
            cls, rep = classify_eca_morphism(h, rel, big)
            assert cls.preserving
            assert rep.passed
    for rel in ecas_k2:
        for h in enumerate_homs(alg2, alg2):
            cls, rep = classify_eca_morphism(h, rel, big)
            assert cls.preserving
            assert rep.passed


def test_eca_morphism_equivalences_all_homs(alg2, ecas_k2):
    for h in enumerate_homs(alg2, alg2):
        for r1 in ecas_k2:
            for r2 in ecas_k2:
                _, rep = classify_eca_morphism(h, r1, r2)
                assert rep.passed


def test_eca_morphism_refuses_non_eca(alg2, ecas_k2):
    from psiforge import check_eca, full_relation

    ident = make_hom(alg2, alg2, (0, 1))
    full = full_relation(alg2)
    bad = check_eca(full).failures()[0]
    for source, target, name in ((full, ecas_k2[0], "source"), (ecas_k2[0], full, "target")):
        message = f"classify_eca_morphism ({name}) requires an EC relation; {bad.axiom} fails at {bad.witness}"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            classify_eca_morphism(ident, source, target)


def test_composition_closure(alg2, psi_ops_k2):
    homs = enumerate_homs(alg2, alg2)
    ops = psi_ops_k2[:3]
    for g in homs:
        for h in homs:
            comp = h.compose(g)
            for o1 in ops:
                for o2 in ops:
                    for o3 in ops:
                        m1 = classify_psi_morphism(g, o1, o2)
                        m2 = classify_psi_morphism(h, o2, o3)
                        mc = classify_psi_morphism(comp, o1, o3)
                        if m1.semi and m2.semi:
                            assert mc.semi
                        if m1.hemi and m2.hemi:
                            assert mc.hemi
                        if m1.full and m2.full:
                            assert mc.full


def _reference_classes(h, src, tgt, leq):
    """The first (a, b, c) in mask order where leq(source side, target
    side) fails, and the first where leq(target side, source side) fails."""
    first = [None, None]
    for a, b, c in product(h.source.elements(), repeat=3):
        x, y = src(a, b, c), tgt(h(a), h(b), h(c))
        for i, ok in enumerate((leq(x, y), leq(y, x))):
            if first[i] is None and not ok:
                first[i] = (a, b, c)
    return tuple(first)


def test_classifiers_match_a_definitional_loop(alg1, alg2):
    """Both classifiers, witnesses included, over every hom between the
    one- and two-atom algebras and the k <= 2 operator pools and ECAs."""
    ops = psi_operator_pool(2) + bamo_operator_pool(2)
    for source, target in product((alg1, alg2), repeat=2):
        for h in enumerate_homs(source, target):
            for o1 in (op for op in ops if op.alg == source):
                for o2 in (op for op in ops if op.alg == target):
                    semi_w, hemi_w = _reference_classes(h, lambda *t: h(o1(*t)), o2, target.leq)
                    mc = classify_psi_morphism(h, o1, o2)
                    assert (mc.semi_witness, mc.hemi_witness) == (semi_w, hemi_w), (h, o1.table, o2.table)
                    assert (mc.semi, mc.hemi) == (semi_w is None, hemi_w is None)
            for r1 in enumerate_ecas(source):
                for r2 in enumerate_ecas(target):
                    # reflecting fails where the target holds and the source not
                    pres_w, refl_w = _reference_classes(h, r1.holds, r2.holds, lambda x, y: not x or y)
                    cls, _ = classify_eca_morphism(h, r1, r2)
                    assert (cls.reflecting_witness, cls.preserving_witness) == (refl_w, pres_w), (h, r1.bits, r2.bits)
                    assert (cls.reflecting, cls.preserving) == (refl_w is None, pres_w is None)


def test_contravariance(alg1, alg2):
    for g in enumerate_homs(alg1, alg2):
        for h in enumerate_homs(alg2, alg2):
            comp = h.compose(g)
            assert comp.atom_map == tuple(
                g.atom_map[i] for i in h.atom_map
            )


def test_bijective_full_inverts(alg2, psi_ops_k2):
    swap = make_hom(alg2, alg2, (1, 0))
    assert swap.is_bijective
    inv = swap.inverse()
    for a in alg2.elements():
        assert inv(swap(a)) == a
    non_bij = make_hom(alg2, alg2, (0, 0))
    assert not non_bij.is_bijective
    with pytest.raises(ValueError):
        non_bij.inverse()
