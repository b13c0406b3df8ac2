import base64
import random

import pytest

from psiforge import (
    PreconditionError,
    PsiFrame,
    SizeCapError,
    box_op,
    box_r,
    check_psi,
    check_psi_frame,
    check_psi_space,
    complex_algebra,
    diamond_r,
    dual_frame,
    example_3bamo,
    is_relational,
    is_total,
    l_set,
    largest_eca,
    make_algebra,
    rel_to_op,
    smallest_diamond,
)
from psiforge.duality_frames import frame_from_json, pif2_strong_form_separation
from psiforge.enumeration import sample_3bamos
from psiforge.ternary_operator import operator_from_function


def full_frame(n):
    ne = range(1, (1 << n))
    entries = {
        (x, y1, y2, y3)
        for x in range(n)
        for y1 in ne
        for y2 in ne
        for y3 in ne
    }
    return PsiFrame(n, frozenset(entries))


def empty_frame(n):
    return PsiFrame(n, frozenset())


def product_sweep_dual_frame(op):
    """Oracle: the unreduced filter-product membership test."""
    alg = op.alg
    n = alg.atom_count
    entries = set()
    ne = range(1, 1 << n)
    sups = {y: [a for a in alg.elements() if a & y == y] for y in ne}
    for y1 in ne:
        for y2 in ne:
            for y3 in ne:
                for i in range(n):
                    atom = 1 << i
                    if all(
                        alg.leq(atom, op(a1, a2, a3))
                        for a1 in sups[y1]
                        for a2 in sups[y2]
                        for a3 in sups[y3]
                    ):
                        entries.add((i, y1, y2, y3))
    return PsiFrame(n, frozenset(entries))


def test_diamond_box_match_l_set_definitions(alg2, rel_ops_k2):
    """Oracle: evaluate both operators literally through l_set membership
    (dia: R(x) escapes the L-set of the complemented triple; box: R(x)
    is contained in the L-set of the triple)."""
    pool = [smallest_diamond(alg2), example_3bamo()] + list(rel_ops_k2)
    for op in pool:
        fr = dual_frame(op, monotone=True)
        full = fr.full
        triples = fr.closed_triples()
        r_of = {x: fr.r_of(x) for x in range(fr.point_count)}
        for u1 in range(full + 1):
            for u2 in range(full + 1):
                for u3 in range(full + 1):
                    u = (u1, u2, u3)
                    comp_l = l_set(fr, (full ^ u1, full ^ u2, full ^ u3))
                    escape = set(triples) - comp_l
                    dia_oracle = 0
                    box_oracle = 0
                    lu = l_set(fr, u)
                    for x in range(fr.point_count):
                        if r_of[x] & escape:
                            dia_oracle |= 1 << x
                        if r_of[x] <= lu:
                            box_oracle |= 1 << x
                    assert diamond_r(fr, u) == dia_oracle
                    assert box_r(fr, u) == box_oracle


def test_l_set_extremes():
    fr = empty_frame(2)
    assert l_set(fr, (0, 0, 0)) == set()
    assert l_set(fr, (3, 3, 3)) == set(fr.closed_triples())
    assert len(fr.closed_triples()) == 27


def test_l_set_union_law():
    fr = empty_frame(2)
    for u1 in range(4):
        for v1 in range(4):
            u = (u1, 1, 2)
            v = (v1, 2, 1)
            union = tuple(a | b for a, b in zip(u, v))
            assert l_set(fr, union) == l_set(fr, u) | l_set(fr, v)
            inter = tuple(a & b for a, b in zip(u, v))
            assert l_set(fr, inter) <= l_set(fr, u) & l_set(fr, v)


def test_empty_frame_operators_and_totality():
    fr = empty_frame(2)
    for u in ((0, 0, 0), (1, 2, 3), (3, 3, 3)):
        assert diamond_r(fr, u) == 0
        assert box_r(fr, u) == fr.full
    assert is_total(fr) == (True, None)
    assert check_psi_frame(fr).passed
    rep = check_psi_space(fr)
    assert rep.result("PIF1").passed
    assert rep.result("PIF2").passed
    assert rep.result("PIF4").passed
    r3 = rep.result("PIF3")
    assert not r3.passed and r3.witness == (1, 1)


def test_full_frame_is_descriptive():
    fr = full_frame(2)
    assert check_psi_frame(fr).passed


def test_single_entry_frame_fails_df():
    # one point reaching one non-upward-closed triple without singleton
    # witnesses: the sweep decides which condition breaks (both do)
    fr = PsiFrame(2, frozenset({(0, 3, 1, 1)}))
    rep = check_psi_frame(fr)
    assert not rep.passed
    assert not rep.result("DF2").passed
    assert not rep.result("DF3").passed
    assert rep.result("DF3").witness == (0, 3, 1, 1)


def _literal_df2(frame):
    """DF2's first violation, by its definition: Y outside R(x) lies in
    every L_U that contains R(x); points ascending, then triples ascending."""
    size = 1 << frame.point_count
    l_sets = [
        l_set(frame, (u1, u2, u3)) for u1 in range(size) for u2 in range(size) for u3 in range(size)
    ]
    for x in range(frame.point_count):
        rx = frame.r_of(x)
        family = [lu for lu in l_sets if rx <= lu]
        for y in frame.closed_triples():
            if y not in rx and all(y in lu for lu in family):
                return (x, *y)
    return None


def test_df2_matches_l_set_definition():
    rng = random.Random(3)
    seen = set()
    for n in (1, 1, 2, 2, 2, 2, 3, 3) * 3:
        ne = range(1, 1 << n)
        triples = [(y1, y2, y3) for y1 in ne for y2 in ne for y3 in ne]
        entries = set()
        for x in range(n):  # R(x) the up-closure of a few random triples
            gens = rng.choices(triples, k=rng.randrange(3))
            entries |= {
                (x, *y) for y in triples for z in gens if all(zi & yi == zi for zi, yi in zip(z, y))
            }
        if rng.random() < 0.7:  # then toggle one entry
            entries ^= {(rng.randrange(n), *rng.choice(triples))}
        frame = PsiFrame(n, frozenset(entries))
        want = _literal_df2(frame)
        got = check_psi_frame(frame).result("DF2")
        assert (got.passed, got.witness) == (want is None, want), sorted(entries)
        seen.add(want is None)
    assert seen == {True, False}


def test_dual_frame_of_smallest_k2(alg2):
    op = smallest_diamond(alg2)
    fr = dual_frame(op)
    for x, y1, y2, y3 in fr.entries:
        assert (1 << x) & y1 & y2 & y3
    for y1 in fr.nonempty_masks():
        for y2 in fr.nonempty_masks():
            for y3 in fr.nonempty_masks():
                for x in range(2):
                    expected = bool((1 << x) & y1 & y2 & y3)
                    assert ((x, y1, y2, y3) in fr.entries) == expected


def test_dual_frame_monotone_reduction_matches_product_sweep(alg2, rel_ops_k2):
    ops = [smallest_diamond(alg2), example_3bamo()] + list(rel_ops_k2)
    for op in ops:
        assert dual_frame(op, monotone=True).entries == product_sweep_dual_frame(op).entries


def test_dual_frame_non_monotone_falls_back(alg1):
    # a table violating the distribution laws: the constructor must use
    # the product sweep, here checked against the oracle
    op = operator_from_function(alg1, lambda a, b, c: 1 if (a, b, c) == (1, 1, 0) else 0)
    fr = dual_frame(op)
    assert fr.entries == product_sweep_dual_frame(op).entries


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dual_frames_are_descriptive(k):
    alg = make_algebra(k)
    for op in (smallest_diamond(alg), rel_to_op(largest_eca(alg))):
        assert check_psi_frame(dual_frame(op)).passed


def test_stone_commutation_on_pool(alg2, rel_ops_k2):
    pool = [smallest_diamond(alg2), example_3bamo()] + list(rel_ops_k2)
    pool += sample_3bamos(alg2, count=5, seed=0xEC0)
    for op in pool:
        alg = op.alg
        fr = dual_frame(op, monotone=True)
        for a in alg.elements():
            for b in alg.elements():
                for c in alg.elements():
                    u = (a, b, c)
                    assert diamond_r(fr, u) == op(a, b, c)
                    assert box_r(fr, u) == box_op(op, a, b, c)
                    comp = (alg.neg(a), alg.neg(b), alg.neg(c))
                    assert box_r(fr, u) == alg.neg(diamond_r(fr, comp))


def test_pi_pif_equivalence_componentwise(alg2, rel_ops_k2):
    pool = [smallest_diamond(alg2), example_3bamo()] + list(rel_ops_k2)
    pool += sample_3bamos(alg2, count=8, seed=3)
    for op in pool:
        psi_rep = check_psi(op)
        space_rep = check_psi_space(dual_frame(op, monotone=True))
        for i in (1, 2, 3, 4):
            assert (
                psi_rep.result(f"PI{i}").passed
                == space_rep.result(f"PIF{i}").passed
            ), f"PI{i} mismatch"


def test_example_3bamo_dualizes_to_pif1_failure():
    rep = check_psi_space(dual_frame(example_3bamo()))
    assert not rep.result("PIF1").passed
    assert rep.result("PIF2").passed
    assert rep.result("PIF3").passed
    assert rep.result("PIF4").passed


def test_check_psi_space_refuses_bad_frame():
    fr = PsiFrame(2, frozenset({(0, 3, 1, 1)}))
    with pytest.raises(PreconditionError):
        check_psi_space(fr)


def test_pif1_size_cap(monkeypatch):
    import psiforge.duality_frames as df

    def frame_sweep(frame):
        raise AssertionError("DF2 swept a frame above the PIF1 cap")

    # the cap is enforced before the descriptive conditions are swept
    monkeypatch.setattr(df, "check_psi_frame", frame_sweep)
    with pytest.raises(SizeCapError):
        check_psi_space(empty_frame(5))


def test_complex_algebra_one_point_frames():
    ops = []
    for fr in (empty_frame(1), full_frame(1)):
        assert check_psi_frame(fr).passed
        _, op = complex_algebra(fr)
        ops.append(op.table)
    assert ops[0] == (0,) * 8
    assert ops[1] == (0, 0, 0, 0, 0, 0, 0, 1)


def test_complex_algebra_refuses_non_descriptive():
    with pytest.raises(PreconditionError):
        complex_algebra(PsiFrame(2, frozenset({(0, 3, 1, 1)})))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_double_dual_identity(k):
    alg = make_algebra(k)
    ops = [smallest_diamond(alg), rel_to_op(largest_eca(alg))]
    if k == 2:
        ops.append(example_3bamo())
    for op in ops:
        _, back = complex_algebra(dual_frame(op))
        assert back.table == op.table


def test_totality(alg2, ecas_k2, rel_ops_k2):
    for op in rel_ops_k2:
        assert is_total(dual_frame(op))[0]
    ok, witness = is_total(dual_frame(smallest_diamond(alg2)))
    assert not ok and witness == (1, 1, 1)


def test_totality_iff_relational(alg2, rel_ops_k2):
    pool = [smallest_diamond(alg2), example_3bamo()] + list(rel_ops_k2)
    pool += sample_3bamos(alg2, count=5, seed=11)
    for op in pool:
        assert is_total(dual_frame(op, monotone=True))[0] == is_relational(op)[0]


def test_pif2_strong_form_search(alg2, rel_ops_k2):
    frames = [dual_frame(op) for op in [smallest_diamond(alg2)] + list(rel_ops_k2)]
    found, note = pif2_strong_form_separation(frames)
    assert found is None
    assert "no separation" in note


def test_frame_json_round_trips(alg2):
    fr = dual_frame(smallest_diamond(alg2))
    assert frame_from_json(fr.to_json()).entries == fr.entries
    assert frame_from_json(fr.to_json(compact=True)).entries == fr.entries


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_compact_frame_round_trip(k):
    """The compact form is one little-endian bit per (x, Y1, Y2, Y3), on
    dual frames and on a frame without their Y1/Y2 symmetry."""
    alg = make_algebra(k)
    n = alg.size
    rng = random.Random(k)
    masks = range(1, n)
    scattered = frozenset(
        (rng.randrange(k), rng.choice(masks), rng.choice(masks), rng.choice(masks))
        for _ in range(12)
    )
    for fr in (
        dual_frame(smallest_diamond(alg)),
        dual_frame(rel_to_op(largest_eca(alg))),
        PsiFrame(k, scattered),
    ):
        data = fr.to_json(compact=True)
        want = sum(1 << ((x * n + y1) * n + y2) * n + y3 for x, y1, y2, y3 in fr.entries)
        raw = base64.b64decode(data["bits"])
        assert len(raw) == (k * n ** 3 + 7) // 8
        assert int.from_bytes(raw, "little") == want
        assert frame_from_json(data).entries == fr.entries


def test_compact_frame_refuses_trailing_bits():
    for k in (1, 2, 3):
        n_bits = k * 8 ** k
        raw = bytearray((n_bits + 7) // 8 + 1)
        raw[n_bits >> 3] |= 1 << (n_bits & 7)
        data = {"points": k, "bits": base64.b64encode(raw).decode("ascii")}
        with pytest.raises(ValueError, match="out of range"):
            frame_from_json(data)


def test_frame_validation():
    with pytest.raises(ValueError):
        PsiFrame(2, frozenset({(2, 1, 1, 1)}))
    with pytest.raises(ValueError):
        PsiFrame(2, frozenset({(0, 0, 1, 1)}))
