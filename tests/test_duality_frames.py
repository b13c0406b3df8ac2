import base64
import random

import pytest

from psiforge import (
    PreconditionError,
    PsiFrame,
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
from psiforge import duality_frames
from psiforge.boolean_core import _table_of_rows
from psiforge.duality_frames import box_table, diamond_table, frame_from_json, pif2_strong_form_separation
from psiforge.enumeration import sample_3bamos
from psiforge.ternary_operator import TernaryOperator, check_3bamo, operator_from_function
from psiforge.verify import bamo_operator_pool


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
        fr = dual_frame(op)
        full = fr.full
        triples = fr.closed_triples()
        r_of = {x: {(y1, y2, y3) for (p, y1, y2, y3) in fr.entries if p == x} for x in range(fr.point_count)}
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
        rx = {(y1, y2, y3) for (p, y1, y2, y3) in frame.entries if p == x}
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


def _literal_df3(frame):
    """DF3's first violation, by its definition: a member (x, Y) of R with
    no member (x, {i}, {j}, Y3) for points i in Y1 and j in Y2."""
    for x, y1, y2, y3 in sorted(frame.entries):
        singles = [(x, 1 << i, 1 << j, y3) for i in range(frame.point_count) for j in range(frame.point_count)]
        if not any(s in frame.entries for s in singles if s[1] & y1 and s[2] & y2):
            return (x, y1, y2, y3)
    return None


def test_df3_matches_singleton_definition():
    rng = random.Random(4)
    seen = set()
    for n in (1, 1, 2, 2, 2, 2, 3, 3) * 3:
        ne = range(1, 1 << n)
        singles = [1 << i for i in range(n)]
        triples = [(y1, y2, y3) for y1 in ne for y2 in ne for y3 in ne]
        entries = set()
        for x in range(n):  # R(x) the up-closure of a few singleton-pair triples
            gens = [(rng.choice(singles), rng.choice(singles), rng.choice(ne)) for _ in range(rng.randrange(3))]
            entries |= {
                (x, *y) for y in triples for z in gens if z[0] & y[0] and z[1] & y[1] and z[2] == y[2]
            }
        if rng.random() < 0.7:  # then toggle one entry
            entries ^= {(rng.randrange(n), *rng.choice(triples))}
        frame = PsiFrame(n, frozenset(entries))
        want = _literal_df3(frame)
        got = check_psi_frame(frame).result("DF3")
        assert (got.passed, got.witness) == (want is None, want), sorted(entries)
        seen.add(want is None)
    assert seen == {True, False}


def _random_tables(alg, rng, count):
    """Tables of every density, most failing MO1-MO4."""
    size = alg.size
    for _ in range(count):
        density = rng.random()
        yield TernaryOperator(alg, tuple(rng.randrange(size) if rng.random() < density else 0 for _ in range(size ** 3)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dual_frame_matches_product_sweep(k):
    alg = make_algebra(k)
    rng = random.Random(k)
    ops = [smallest_diamond(alg), rel_to_op(largest_eca(alg))] + sample_3bamos(alg, count=2, seed=k)
    for op in ops[:2]:  # near misses: one entry of a monotone table moved
        for _ in range(3):
            table = list(op.table)
            table[rng.randrange(len(table))] ^= rng.randrange(1, alg.size)
            ops.append(TernaryOperator(alg, tuple(table)))
    ops += list(_random_tables(alg, rng, 12 if k < 3 else 3))
    kinds = set()
    for op in ops:
        fr = dual_frame(op)
        assert fr.entries == product_sweep_dual_frame(op).entries
        kinds.add((check_3bamo(op).passed, bool(fr.entries)))
    assert {(True, True), (False, True), (False, False)} <= kinds


def _random_frames(rng, count):
    for _ in range(count):
        n = rng.randrange(1, 4)
        ne = range(1, 1 << n)
        yield PsiFrame(n, frozenset(
            (rng.randrange(n), rng.choice(ne), rng.choice(ne), rng.choice(ne)) for _ in range(rng.randrange(30))
        ))


def test_all_triple_tables_match_per_triple_definitions():
    """diamond_table, box_table and complex_algebra's table against the
    per-triple diamond_r and box_r, on every pool dual frame and on
    random frames that need not be descriptive."""
    frames = [dual_frame(op) for op in bamo_operator_pool(3)]
    frames += list(_random_frames(random.Random(7), 40))
    for fr in frames:
        size = 1 << fr.point_count
        triples = [(a, b, c) for a in range(size) for b in range(size) for c in range(size)]
        dia = tuple(diamond_r(fr, u) for u in triples)
        assert diamond_table(fr) == dia
        assert box_table(fr) == tuple(box_r(fr, u) for u in triples)
        if check_psi_frame(fr).passed:
            assert complex_algebra(fr)[1].table == dia


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
        assert dual_frame(op).entries == product_sweep_dual_frame(op).entries


def test_dual_frame_non_monotone_falls_back(alg1):
    # a table violating the distribution laws: the superset-AND transform
    # still gives the product sweep's frame
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
        fr = dual_frame(op)
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
        space_rep = check_psi_space(dual_frame(op))
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


@pytest.mark.parametrize("k", [1, 2, 3, 5])
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
        assert is_total(dual_frame(op))[0] == is_relational(op)[0]


def test_pif2_strong_form_search(alg2, rel_ops_k2):
    frames = [dual_frame(op) for op in [smallest_diamond(alg2)] + list(rel_ops_k2)]
    found, note = pif2_strong_form_separation(frames)
    assert found is None
    assert "no separation" in note


def _literal_rinv(frame):
    """Triple -> mask of points reaching it, from the entry set."""
    out = {}
    for x, y1, y2, y3 in frame.entries:
        out[(y1, y2, y3)] = out.get((y1, y2, y3), 0) | 1 << x
    return out


def _literal_psi_space(frame):
    """PIF1-PIF4 as (axiom, first violation or None), swept over a
    triple -> points dict; a triple with an empty coordinate reaches none."""
    rinv = _literal_rinv(frame)
    full, ne = frame.full, frame.nonempty_masks()

    def at(y1, y2, y3):
        return 0 if 0 in (y1, y2, y3) else rinv.get((y1, y2, y3), 0)

    def pif1():
        for y1, y2, y3 in sorted(rinv):
            ry = rinv[(y1, y2, y3)]
            for z in ne:
                t1 = at(y1, y2, z)
                if ry & ~t1 == 0:
                    continue
                for w in ne:
                    if ry & ~(t1 | at(y1, y2, w) | at(full ^ z, full ^ w, y3)):
                        yield (y1, y2, y3, z, w)

    def pif2():
        return ((y1, y2, y3) for y1, y2, y3 in sorted(rinv) if y1 & y3 == 0)

    def pif3():
        return ((y1, y2) for y1 in ne for y2 in ne if (y1 & y2) & ~at(y1, y1, y2))

    def pif4():
        return ((y1, y2, y3) for y1, y2, y3 in sorted(rinv) if rinv[(y1, y2, y3)] & ~at(y2, y1, y3))

    return [(f"PIF{i}", next(g, None)) for i, g in enumerate((pif1(), pif2(), pif3(), pif4()), 1)]


def _literal_is_total(frame):
    rinv = _literal_rinv(frame)
    return next(((False, key) for key in sorted(rinv) if rinv[key] not in (0, frame.full)), (True, None))


def _literal_strong_form_triple(frame):
    """Some reached (Y1, Y2, complement of Y1), the complement nonempty."""
    rinv, full = _literal_rinv(frame), frame.full
    return any(rinv.get((y1, y2, full ^ y1), 0) for y1 in range(1, full) for y2 in frame.nonempty_masks())


def _descriptive_frames(rng, count):
    """Up-closures of a few singleton-pair triples per point: DF2 and DF3
    hold by construction."""
    for _ in range(count):
        n = rng.randrange(1, 4)
        ne = range(1, 1 << n)
        singles = [1 << i for i in range(n)]
        entries = set()
        for x in range(n):
            for _ in range(rng.randrange(4)):
                z = (rng.choice(singles), rng.choice(singles), rng.choice(ne))
                entries |= {
                    (x, y1, y2, y3) for y1 in ne for y2 in ne for y3 in ne
                    if z[0] & ~y1 == 0 and z[1] & ~y2 == 0 and z[2] & ~y3 == 0
                }
        yield PsiFrame(n, frozenset(entries))


def _four_point_frames():
    """Dual frames of 4-atom operators: seeded monotone samples, the
    smallest diamond, the largest relation's operator, and the smallest
    diamond with its entry (1, 1, c) short of the lowest atom of c."""
    alg = make_algebra(4)
    ops = sample_3bamos(alg, count=4, seed=2) + [smallest_diamond(alg), rel_to_op(largest_eca(alg))]
    for c in (3, 6, 12, 15):
        table = list(smallest_diamond(alg).table)
        table[(alg.top * alg.size + alg.top) * alg.size + c] ^= c & -c
        ops.append(TernaryOperator(alg, tuple(table)))
    return [dual_frame(op) for op in ops]


def test_space_checks_match_literal_references():
    """check_psi_space, is_total and the strong-form scan against the
    triple -> points dict sweeps, on every pool dual frame, on random
    frames (descriptive ones for the space conditions) and on 4-point
    dual frames.  PIF1 is decided by the same row test as PI1, so the
    literal sweep is its independent reference."""
    frames = [dual_frame(op) for op in bamo_operator_pool(3)]
    frames += list(_random_frames(random.Random(8), 40))
    frames += list(_descriptive_frames(random.Random(9), 60))
    frames += _four_point_frames()
    failing, totals, pif1_at_four = set(), set(), set()
    for fr in frames:
        assert is_total(fr) == _literal_is_total(fr)
        totals.add(is_total(fr)[0])
        if not check_psi_frame(fr).passed:
            continue
        got = [(r.axiom, r.witness if not r.passed else None) for r in check_psi_space(fr).results]
        want = _literal_psi_space(fr)
        assert got == want
        failing |= {axiom for axiom, w in want if w is not None}
        if fr.point_count == 4:
            pif1_at_four.add(want[0][1] is None)
        found, _ = pif2_strong_form_separation([fr])
        assert (found is not None) == (want[1][1] is None and _literal_strong_form_triple(fr))
    assert failing == {"PIF1", "PIF2", "PIF3", "PIF4"}
    assert totals == {True, False}
    assert pif1_at_four == {True, False}


def test_reach_is_built_once_per_frame(monkeypatch):
    """PsiFrame.reach is the table of the frame's rows, kept on the frame:
    a second read returns the same object, and the space checks, totality
    and the strong-form scan on one frame build it once between them."""
    for fr in list(_random_frames(random.Random(12), 20)) + _four_point_frames():
        reach = fr.reach
        assert reach == _table_of_rows(fr.point_count, fr.rows)
        assert fr.reach is reach
    built = []
    monkeypatch.setattr(duality_frames, "_table_of_rows", lambda k, rows: built.append(k) or _table_of_rows(k, rows))
    frame = dual_frame(smallest_diamond(make_algebra(3)))
    check_psi_space(frame)
    is_total(frame)
    pif2_strong_form_separation([frame])
    assert built == [3]


def _violates_pif1(frame, witness):
    """Whether (Y1, Y2, Y3, Z, W) violates PIF1 by its definition: some
    point reaches Y but none of (Y1, Y2, Z), (Y1, Y2, W) and
    (not Z, not W, Y3)."""
    y1, y2, y3, z, w = witness
    rinv, full = _literal_rinv(frame), frame.full
    cover = rinv.get((y1, y2, z), 0) | rinv.get((y1, y2, w), 0) | rinv.get((full ^ z, full ^ w, y3), 0)
    return bool(rinv.get((y1, y2, y3), 0) & ~cover)


def test_space_checks_above_four_points():
    """PIF1 is decided at every frame size: the dual frames of the 5- and
    6-atom smallest diamonds pass, and a failing 5-point frame's witness
    is a violation."""
    for k in (5, 6):
        rep = check_psi_space(dual_frame(smallest_diamond(make_algebra(k))))
        assert rep.passed, rep
    frame = dual_frame(sample_3bamos(make_algebra(5), count=1, seed=1)[0])
    pif1 = check_psi_space(frame).result("PIF1")
    assert not pif1.passed
    assert _violates_pif1(frame, pif1.witness)


def test_frame_json_round_trips(alg2):
    fr = dual_frame(smallest_diamond(alg2))
    assert frame_from_json(fr.to_json()).entries == fr.entries
    assert frame_from_json(fr.to_json(compact=True)).entries == fr.entries


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_compact_frame_round_trip(k):
    """The compact form is one little-endian bit per (x, Y1, Y2, Y3), on
    dual frames and on a frame without their Y1/Y2 symmetry (at 5 and 6
    points on the smallest diamond's dual frame only)."""
    alg = make_algebra(k)
    n = alg.size
    rng = random.Random(k)
    masks = range(1, n)
    scattered = frozenset(
        (rng.randrange(k), rng.choice(masks), rng.choice(masks), rng.choice(masks))
        for _ in range(12)
    )
    frames = [dual_frame(smallest_diamond(alg))]
    if k <= 4:
        frames += [dual_frame(rel_to_op(largest_eca(alg))), PsiFrame(k, scattered)]
    for fr in frames:
        data = fr.to_json(compact=True)
        want = bytearray((k * n ** 3 + 7) // 8)
        for x, y1, y2, y3 in fr.entries:
            i = ((x * n + y1) * n + y2) * n + y3
            want[i >> 3] |= 1 << (i & 7)
        assert base64.b64decode(data["bits"]) == want
        assert frame_from_json(data).entries == fr.entries


def test_compact_frame_round_trip_at_six_points():
    fr = dual_frame(rel_to_op(largest_eca(make_algebra(6))))
    back = frame_from_json(fr.to_json(compact=True))
    assert back.rows == fr.rows
    assert check_psi_frame(back).passed


def test_compact_frame_refuses_empty_coordinates():
    """A bit at a triple of the last point with one empty coordinate, the
    others full."""
    for k in (1, 2, 3):
        n, full = 1 << k, (1 << k) - 1
        for y1, y2, y3 in ((0, full, full), (full, 0, full), (full, full, 0)):
            i = (((k - 1) * n + y1) * n + y2) * n + y3
            raw = bytearray(k * n ** 3 // 8)
            raw[i >> 3] |= 1 << (i & 7)
            data = {"points": k, "bits": base64.b64encode(raw).decode("ascii")}
            with pytest.raises(ValueError, match="nonempty"):
                frame_from_json(data)


def test_compact_frame_refuses_trailing_bits():
    for k in (1, 2, 3):
        n_bits = k * 8 ** k
        raw = bytearray((n_bits + 7) // 8 + 1)
        raw[n_bits >> 3] |= 1 << (n_bits & 7)
        data = {"points": k, "bits": base64.b64encode(raw).decode("ascii")}
        with pytest.raises(ValueError, match="out of range"):
            frame_from_json(data)



def test_list_frame_refuses_a_bad_point_in_a_repeated_list():
    """A point list that recurs across entries is read in each: a later
    copy holding an out-of-range point, a boolean or a float is refused
    with the message it gets alone."""
    both = [0, 1]
    good = {"points": 2, "R": [[0, both, both, both], [1, both, both, both]]}
    assert frame_from_json(good).entries == {(0, 3, 3, 3), (1, 3, 3, 3)}
    for bad, message in (
        ([0, 2], "point 2 out of range"),
        ([0, True], "point must be an integer, got bool"),
        ([0, 1.0], "point must be an integer, got float"),
    ):
        data = {"points": 2, "R": [[0, both, both, both], [1, both, list(bad), both], [1, both, both, bad]]}
        with pytest.raises(ValueError) as info:
            frame_from_json(data)
        assert str(info.value) == message

def test_frame_validation():
    with pytest.raises(ValueError):
        PsiFrame(2, frozenset({(2, 1, 1, 1)}))
    with pytest.raises(ValueError):
        PsiFrame(2, frozenset({(0, 0, 1, 1)}))
