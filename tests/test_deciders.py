"""The reduced deciders agree with the full sweeps of their laws, and
the verdict-only pool decider (pool_verdicts, with is_eca/is_extca as its
pool of one) agrees with the reports, lane by lane.

Every operator law is decided on planes of the table: MO1-MO4, PI2-PI4
and S outright, PI1, R1 and R2 on atoms under MO1-MO3, and closed filters
on meets with the generator when MO2-MO4 hold.  The relation laws are
decided on bitmasks: EC0, EC2, EC3, ExtCA2 and ExtCA3 by mask tests on
the bitset, EC4 on its conclusion masks, and the cut EC1 on minimal
premises when those masks are antitone; each law's sentence (or the
cut's sweep) runs only to name a witness or when a hypothesis fails.
pool_verdicts tests the mask laws on many relations packed in one int
and decides EC4 and the cut only on the relations that pass them.  The
checkers would hide a wrong decider (a false failure falls back to the
sweep, which passes), so the deciders are compared here directly, on
inputs that take each path."""
import random
from functools import lru_cache, reduce
from itertools import chain, product
from operator import and_

import pytest

from psiforge import (
    Filter,
    TernaryRelation,
    automorphisms,
    check_eca,
    check_extca,
    check_strict,
    enumerate_ecas,
    example_3bamo,
    is_eca,
    is_extca,
    largest_eca,
    make_algebra,
    smallest_diamond,
)
from psiforge.contact_relation import (
    _bits_of_rows,
    _chi_table,
    _conclusion_masks,
    _cut_on_minimal_premises,
    _cut_witness,
    _SYSTEMS,
    _law_sweeps,
    _verdict,
    pool_verdicts,
)
from psiforge.enumeration import enumerate_psi_operators, permute_operator_table, sample_3bamos
from psiforge.filter_congruence import _closed, _filter_law, _monotone, filter_is_closed
from psiforge.planes import LAWS, distributes
from psiforge.ternary_operator import DEFAULT_SEED, TernaryOperator, _row_sweeps, _sweep
from psiforge.verify import bamo_operator_pool, psi_operator_pool


def _operators(k, rng, count):
    """Random tables of every density, the monotone samples, and one- and
    two-entry near-misses of them; many of all three kinds fail MO1."""
    alg = make_algebra(k)
    size, n = alg.size, alg.size ** 3
    bases = [smallest_diamond(alg).table] + [op.table for op in sample_3bamos(alg, count=4, seed=k)]
    bases += [example_3bamo().table] if k == 2 else []
    tables = list(bases)
    for _ in range(count):
        density = rng.random()
        tables.append([rng.randrange(size) if rng.random() < density else 0 for _ in range(n)])
    for _ in range(count):
        table = list(rng.choice(bases))
        for _ in range(rng.choice((1, 2))):
            table[rng.randrange(n)] = rng.randrange(size)
        tables.append(table)
    return [TernaryOperator(alg, tuple(t)) for t in tables]


def _relations(k, rng, count):
    """Random relations of every density, the ECAs, and one- and two-bit
    flips of them."""
    alg = make_algebra(k)
    n = alg.size ** 3
    bases = [largest_eca(alg).bits] + [r.bits for r in enumerate_ecas(alg)]
    rels = list(bases)
    for _ in range(count):
        density = rng.random()
        rels.append(sum(1 << i for i in range(n) if rng.random() < density))
    for _ in range(count):
        bits = rng.choice(bases)
        for _ in range(rng.choice((1, 2))):
            bits ^= 1 << rng.randrange(n)
        rels.append(bits)
    return [TernaryRelation(alg, bits) for bits in rels]


def _plane(op, axiom):
    return LAWS[axiom](bytes(op.table), op.alg.size)


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_mo_atom_forms_decide_mo2_to_mo4(k, count):
    verdicts = set()
    for op in _operators(k, random.Random(k), count):
        mo1 = _sweep(op, "MO1").passed
        assert _plane(op, "MO1") == mo1, op.table
        for axiom in ("MO2", "MO3", "MO4"):
            verdict = _sweep(op, axiom).passed
            assert _plane(op, axiom) == verdict, (axiom, op.table)
            verdicts.add((axiom, mo1, verdict))
    # each law passes and fails, both with and without MO1, except that on
    # one atom MO1 implies MO2-MO4
    laws = ("MO2", "MO3", "MO4")
    expected = set(product(laws, (False, True), (False, True)))
    assert verdicts == (expected - set(product(laws, (True,), (False,))) if k == 1 else expected)


_MASK_LAWS = ("EC0", "EC2", "EC3", "EC4", "ExtCA2", "ExtCA3")


def _mask_law_cases():
    """Every one-atom relation; seeded two-atom relations of every density,
    the ECAs and their flips; the three-atom ECAs with every one-bit
    flip; and the largest four-atom ECA with seeded one-bit flips."""
    alg1, alg3, alg4 = make_algebra(1), make_algebra(3), make_algebra(4)
    rng = random.Random(23)
    largest = largest_eca(alg4).bits
    return {
        "k1-all": [TernaryRelation(alg1, bits) for bits in range(256)],
        "k2-seeded": _relations(2, rng, 200),
        "k3-eca-flips": [
            TernaryRelation(alg3, rel.bits ^ flip)
            for rel in enumerate_ecas(alg3)
            for flip in [0] + [1 << i for i in range(512)]
        ],
        "k4-largest-flips": [TernaryRelation(alg4, largest ^ 1 << rng.randrange(4096)) for _ in range(150)]
        + [largest_eca(alg4)],
    }


@pytest.mark.parametrize("cases", ["k1-all", "k2-seeded", "k3-eca-flips", "k4-largest-flips"])
def test_mask_verdicts_decide_the_law_sentences(cases):
    verdicts = set()
    for rel in _mask_law_cases()[cases]:
        chi, con = _chi_table(rel), _conclusion_masks(rel)
        for law in _MASK_LAWS:
            (sweep,) = _law_sweeps(law)
            verdict = sweep(chi, rel.alg.top) is None
            assert _verdict(rel, law, con) is verdict, (law, rel.bits)
            verdicts.add((law, verdict))
    # every law passes and fails on every input set
    assert verdicts == set(product(_MASK_LAWS, (False, True)))


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_verdict_only_path_agrees_with_reports(k, count):
    first_failures = set()
    for rel in _relations(k, random.Random(k + 10), count):
        eca, extca = check_eca(rel), check_extca(rel)
        assert is_eca(rel) == eca.passed and is_extca(rel) == extca.passed, rel.bits
        first_failures.add(next((r.axiom for r in eca.results if not r.passed), None))
    # the walk passes, and stops at EC0, EC1 and at least one later law
    assert {"EC0", "EC1", None} < first_failures


def _antitone_relation(alg, rng):
    """A relation whose conclusion masks are antitone in each premise:
    C(d, e) is the meet of dense random masks over every (d', e') below
    (d, e)."""
    size = alg.size
    raw = [reduce(int.__or__, (rng.getrandbits(size) for _ in range(4))) for _ in range(size * size)]
    rows = [
        reduce(and_, (raw[d2 * size + e2] for d2 in range(size) if d2 & d == d2 for e2 in range(size) if e2 & e == e2))
        for d in range(size)
        for e in range(size)
    ]
    return TernaryRelation(alg, _bits_of_rows(rows, size))


def _cut_cases():
    """Every one-atom relation; seeded two-atom relations, random and
    built antitone; and the three-atom ECAs with every one-bit flip."""
    alg1, alg2, alg3 = make_algebra(1), make_algebra(2), make_algebra(3)
    rng = random.Random(17)
    yield from (TernaryRelation(alg1, bits) for bits in range(256))
    yield from (TernaryRelation(alg2, rng.getrandbits(64) | rng.getrandbits(64)) for _ in range(300))
    yield from (_antitone_relation(alg, rng) for alg in (alg2, alg3) for _ in range(300))
    for rel in enumerate_ecas(alg3):
        yield rel
        yield from (TernaryRelation(alg3, rel.bits ^ 1 << i) for i in range(512))


def test_cut_on_minimal_premises_decides_the_cut():
    paths = set()
    for rel in _cut_cases():
        con = _conclusion_masks(rel)
        verdict = _cut_witness(con, rel.alg.top) is None
        reduced = _cut_on_minimal_premises(rel, con)
        assert reduced in (None, verdict), rel.bits
        assert _verdict(rel, "cut", con) == reduced, rel.bits
        report = check_eca(rel)
        ec1 = report.results[1]
        assert (ec1.axiom, ec1.passed, ec1.witness) == ("EC1", verdict, _cut_witness(con, rel.alg.top)), rel.bits
        assert is_eca(rel) == report.passed, rel.bits
        paths.add((reduced is not None, verdict))
    # the reduction decides passes and failures, and the fallback runs on
    # relations that are not antitone, passing and failing
    assert paths == set(product((False, True), (False, True)))


def _antitone_by_lines(con, alg):
    """Reference for the cut's hypothesis: C(d or u, e) <= C(d, e) and
    C(d, e or u) <= C(d, e), line by line over the conclusion masks."""
    size = alg.size
    rows = [con[d * size:(d + 1) * size] for d in range(size)]  # rows[d][e] = C(d, e)
    cols = [con[e::size] for e in range(size)]  # cols[e][d] = C(d, e)
    return not any(
        x & ~y
        for lines in (rows, cols)
        for d in range(size)
        for u in alg.atoms()
        if not d & u
        for x, y in zip(lines[d | u], lines[d])
    )


def test_cut_hypothesis_mask_test_matches_lines():
    alg4 = make_algebra(4)
    flips4 = (TernaryRelation(alg4, largest_eca(alg4).bits ^ 1 << i) for i in range(16 ** 3))
    seen = set()
    for rel in chain(_cut_cases(), flips4):
        con = _conclusion_masks(rel)
        antitone = _antitone_by_lines(con, rel.alg)
        assert (_cut_on_minimal_premises(rel, con) is not None) == antitone, rel.bits
        seen.add((rel.alg.atom_count, antitone))
    assert seen == set(product((1, 2, 3, 4), (False, True)))


def _pack(rels):
    """One int holding relations on one algebra side by side, relation i
    in bits i*size^3 and up."""
    step = rels[0].alg.size ** 3 // 8
    return int.from_bytes(b"".join(r.bits.to_bytes(step, "little") for r in rels), "little")


def _pair_removals():
    """The ECAs on two and three atoms, the largest ones among them, each
    with one pair (a, b, f), (b, a, f) with a != b taken out: EC4 still
    holds, and some fail EC0 alone, others the cut alone."""
    for alg in (make_algebra(2), make_algebra(3)):
        size = alg.size
        for bits in sorted({r.bits for r in enumerate_ecas(alg)} | {largest_eca(alg).bits}):
            for a, b, f in product(range(size), repeat=3):
                pair = 1 << (a * size + b) * size + f | 1 << (b * size + a) * size + f
                if a < b and bits & pair == pair:
                    yield TernaryRelation(alg, bits ^ pair)


_POOLS = {
    "relations-k1": lambda: _relations(1, random.Random(31), 200),
    "relations-k2": lambda: _relations(2, random.Random(32), 200),
    "relations-k3": lambda: _relations(3, random.Random(33), 60),
    **{name: lambda name=name: _mask_law_cases()[name] for name in ("k1-all", "k2-seeded", "k3-eca-flips", "k4-largest-flips")},
    "cut-cases": lambda: list(_cut_cases()),
    "pair-removals": lambda: list(_pair_removals()),
}


@lru_cache(maxsize=None)
def _report(check, rel):
    # the input sets share relations: the cut cases hold the k3 ECA flips
    return check(rel)


@pytest.mark.parametrize("name", list(_POOLS))
def test_pool_verdicts_equal_the_reports(name):
    """pool_verdicts on each input set, packed per algebra, gives every
    lane its relation's report verdict.  Lanes that pass every mask law
    are then decided by the cut (and EC4), passing and failing."""
    by_alg = {}
    for rel in _POOLS[name]():
        by_alg.setdefault(rel.alg, []).append(rel)
    paths = set()
    for alg, rels in by_alg.items():
        pool = _pack(rels)
        for system, check in (("eca", check_eca), ("extca", check_extca)):
            verdicts = pool_verdicts(alg, pool, len(rels), system)
            assert len(verdicts) == len(rels)
            for rel, verdict in zip(rels, verdicts):
                report = _report(check, rel)
                assert verdict == report.passed, (system, rel.bits)
                masks = [r.passed for r, (_, law) in zip(report.results, _SYSTEMS[system]) if law not in ("cut", "EC4")]
                cut = report.results[1].passed if all(masks) else None
                paths.add((system, cut, verdict))
    # lanes failing a mask law, and lanes passing them all that the cut
    # passes; on one atom no relation passing the mask laws fails the cut
    for system in ("eca", "extca"):
        assert {(system, None, False), (system, True, True)} <= paths, name
        if "k1" not in name:
            assert (system, False, False) in paths, name


def test_one_wide_draw_is_the_per_call_draws():
    """The k=2 agreement item draws its relations as one getrandbits(64 n):
    the same bits, relation i in bits 64 i and up, and the same generator
    state as n calls getrandbits(64); its lanes get is_eca's verdicts."""
    n = 10_000
    wide, calls = random.Random(DEFAULT_SEED), random.Random(DEFAULT_SEED)
    pool = wide.getrandbits(64 * n)
    draws = [calls.getrandbits(64) for _ in range(n)]
    assert pool == int.from_bytes(b"".join(d.to_bytes(8, "little") for d in draws), "little")
    assert wide.getstate() == calls.getstate()
    alg = make_algebra(2)
    first = pool & (1 << 64 * 500) - 1
    assert pool_verdicts(alg, first, 500, "eca") == bytes(is_eca(TernaryRelation(alg, d)) for d in draws[:500])


def _pair_maps(alg, rng):
    """Random maps f_uv, one per pair of atoms, with f_uv(0) = 0 and a
    random share of their values 0."""
    size, atoms = alg.size, alg.atoms()
    density = rng.random()

    def value():
        return rng.randrange(size) if rng.random() < density else 0

    return {(u, v): [0] + [value() for _ in range(size - 1)] for u in atoms for v in atoms}


def _join(alg, maps):
    """dia(a, b, c) = the join of f_uv(c) over atoms u <= a, v <= b:
    MO1-MO3 hold, MO4 mostly not."""
    size, atoms = alg.size, alg.atoms()
    return tuple(
        reduce(int.__or__, (maps[u, v][c] for u in atoms if u & a for v in atoms if v & b), 0)
        for a in range(size)
        for b in range(size)
        for c in range(size)
    )


def _joined_table(alg, rng):
    return _join(alg, _pair_maps(alg, rng))


def _one_value_changes(alg, maps):
    """The joins of maps with one value f_uv(c), c > 0, changed, each in
    turn: failures planted at every atom pair and argument."""
    for (u, v), values in maps.items():
        for c, value in product(range(1, alg.size), range(alg.size)):
            if value != values[c]:
                changed = dict(maps)
                changed[u, v] = values[:c] + [value] + values[c + 1:]
                yield _join(alg, changed)


def _strict_tables():
    """Every two-atom pseudo-inference table, the monotone samples, tables
    joined from atom-pair maps, and one- and two-entry perturbations of
    them all (many fail MO1-MO3); and joined three-atom tables, where a
    third coordinate can lie strictly between an atom and the top."""
    alg = make_algebra(2)
    rng = random.Random(2)
    psi = {permute_operator_table(alg, p, op.table) for op in enumerate_psi_operators(alg) for p in automorphisms(alg)}
    bases = sorted(psi) + [op.table for op in sample_3bamos(alg, count=6, seed=2)]
    bases += [_joined_table(alg, rng) for _ in range(20)]
    tables = list(bases)
    for base in bases:
        for _ in range(20):
            table = list(base)
            for _ in range(rng.choice((1, 2))):
                table[rng.randrange(64)] = rng.randrange(4)
            tables.append(tuple(table))
    alg3 = make_algebra(3)
    return [TernaryOperator(alg, t) for t in tables] + [
        TernaryOperator(alg3, _joined_table(alg3, rng)) for _ in range(100)
    ]


def test_r1_r2_atom_forms_decide_r1_r2():
    paths = set()
    for op in _strict_tables():
        full = tuple(_sweep(op, ax) for ax in ("R1", "R2", "S"))
        assert check_strict(op).results == full, op.table
        hypothesis = distributes(bytes(op.table), op.alg.size)
        for axiom, result in zip(("R1", "R2"), full):
            if hypothesis:
                assert _plane(op, axiom) == result.passed, (axiom, op.table)
            paths.add((axiom, hypothesis, result.passed))
    # each law passes and fails, both under MO1-MO3 and without it
    assert paths == set(product(("R1", "R2"), (False, True), (False, True)))


def _plane_cases():
    """Every one-atom table; seeded two- and three-atom tables of every
    density, the monotone samples and their near-misses; and joined
    tables, on which MO1-MO3 hold, with one-value changes of their atom
    pair maps."""
    alg1, alg2, alg3 = make_algebra(1), make_algebra(2), make_algebra(3)
    rng = random.Random(29)
    yield from (TernaryOperator(alg1, tuple(t >> i & 1 for i in range(8))) for t in range(256))
    for k, count in ((2, 150), (3, 40)):
        alg = make_algebra(k)
        yield from _operators(k, rng, count)
        yield from (TernaryOperator(alg, _joined_table(alg, rng)) for _ in range(30))
    for _ in range(3):
        yield from (TernaryOperator(alg2, t) for t in _one_value_changes(alg2, _pair_maps(alg2, rng)))
    changes = list(_one_value_changes(alg3, _pair_maps(alg3, rng)))
    yield from (TernaryOperator(alg3, t) for t in rng.sample(changes, 60))


def test_plane_verdicts_decide_every_operator_law():
    (pi1,) = _row_sweeps("PI1")
    verdicts = set()
    for op in _plane_cases():
        raw, size, top = bytes(op.table), op.alg.size, op.alg.top
        hypothesis = distributes(raw, size)
        for axiom, plane in LAWS.items():
            if axiom in ("PI1", "R1", "R2") and not hypothesis:
                continue
            if axiom == "PI1":
                verdict = all(pi1(op.table, top, a, b) is None for a, b in product(range(size), repeat=2))
            else:
                verdict = _sweep(op, axiom).passed
            assert plane(raw, size) == verdict, (axiom, op.table)
            verdicts.add((axiom, verdict))
    # every law passes and fails
    assert verdicts == set(product(LAWS, (False, True)))


def _filter_operators():
    """The k <= 2 operator pools, and one- and two-entry perturbations of
    their two-atom members, most of which are not monotone."""
    pool = psi_operator_pool(2) + bamo_operator_pool(2)
    rng = random.Random(3)
    ops = list(pool)
    for op in pool:
        if op.alg.atom_count == 2:
            for _ in range(6):
                table = list(op.table)
                for _ in range(rng.choice((1, 2))):
                    table[rng.randrange(64)] = rng.randrange(4)
                ops.append(TernaryOperator(op.alg, tuple(table)))
    return ops


def test_closed_on_meets_decides_closed_filters():
    paths = set()
    for op in _filter_operators():
        monotone = _monotone(op)
        for g in op.alg.elements():
            flt = Filter(op.alg, g)
            definition = _filter_law(op, flt, "closed")
            assert filter_is_closed(op, flt) == definition, (op.table, g)
            assert _closed(op, flt, monotone) == definition, (op.table, g)
            if monotone:
                assert _filter_law(op, flt, "closed-meet") == definition, (op.table, g)
            paths.add((monotone, definition))
    # closed and non-closed filters, on monotone operators and on others
    assert paths == set(product((False, True), (False, True)))
