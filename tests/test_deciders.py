"""Each law's one decider agrees with the full sweep of its law, and the
verdict-only pool decider (pool_verdicts, with is_eca/is_extca as its
pool of one) agrees with the reports, lane by lane.

Every operator law is decided on planes of the table (planes.LAWS):
MO1-MO4, PI2-PI4 and S outright, PI1, R1 and R2 on atom pairs under
MO1-MO3 and on every pair otherwise.  Closed filters are decided by one
whole-table test against the meets of dia above each triple, compared
here with the definition.  The relation laws are decided on bitmasks
(contact_relation._failure): EC0, EC2, EC3, ExtCA2 and ExtCA3 by mask
tests on the bitset, EC4 on its conclusion masks, and the cut EC1 by one
AND per premise of each distinct conclusion mask, compared here with a
plain top-down sweep.  A failing decider also gives the prefix of the
law's first witness, and the check sweeps only the remaining variables,
so each reported witness is compared here with the full sweep's.
pool_verdicts tests the mask laws on many relations packed in one int
and decides EC4 and the cut only on the relations that pass them.  A
check whose decider flags a failure that the bounded sweep cannot name
raises InternalCheckError, but a decider that passes a failing law, or
a prefix past the first failure that still fails, would go unseen, so
the deciders are compared here directly."""
import random
from functools import lru_cache, reduce
from itertools import chain, product
from operator import and_

import pytest

from psiforge import (
    Filter,
    InternalCheckError,
    TernaryRelation,
    automorphisms,
    check_3bamo,
    check_eca,
    check_extca,
    check_psi,
    check_strict,
    enumerate_ecas,
    example_3bamo,
    is_eca,
    is_extca,
    largest_eca,
    make_algebra,
    smallest_diamond,
)
from psiforge import boolean_core, contact_relation, duality_frames, planes
from psiforge.contact_relation import (
    _chi_table,
    _conclusion_masks,
    _cut_witness,
    _SYSTEMS,
    _failure,
    _LAWS,
    pool_verdicts,
)
from psiforge.enumeration import enumerate_psi_operators, permute_operator_table, sample_3bamos
from psiforge.filter_congruence import _FILTER_LAWS, filter_is_closed
from psiforge.planes import LAWS, distributes
from psiforge.terms import compile_sweep, law_sweeps, parse
from psiforge.ternary_operator import DEFAULT_SEED, LAW_ROWS, TernaryOperator, _sweep
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
    return LAWS[axiom](bytes(op.table), op.alg.size) is None


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_mo_atom_forms_decide_mo2_to_mo4(k, count):
    verdicts = set()
    for op in _operators(k, random.Random(k), count):
        mo1 = _sweep(op, "MO1").passed
        assert _plane(op, "MO1") == mo1, op.table
        for axiom in ("MO2", "MO3", "MO4"):
            verdict = _sweep(op, axiom).passed
            assert _plane(op, axiom) == verdict, (axiom, op.table)
            if axiom != "MO4":  # the atom forms alone, before MO2's search for its prefix
                stride = op.alg.size ** (2 if axiom == "MO2" else 1)
                assert (planes._nonadditive(bytes(op.table), op.alg.size, stride) == 0) == verdict, (axiom, op.table)
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
            (sweep,) = law_sweeps(_LAWS[law])
            verdict = sweep(chi, rel.alg.top) is None
            assert (_failure(rel, law, con) is None) is verdict, (law, rel.bits)
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
    return TernaryRelation(alg, boolean_core._pack(rows, size))


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


def _reference_cut(con, top):
    """The cut's first violation (a, b, d, e, f), every variable top-down,
    by a plain sweep over the conclusion masks con; None if it holds."""
    # one bit operation per (a, b, d, e) finds every missing conclusion f
    size = top + 1
    desc = range(top, -1, -1)
    for a in desc:
        for b in desc:
            cab = con[a * size + b]
            if not cab:
                continue
            for d in desc:
                if not cab >> d & 1:
                    continue
                for e in desc:
                    if not cab >> e & 1:
                        continue
                    missing = con[d * size + e] & ~cab
                    if missing:
                        # first f top-down = highest missing conclusion
                        return (a, b, d, e, missing.bit_length() - 1)
    return None


# C(d, e) holds C(d2, e) for every d2 >= d, and C(d, e2) for every e2 >= e
_ANTITONE = tuple(
    compile_sweep(parse(text), tuple("abcf"))
    for text in (
        "f or a = a => dia(a, b, c) and dia(f, b, c) = dia(a, b, c)",
        "f or b = b => dia(a, b, c) and dia(a, f, c) = dia(a, b, c)",
    )
)


def test_cut_witness_matches_the_reference_sweep():
    paths = set()
    for rel in chain(_cut_cases(), _mask_law_cases()["k4-largest-flips"]):
        con, top = _conclusion_masks(rel), rel.alg.top
        witness = _reference_cut(con, top)
        assert _cut_witness(rel, con) == witness, rel.bits
        assert _failure(rel, "cut", con) == witness, rel.bits
        report = check_eca(rel)
        ec1 = report.results[1]
        assert (ec1.axiom, ec1.passed, ec1.witness) == ("EC1", witness is None, witness), rel.bits
        assert is_eca(rel) == report.passed, rel.bits
        if rel.alg.atom_count < 4:
            chi = _chi_table(rel)
            antitone = all(sweep(chi, top) is None for sweep in _ANTITONE)
            paths.add((antitone, witness is None))
    # the cut passes and fails on relations whose conclusion masks are
    # antitone in each premise and on others
    assert paths == set(product((False, True), (False, True)))


def test_cut_at_five_atoms():
    """Five atoms: on C(0, 0) = 0 with every other conclusion mask full,
    which is not antitone, the cut holds; on a one-bit flip of the
    largest relation it fails at the reference sweep's first witness."""
    alg = make_algebra(5)
    size, full = alg.size, (1 << alg.size) - 1
    rel = TernaryRelation(alg, boolean_core._pack([0] + [full] * (size * size - 1), size))
    report = check_eca(rel)
    assert [(r.axiom, r.passed) for r in report.results] == [
        ("EC0", True), ("EC1", True), ("EC2", False), ("EC3", False), ("EC4", True)
    ]
    assert _reference_cut(_conclusion_masks(rel), alg.top) is None
    assert not is_eca(rel)
    flip = TernaryRelation(alg, largest_eca(alg).bits ^ 1 << (17 * size + 12) * size + 20)
    ec1 = check_eca(flip).results[1]
    assert (ec1.axiom, ec1.passed) == ("EC1", False)
    assert ec1.witness == _reference_cut(_conclusion_masks(flip), alg.top) == (17, 12, 31, 16, 20)


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
    verdicts, paths = set(), set()
    for op in _plane_cases():
        raw, size = bytes(op.table), op.alg.size
        hypothesis = distributes(raw, size)
        for axiom, plane in LAWS.items():
            verdict = _sweep(op, axiom).passed
            assert (plane(raw, size) is None) == verdict, (axiom, op.table)
            verdicts.add((axiom, verdict))
            if axiom in ("PI1", "R1", "R2"):
                paths.add((axiom, hypothesis, verdict))
    # every law passes and fails, and PI1, R1 and R2, decided on atom pairs
    # where MO1-MO3 hold and on every pair otherwise, do so on both paths
    assert verdicts == set(product(LAWS, (False, True)))
    assert paths == set(product(("PI1", "R1", "R2"), (False, True), (False, True)))


def _seeded_changes(k, count, rng):
    """The smallest diamond, a monotone sample and a table joined from atom
    pair maps (MO1-MO3 hold on it), and count seeded changes of them: one
    entry anywhere or on the diagonal (a, a, f), and one value of the
    joined table's maps, which keeps MO1-MO3."""
    alg = make_algebra(k)
    size, n = alg.size, alg.size ** 3
    maps = _pair_maps(alg, rng)
    bases = [smallest_diamond(alg).table, sample_3bamos(alg, count=1, seed=k)[0].table, _join(alg, maps)]
    tables = list(bases)
    for i in range(count):
        table = list(bases[i % 3])
        a = rng.randrange(size)
        table[rng.randrange(n) if i % 2 else (a * size + a) * size + rng.randrange(size)] = rng.randrange(size)
        tables.append(table)
        pair = rng.choice(list(maps))
        values = list(maps[pair])
        values[rng.randrange(1, size)] = rng.randrange(size)
        tables.append(_join(alg, {**maps, pair: values}))
    return [TernaryOperator(alg, tuple(t)) for t in tables]


@pytest.mark.parametrize("k,count", [(4, 8), (5, 2)])
def test_operator_witnesses_equal_the_full_sweeps(k, count):
    """Each law's decider gives the prefix of the witness that its full
    sentence sweep finds first, so every reported result equals that
    sweep's.  PI1's full five-variable sweep takes seconds at five atoms,
    so it is compared at four; its five- and six-atom witnesses are
    pinned in test_ternary_operator and below."""
    verdicts = set()
    for op in _seeded_changes(k, count, random.Random(k)):
        reports = (check_3bamo(op), check_psi(op), check_strict(op))
        for result in chain.from_iterable(report.results for report in reports):
            if (result.axiom, k) != ("PI1", 5):
                assert result == _sweep(op, result.axiom), (result, op.table)
                verdicts.add((result.axiom, result.passed))
    # every law passes and fails
    assert verdicts == set(product(set(LAWS) - ({"PI1"} if k == 5 else set()), (False, True)))


def _seeded_flips(k, count, rng):
    """The largest ECA, and count seeded one-bit flips of it: anywhere or
    on the diagonal (a, a, f)."""
    alg = make_algebra(k)
    size, bits = alg.size, largest_eca(alg).bits
    rels = [bits]
    for i in range(count):
        a = rng.randrange(size)
        rels.append(bits ^ 1 << (rng.randrange(size ** 3) if i % 2 else (a * size + a) * size + rng.randrange(size)))
    return [TernaryRelation(alg, r) for r in rels]


@pytest.mark.parametrize("k,count", [(4, 10), (5, 6)])
def test_relation_witnesses_equal_the_full_sweeps(k, count):
    """Each relation law's decider gives the prefix of the witness that its
    sentence's full sweep over chi finds first; the cut's full top-down
    sweep is compared at four atoms, and the reference sweep over the
    conclusion masks at five."""
    failing = set()
    for rel in _seeded_flips(k, count, random.Random(k)):
        chi, top = _chi_table(rel), rel.alg.top
        for system, check in (("eca", check_eca), ("extca", check_extca)):
            for result, (name, law) in zip(check(rel).results, _SYSTEMS[system]):
                if law == "cut" and k == 5:
                    witness = _reference_cut(_conclusion_masks(rel), top)
                else:
                    (sweep,) = law_sweeps(_LAWS[law])
                    witness = sweep(chi, top)
                assert (result.axiom, result.witness) == (name, witness), rel.bits
                if witness is not None:
                    failing.add(name)
    assert failing == {name for system in _SYSTEMS.values() for name, _ in system}


def test_six_atom_witnesses_are_pinned():
    """The 6-atom smallest diamond with entry (63, 1, 63) raised to 63, and
    the largest 6-atom relation with (5, 6, 0) added, report the first
    witnesses of their full sweeps."""
    alg = make_algebra(6)
    size = alg.size
    table = list(smallest_diamond(alg).table)
    table[(63 * size + 1) * size + 63] = 63
    op = TernaryOperator(alg, tuple(table))
    failures = [(r.axiom, r.witness) for check in (check_3bamo, check_psi, check_strict) for r in check(op).failures()]
    assert failures == [
        ("MO2", (1, 62, 1, 63)), ("MO3", (63, 1, 2, 63)), ("PI1", (63, 1, 63, 63, 61)), ("PI4", (63, 1, 63)),
        ("R1", (63, 1, 63, 2)), ("R2", (63, 1, 3, 63)), ("S", (62, 62, 62)),
    ]
    rel = TernaryRelation(alg, largest_eca(alg).bits | 1 << (5 * size + 6) * size)
    assert [(r.axiom, r.witness) for r in check_eca(rel).failures()] == [
        ("EC0", (5, 6, 0, 1)), ("EC1", (63, 4, 5, 6, 0)), ("EC4", (5, 6, 0)),
    ]
    assert check_extca(rel).result("ExtCA3").witness == (5, 6, 0)


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


def _closed_by_definition(op, flt):
    """[g) is closed, read off the definition: dia(x1, x2, x3) ->
    dia(y1, y2, y3) lies in [g) whenever every xi -> yi does."""
    alg = op.alg
    elems = alg.elements()
    pairs = [(x, y) for x in elems for y in elems if alg.implies(x, y) in flt]
    return all(
        alg.implies(op(x1, x2, x3), op(y1, y2, y3)) in flt
        for x1, y1 in pairs
        for x2, y2 in pairs
        for x3, y3 in pairs
    )


def test_closed_on_meets_decides_closed_filters():
    paths = set()
    for op in _filter_operators():
        monotone = all(_plane(op, ax) for ax in ("MO2", "MO3", "MO4"))
        for g in op.alg.elements():
            flt = Filter(op.alg, g)
            definition = _closed_by_definition(op, flt)
            assert filter_is_closed(op, flt) == definition, (op.table, g)
            paths.add((monotone, definition))
    # closed and non-closed filters, on monotone operators and on others
    assert paths == set(product((False, True), (False, True)))


# a prefix of zeros, as long as each law's prefix, and the check reporting it
_ZERO_PREFIXES = {
    "MO1": (0, "3bamo"), "MO2": (2, "3bamo"), "MO3": (1, "3bamo"), "MO4": (2, "3bamo"),
    "PI1": (2, "psi"), "PI2": (2, "psi"), "PI3": (2, "psi"), "PI4": (3, "psi"),
    "R1": (2, "strict"), "R2": (1, "strict"), "S": (3, "strict"),
}
_RELATION_PREFIXES = {"EC0": 3, "cut": 5, "EC2": 2, "EC3": 1, "EC4": 2, "ExtCA2": 2, "ExtCA3": 2}


def test_every_law_row_compiles_at_each_bound():
    """Every row of the three law tables compiles unbound and with each
    prefix length its decider can return bound: the operator laws at their
    planes.LAWS prefixes, the relation laws at their _failure prefixes and
    the filter laws at the generator g.  The PI2 equivalents and the
    derived relation laws are swept unbound only.  A row whose order
    misses or repeats a variable, or binds a constant, fails to compile."""
    assert set(_ZERO_PREFIXES) == set(LAWS)
    assert set(_RELATION_PREFIXES) == {law for system in _SYSTEMS.values() for _, law in system}
    tables = (
        (LAW_ROWS, {law: length for law, (length, _) in _ZERO_PREFIXES.items()}),
        (_LAWS, _RELATION_PREFIXES),
        (_FILTER_LAWS, dict.fromkeys(_FILTER_LAWS, 1)),
    )
    for laws, prefixes in tables:
        for law, rows in laws.items():
            for bound in {0, prefixes.get(law, 0)}:
                assert len(law_sweeps(rows, bound)) == len(rows), (law, bound)


def test_a_failed_verdict_without_a_witness_is_an_error(monkeypatch):
    """Each decider that flags a failure the sweep cannot name raises
    InternalCheckError rather than passing the law or naming no witness:
    a prefix at which the law holds (zeros, on a table and a relation
    satisfying every law, and a pair of the frame where PIF1 holds), or a
    cut mask flagged where no triple fails."""
    alg = make_algebra(2)
    op, rel = smallest_diamond(alg), largest_eca(alg)
    frame = duality_frames.dual_frame(op)
    checks = {"3bamo": check_3bamo, "psi": check_psi, "strict": check_strict}
    for law, (length, kind) in _ZERO_PREFIXES.items():
        with monkeypatch.context() as m:
            m.setitem(planes.LAWS, law, lambda raw, s, length=length: (0,) * length)
            with pytest.raises(InternalCheckError, match=law):
                checks[kind](op)
    for law, length in _RELATION_PREFIXES.items():
        with monkeypatch.context() as m:
            zeros = {law: (0,) * length}
            m.setattr(contact_relation, "_failure", lambda rel, x, con, zeros=zeros: zeros.get(x))
            for system, check in (("eca", check_eca), ("extca", check_extca)):
                name = next((name for name, x in _SYSTEMS[system] if x == law), None)
                if name is not None:
                    with pytest.raises(InternalCheckError, match=name):
                        check(rel)
    with monkeypatch.context() as m:
        m.setattr(planes, "pi1_failure", lambda raw, s, pairs: (1, 1))
        with pytest.raises(InternalCheckError, match="PIF1"):
            duality_frames.check_psi_space(frame)
    # every bit of the cut's pattern set: each mask is flagged (the law
    # masks, built from the same rows, are built first, unpatched)
    assert check_eca(rel).passed
    with monkeypatch.context() as m:
        m.setattr(contact_relation, "_pack", lambda rows, width: -1)
        with pytest.raises(InternalCheckError, match="cut"):
            check_eca(rel)
    monkeypatch.setattr(contact_relation, "_mask_failures", lambda *args: 1)
    with pytest.raises(InternalCheckError, match="EC0"):
        check_eca(rel)
