import random
from itertools import product

import pytest

from psiforge import (
    SizeCapError,
    check_3bamo,
    check_eca,
    check_psi,
    check_strict,
    enumerate_ecas,
    enumerate_operators,
    find_counterexample,
    holds,
    is_relational,
    largest_eca,
    make_algebra,
    named_axioms,
    op_to_rel,
    parse,
    rel_to_op,
    smallest_diamond,
)
from psiforge.boolean_core import apply_automorphism, automorphisms
from psiforge.enumeration import (
    _candidate_slices,
    _join,
    _pairs,
    _slices,
    _table,
    brute_force_operators,
    brute_force_relations,
    canonical_operator_table,
    canonical_relation_bits,
    enumerate_psi_operators,
    permute_operator_table,
    permute_relation_bits,
    sample_3bamos,
    sample_psi_operators,
)
from psiforge.ternary_operator import AXIOM_SETS, LAW_ROWS
from psiforge.topo_models import eca_from_topology, finite_spaces, three_point_space


def test_named_axiom_sizes():
    assert len(named_axioms("3bamo")) == 6
    assert len(named_axioms("psi")) == 10
    assert len(named_axioms("strict")) == 13
    with pytest.raises(ValueError):
        named_axioms("nonsense")


def test_named_axioms_are_the_rows_of_their_laws():
    # each set is the rows of the laws the operator checkers decide, in order
    assert AXIOM_SETS == {
        "3bamo": ("MO1", "MO2", "MO3", "MO4"),
        "psi": ("PI1", "PI2", "PI3", "PI4"),
        "strict": ("R1", "R2", "S"),
    }
    for name, parts in (("3bamo", ("3bamo",)), ("psi", ("3bamo", "psi")), ("strict", ("3bamo", "psi", "strict"))):
        rows = [row for part in parts for law in AXIOM_SETS[part] for row in LAW_ROWS[law]]
        assert named_axioms(name) == [parse(text) for text, _, _ in rows]


def test_named_axioms_returns_a_fresh_list():
    first = named_axioms("psi")
    expected = list(first)
    first.clear()
    assert named_axioms("psi") == expected
    named_axioms("3bamo").append(parse("a = a"))
    assert named_axioms("3bamo") == expected[:6]
    assert named_axioms("strict")[:10] == expected
    assert named_axioms("psi") is not named_axioms("psi")


def test_axiom_sentences_hold_on_smallest(alg1, alg2):
    for alg in (alg1, alg2):
        assert all(holds(s, smallest_diamond(alg))[0] for s in named_axioms("strict"))


def test_enumerate_ecas_k1_matches_brute_force(alg1, ecas_k1):
    brute = brute_force_relations(alg1)
    assert len(brute) == 1  # artifact-derived golden, cross-checked here
    canon = sorted({canonical_relation_bits(alg1, r.bits) for r in brute})
    assert canon == [r.bits for r in ecas_k1]


def test_enumerate_ecas_soundness(ecas_k1, ecas_k2):
    for rel in ecas_k1 + ecas_k2:
        assert check_eca(rel).passed


def test_enumerate_ecas_k2_contents(alg2, ecas_k2):
    assert len(ecas_k2) == 2  # golden count, oracle-checked in test_contact_relation
    bits = [r.bits for r in ecas_k2]
    assert canonical_relation_bits(alg2, largest_eca(alg2).bits) in bits
    _, topo = eca_from_topology(three_point_space())
    assert canonical_relation_bits(alg2, topo.bits) in bits


def test_enumerate_ecas_stable(alg2, ecas_k2):
    again = enumerate_ecas(alg2)
    assert [r.bits for r in again] == [r.bits for r in ecas_k2]


def test_enumerate_ecas_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_ecas(make_algebra(4))


# the seven canonical three-atom entailment relations in enumeration order,
# as pinned in bench/pinned.json
ECAS_K3 = [
    0x80c0a0f088ccaaffc0c0e0f0c8cceaffa0e0a0f0a8ecaafff0f0f0f0f8fcfaff88c8a8f888ccaaffccccecfccccceeffaaeaaafaaaeeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0e0f0c8cceaffa0e0a0f0aaeeaafff0f0f0f0fafefaff88c8aafa88ccaaffcccceefecccceeffaaeaaafaaaeeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0e0f0c8cceaffa0e0a0f0aaeeaafff0f0f0f0fafffaff88c8aafa88ccaaffcccceeffcccceeffaaeaaafaaaeeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0e0f0cccceeffa0e0a0f0aaeeaafff0f0f0f0fefefeff88ccaafe88ccaaffcccceefecccceeffaaeeaafeaaeeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0e0f0cccceeffa0e0a0f0aaeeaafff0f0f0f0ffffffff88ccaaff88ccaaffcccceeffcccceeffaaeeaaffaaeeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0f0f0ccccfeffa0f0a0f0aafeaafff0f0f0f0fefefeff88ccaafe88ccaaffccccfefeccccfeffaafeaafeaafeaaffffffffffffffffff,
    0x80c0a0f088ccaaffc0c0f0f0ccccffffa0f0a0f0aaffaafff0f0f0f0ffffffff88ccaaff88ccaaffccccffffccccffffaaffaaffaaffaaffffffffffffffffff,
]


def test_enumerate_ecas_k3_exact():
    """The three-atom enumeration: the pinned census, sound, and holding
    every independently constructed three-atom entailment relation."""
    alg3 = make_algebra(3)
    out = enumerate_ecas(alg3)
    bits = [r.bits for r in out]
    assert bits == ECAS_K3
    for rel in out:
        assert check_eca(rel).passed
    assert canonical_relation_bits(alg3, largest_eca(alg3).bits) in bits
    realised = set()
    for top in finite_spaces():
        rca, rel = eca_from_topology(top)
        if rca.alg.atom_count == 3:
            realised.add(canonical_relation_bits(alg3, rel.bits))
    assert len(realised) == 3 and realised <= set(bits)


# ---------------------------------------------------------------------------
# the slice engine against the checkers


def _whole(alg, u, v):
    return sum(1 << c for c in alg.elements() if c & u and c & v)


def _move(alg, perm, family):
    """The family of up-sets moved by an atom permutation."""
    img = [apply_automorphism(alg, perm, c) for c in alg.elements()]
    pairs = _pairs(alg)
    out = {}
    for (u, v), s in zip(pairs, family):
        out[(img[u], img[v])] = out[(img[v], img[u])] = sum(1 << img[c] for c in alg.elements() if s >> c & 1)
    return tuple(out[pair] for pair in pairs)


@pytest.mark.parametrize("k, per_atom, families, labelled", [(1, 1, 1, 1), (2, 4, 2, 2), (3, 60, 27, 15)])
def test_slice_counts(k, per_atom, families, labelled):
    """Valid slices per atom; candidate families with every diagonal whole
    and the labelled entailment relations among them."""
    alg = make_algebra(k)
    assert [len(_slices(k, (x,))) for x in alg.atoms()] == [per_atom] * k
    assert len(list(_candidate_slices(alg, tuple(alg.atoms())))) == families
    relational = _slices(k, tuple(alg.atoms()))
    assert len(relational) == labelled
    for family in relational:
        op = _table(alg, (family,) * k)
        assert is_relational(op)[0]
        assert check_eca(op_to_rel(op)).passed


@pytest.mark.parametrize("k, orbits", [(1, 1), (2, 10), (3, 36440)])
def test_slice_tuples_burnside(k, orbits):
    """Orbits of slice tuples under atom permutations, by Burnside's lemma:
    a tuple fixed by a permutation is one slice per cycle of atoms, fixed
    by the permutation's power of that cycle's length."""
    alg = make_algebra(k)
    per_atom = {x: _slices(k, (x,)) for x in alg.atoms()}
    fixed = 0
    for perm in automorphisms(alg):
        for x, options in per_atom.items():
            # the valid slices at an atom move onto those at its image
            moved = {_move(alg, perm, f) for f in options}
            assert moved == set(per_atom[apply_automorphism(alg, perm, x)])
        count, seen = 1, set()
        for x in per_atom:
            if x in seen:
                continue
            cycle = [x]
            while (y := apply_automorphism(alg, perm, cycle[-1])) != x:
                cycle.append(y)
            seen.update(cycle)

            def power(f):
                for _ in cycle:
                    f = _move(alg, perm, f)
                return f

            count *= sum(power(f) == f for f in per_atom[x])
        fixed += count
    assert fixed % len(automorphisms(alg)) == 0
    assert fixed // len(automorphisms(alg)) == orbits


def test_pi1_mask_test_agrees_with_checkers():
    """Each candidate slice at the first of three atoms, joined with the
    smallest diamond's slices at the others, is a pseudo-inference table
    exactly when the mask test keeps it."""
    alg = make_algebra(3)
    x, *rest = alg.atoms()
    kept = set(_slices(3, (x,)))
    least = [tuple(_whole(alg, u, v) if u == v == y else 0 for u, v in _pairs(alg)) for y in rest]
    candidates = list(_candidate_slices(alg, (x,)))
    assert len(candidates) == 972
    for family in candidates:
        op = _table(alg, [family] + least)
        assert (check_3bamo(op).passed and check_psi(op).passed) == (family in kept)


def test_psi_samples_pass_the_checkers():
    alg3 = make_algebra(3)
    for seed in range(6):
        ops = sample_psi_operators(alg3, count=8, seed=seed)
        assert len({op.table for op in ops}) == 8
        for op in ops:
            assert check_3bamo(op).passed and check_psi(op).passed
    assert len(sample_psi_operators(make_algebra(1), count=8)) == 1
    with pytest.raises(SizeCapError):
        sample_psi_operators(make_algebra(4), count=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_3bamo_samples_pass_the_checker(k):
    for seed in (0, 1, 0xEC0):
        for op in sample_3bamos(make_algebra(k), count=6, seed=seed):
            assert check_3bamo(op).passed


def _closure_loop_samples(alg, count, seed, attempts=400):
    """sample_3bamos by its earlier construction: per ordered atom pair,
    each value by popcount is its draw ORed with the values one atom
    below it, then the maps are joined over the atoms below a and b."""
    rng = random.Random(seed)
    atoms, size = alg.atoms(), alg.size
    by_popcount = sorted(alg.elements(), key=lambda c: (bin(c).count("1"), c))
    found = {}
    for _ in range(attempts):
        if len(found) >= count:
            break
        raw = bytearray(size ** 3)
        for u in atoms:
            for v in atoms:
                row = (u * size + v) * size
                for c in by_popcount[1:]:
                    for y in atoms:
                        if c & y:
                            raw[row + c] |= raw[row + (c ^ y)]
                    raw[row + c] |= rng.randrange(size)
        table = _join(alg, raw).table
        found.setdefault(table, table)
    return list(found)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_3bamo_samples_match_the_closure_loop(k):
    """One subset-OR transform over every offset bit of the drawn values
    gives the tables of the per-pair closure loop, draw for draw."""
    alg = make_algebra(k)
    for seed in (0xEC0, 1, 2, 5):
        assert [op.table for op in sample_3bamos(alg, count=6, seed=seed)] == _closure_loop_samples(alg, 6, seed)


def test_enumerate_operators_k1_exhaustive(alg1):
    enum = enumerate_operators(alg1, named_axioms("psi"))
    assert enum.label == "exhaustive"
    assert len(enum.operators) == 1
    assert enum.operators[0].table == smallest_diamond(alg1).table


def test_enumerate_operators_k1_strict_all_relational(alg1):
    enum = enumerate_operators(alg1, named_axioms("strict"))
    assert all(is_relational(op)[0] for op in enum.operators)


def test_enumerate_operators_k2_relational_bijective_with_ecas(alg2, ecas_k2):
    enum = enumerate_operators(alg2, named_axioms("psi"))
    assert enum.label == "relational-exhaustive"
    expected = sorted(
        {canonical_operator_table(alg2, rel_to_op(r).table) for r in ecas_k2}
    )
    assert [op.table for op in enum.operators] == expected


def test_enumerate_operators_k3_relational():
    """auto picks relational mode at three atoms, under the relation
    enumerator's cap: the canonical tables of the pinned census."""
    from psiforge import TernaryRelation
    from psiforge.boolean_core import automorphisms
    from psiforge.enumeration import permute_operator_table, permute_relation_bits

    alg3 = make_algebra(3)
    enum = enumerate_operators(alg3, named_axioms("psi"))
    assert enum.label == "relational-exhaustive"
    expected = sorted(
        {canonical_operator_table(alg3, rel_to_op(TernaryRelation(alg3, b)).table) for b in ECAS_K3}
    )
    assert [op.table for op in enum.operators] == expected
    assert len(expected) == 7
    with pytest.raises(SizeCapError, match="capped at 3 atoms"):
        enumerate_operators(make_algebra(4), named_axioms("psi"))


def test_enumerate_operators_refuses_infeasible(alg2):
    with pytest.raises(SizeCapError):
        enumerate_operators(alg2, named_axioms("psi"), mode="exhaustive")


def test_enumerate_operators_sampled_is_labelled(alg2):
    enum = enumerate_operators(alg2, named_axioms("psi"), mode="sampled", seed=5)
    assert enum.label == "sampled(seed=5)"
    for op in enum.operators:
        assert check_psi(op).passed
    again = enumerate_operators(alg2, named_axioms("psi"), mode="sampled", seed=5)
    assert [o.table for o in again.operators] == [o.table for o in enum.operators]


def test_enumerate_psi_operators_golden(alg1, alg2, psi_ops_k2):
    k1 = enumerate_psi_operators(alg1)
    assert len(k1) == 1
    # golden count of canonical pseudo-inference tables on two atoms
    assert len(psi_ops_k2) == 10
    for op in psi_ops_k2:
        assert check_psi(op).passed
    # the relational ones and the least table are all present
    tables = {op.table for op in psi_ops_k2}
    assert canonical_operator_table(alg2, smallest_diamond(alg2).table) in tables


def test_canonical_forms_are_orbit_invariant(alg2, ecas_k2, psi_ops_k2):
    from psiforge.boolean_core import automorphisms
    from psiforge.enumeration import permute_operator_table, permute_relation_bits

    for rel in ecas_k2:
        for perm in automorphisms(alg2):
            moved = permute_relation_bits(alg2, perm, rel.bits)
            assert canonical_relation_bits(alg2, moved) == canonical_relation_bits(
                alg2, rel.bits
            )
    for op in psi_ops_k2[:4]:
        for perm in automorphisms(alg2):
            moved = permute_operator_table(alg2, perm, op.table)
            assert canonical_operator_table(alg2, moved) == canonical_operator_table(
                alg2, op.table
            )


def _moved_bits(alg, perm, bits):
    """The relation moved by the automorphism, one triple at a time."""
    size = alg.size
    img = [apply_automorphism(alg, perm, a) for a in range(size)]
    moved = 0
    for i, (a, b, c) in enumerate(product(range(size), repeat=3)):
        if bits >> i & 1:
            moved |= 1 << (img[a] * size + img[b]) * size + img[c]
    return moved


def _moved_table(alg, perm, table):
    """The operator moved by the automorphism, one entry at a time: img[v]
    at (img[a], img[b], img[c]) for the value v at (a, b, c)."""
    size = alg.size
    img = [apply_automorphism(alg, perm, a) for a in range(size)]
    pre = [0] * size
    for a, pa in enumerate(img):
        pre[pa] = a
    return tuple(img[table[(a * size + b) * size + c]] for a in pre for b in pre for c in pre)


def _seeded_perms(k, rng, count):
    return [tuple(rng.sample(range(k), k)) for _ in range(count)]


def test_canonical_relation_bits_matches_a_per_bit_reference():
    """The delta-swap canonical form equals the least image over the
    automorphisms, each built one triple (a, b, c) at a time; and each
    image equals its per-bit build, on every automorphism through 3 atoms
    and on seeded ones at 4."""
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        alg = make_algebra(k)
        n = alg.size ** 3
        count = 100 if k < 4 else 3
        cases = [largest_eca(alg).bits] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(count)]
        for bits in cases:
            images = {perm: _moved_bits(alg, perm, bits) for perm in automorphisms(alg)}
            assert canonical_relation_bits(alg, bits) == min(images.values()), (k, bits)
            perms = automorphisms(alg) if k < 4 else _seeded_perms(k, rng, 6)
            for perm in perms:
                assert permute_relation_bits(alg, perm, bits) == images[perm], (k, perm)


def test_permute_operator_table_matches_a_per_entry_reference():
    """Moving a table by its bytes equals moving it one entry at a time:
    every automorphism through 3 atoms, seeded ones at 4 and 5, on random
    tables and translated relations; and the canonical table is the least
    per-entry image."""
    rng = random.Random(6)
    for k in (1, 2, 3, 4, 5):
        alg = make_algebra(k)
        size = alg.size
        tables = [tuple(rng.randrange(size) for _ in range(size ** 3)) for _ in range(3)]
        tables.append(rel_to_op(largest_eca(alg)).table)
        for table in tables:
            perms = automorphisms(alg) if k < 4 else _seeded_perms(k, rng, 4)
            for perm in perms:
                assert permute_operator_table(alg, perm, table) == _moved_table(alg, perm, table), (k, perm)
            if k < 4:
                least = min(_moved_table(alg, perm, table) for perm in automorphisms(alg))
                assert canonical_operator_table(alg, table) == least


def _joined_rows(alg, m):
    """The table joined from atom-pair maps one entry list at a time."""
    size = alg.size
    rows = {(v, u): row for (u, v), row in m.items()} | m
    below = [[u for u in alg.atoms() if a & u] for a in range(size)]
    table = []
    for a in range(size):
        for b in range(size):
            out = [0] * size
            for u in below[a]:
                for v in below[b]:
                    out = [x | y for x, y in zip(out, rows[(u, v)])]
            table.extend(out)
    return tuple(table)


def test_atom_pair_join_matches_a_per_entry_join():
    """The subset-OR transform of a byte table holding the maps at the atom
    pairs equals the per-entry join over atoms, on random maps keyed by
    every ordered pair or by unordered ones, an unordered key written in
    both orders."""
    rng = random.Random(7)
    for k in (1, 2, 3, 4, 5):
        alg = make_algebra(k)
        atoms = alg.atoms()
        for _ in range(3):
            for ordered in (True, False):
                m = {
                    (u, v): [rng.randrange(alg.size) for _ in range(alg.size)]
                    for i, u in enumerate(atoms)
                    for v in (atoms if ordered else atoms[i:])
                }
                raw = bytearray(alg.size ** 3)
                for (u, v), row in ({(v, u): row for (u, v), row in m.items()} | m).items():
                    raw[(u * alg.size + v) * alg.size:(u * alg.size + v + 1) * alg.size] = bytes(row)
                assert _join(alg, raw).table == _joined_rows(alg, m), (k, ordered)


def test_permutations_commute_with_rel_to_op():
    """At three atoms, where an automorphism need not be its own inverse,
    moving a relation and moving its operator agree."""
    from psiforge import TernaryRelation
    from psiforge.boolean_core import automorphisms
    from psiforge.enumeration import permute_operator_table, permute_relation_bits

    alg3 = make_algebra(3)
    for bits in ECAS_K3:
        table = rel_to_op(TernaryRelation(alg3, bits)).table
        for perm in automorphisms(alg3):
            moved = TernaryRelation(alg3, permute_relation_bits(alg3, perm, bits))
            assert rel_to_op(moved).table == permute_operator_table(alg3, perm, table)


def test_permuted_operator_satisfies_same_axioms(alg2, psi_ops_k2):
    from psiforge.boolean_core import automorphisms
    from psiforge.enumeration import permute_operator_table
    from psiforge import TernaryOperator

    swap = automorphisms(alg2)[1]
    for op in psi_ops_k2[:4]:
        moved = TernaryOperator(alg2, permute_operator_table(alg2, swap, op.table))
        assert check_psi(moved).passed


def test_sampled_generators_are_deterministic(alg2):
    a = [op.table for op in sample_psi_operators(alg2, count=6, seed=9)]
    b = [op.table for op in sample_psi_operators(alg2, count=6, seed=9)]
    assert a == b
    c = [op.table for op in sample_3bamos(alg2, count=6, seed=9)]
    d = [op.table for op in sample_3bamos(alg2, count=6, seed=9)]
    assert c == d


def test_find_counterexample_pi4_exhausted(alg2):
    pi4 = parse("dia(a,b,f) <= dia(b,a,f)")
    result = find_counterexample(pi4, alg2, named_axioms("psi"), mode="relational")
    assert not result.found
    assert "no counterexample" in result.exhausted_certificate


def test_find_counterexample_symmetry_question(alg1):
    # is the operator symmetric in its last two arguments? on the single
    # meet-table space it is; the sweep certifies exhaustion
    s = parse("dia(a,b,c) = dia(a,c,b)")
    result = find_counterexample(s, alg1, named_axioms("psi"))
    assert not result.found
    assert result.searched == 1


def test_find_counterexample_strictness_on_k1_3bamos(alg1):
    s = parse("dia(a,b,c) <= mu(dia(a,b,c))")
    result = find_counterexample(s, alg1, named_axioms("3bamo"))
    # both single-atom monotone tables satisfy strictness: exhausted
    assert not result.found
    assert result.searched == 2


def test_find_counterexample_found(alg1):
    s = parse("dia(a,b,c) = 0")
    result = find_counterexample(s, alg1, named_axioms("psi"))
    assert result.found
    assert result.assignment == {"a": 1, "b": 1, "c": 1}


def test_brute_force_guards(alg2):
    with pytest.raises(SizeCapError):
        brute_force_relations(alg2)
    with pytest.raises(SizeCapError):
        brute_force_operators(alg2, [])


def test_all_k1_3bamos(alg1):
    ops = brute_force_operators(alg1, named_axioms("3bamo"))
    assert len(ops) == 2  # the zero table and the meet table
    strict_ops = [op for op in ops if check_strict(op).passed]
    assert len(strict_ops) == 2
