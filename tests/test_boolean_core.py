import base64
import dataclasses
import itertools
import json
import random

import pytest

from psiforge import (
    Filter,
    SizeCapError,
    automorphisms,
    beta,
    bool_eval,
    closedset_to_filter,
    filter_to_closedset,
    make_algebra,
)
from psiforge.boolean_core import (
    _bits,
    _down,
    _entries,
    _from_base64,
    _pack,
    _permute_offsets,
    _repeat,
    _set_bits,
    _set_offsets,
    _table_of_rows,
    _to_base64,
    _transpose,
    _unpack,
    _up,
    _zero_rows,
    algebra_from_json,
    apply_automorphism,
)


def brute_ultrafilters(alg):
    """Oracle: enumerate ultrafilters from the definition (proper, upward
    closed, meet closed, containing one of a / not-a for every a)."""
    out = []
    els = list(alg.elements())
    for mask in range(1 << alg.size):
        members = {a for a in els if mask >> a & 1}
        if alg.top not in members or 0 in members:
            continue
        if not all(b in members for a in members for b in els if a & b == a):
            continue
        if not all(a & b in members for a in members for b in members):
            continue
        if not all((a in members) != (alg.neg(a) in members) for a in els):
            continue
        out.append(frozenset(members))
    return out


def test_make_algebra_small_carriers():
    a1 = make_algebra(1)
    assert list(a1.elements()) == [0, 1]
    a2 = make_algebra(2)
    assert list(a2.elements()) == [0, 1, 2, 3]
    assert a2.neg(1) == 2


def test_make_algebra_rejects_degenerate_and_oversized():
    with pytest.raises(SizeCapError):
        make_algebra(0)
    with pytest.raises(SizeCapError):
        make_algebra(7)
    with pytest.raises(ValueError):
        make_algebra(2, names=["x", "x"])


def test_bool_eval_examples(alg2):
    assert bool_eval(alg2, "meet", (1, 2)) == 0
    assert bool_eval(alg2, "implies", (3, 1)) == 1
    assert all(bool_eval(alg2, "leq", (0, x)) for x in alg2.elements())
    with pytest.raises(ValueError):
        bool_eval(alg2, "neg", (1, 2))
    with pytest.raises(ValueError):
        bool_eval(alg2, "nand", (1, 2))
    with pytest.raises(ValueError):
        bool_eval(alg2, "join", (1, 9))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_boolean_identities_exhaustive(k):
    alg = make_algebra(k)
    els = list(alg.elements())
    for a in els:
        assert alg.join(a, alg.neg(a)) == alg.top
        assert alg.meet(a, alg.neg(a)) == 0
        for b in els:
            assert alg.neg(alg.join(a, b)) == alg.meet(alg.neg(a), alg.neg(b))
            assert alg.neg(alg.meet(a, b)) == alg.join(alg.neg(a), alg.neg(b))
            for c in els:
                assert alg.join(a, alg.join(b, c)) == alg.join(alg.join(a, b), c)
                assert alg.meet(a, alg.join(b, c)) == alg.join(
                    alg.meet(a, b), alg.meet(a, c)
                )
                assert alg.join(a, alg.meet(b, c)) == alg.meet(
                    alg.join(a, b), alg.join(a, c)
                )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ultrafilters_are_principal_filters_of_atoms(k):
    alg = make_algebra(k)
    oracle = brute_ultrafilters(alg)
    from_atoms = [frozenset(Filter(alg, at).members()) for at in alg.atoms()]
    assert sorted(oracle) == sorted(from_atoms)


def test_beta_trivial_cases(alg2):
    assert beta(alg2, 0) == frozenset()
    assert beta(alg2, alg2.top) == frozenset(alg2.atoms())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beta_matches_ultrafilter_membership(k):
    # derived: an ultrafilter contains a iff its atom lies below a
    alg = make_algebra(k)
    for a in alg.elements():
        expected = frozenset(
            at for at in alg.atoms() if a in Filter(alg, at).members()
        )
        assert beta(alg, a) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_beta_is_boolean_isomorphism(k):
    alg = make_algebra(k)
    all_atoms = frozenset(alg.atoms())
    for a in alg.elements():
        assert beta(alg, alg.neg(a)) == all_atoms - beta(alg, a)
        for b in alg.elements():
            assert beta(alg, a | b) == beta(alg, a) | beta(alg, b)
            assert beta(alg, a & b) == beta(alg, a) & beta(alg, b)


def test_filter_closedset_trivial_cases(alg2):
    whole = Filter(alg2, alg2.top)  # the trivial filter {1}
    assert filter_to_closedset(whole) == frozenset(alg2.atoms())
    improper = closedset_to_filter(alg2, frozenset())
    assert improper.generator == 0
    assert sorted(improper.members()) == list(alg2.elements())


def test_filter_closedset_k2_example(alg2):
    f = closedset_to_filter(alg2, frozenset({1}))
    assert f.generator == 1
    assert sorted(f.members()) == [1, 3]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_filter_closedset_maps_inverse_and_antitone(k):
    alg = make_algebra(k)
    filters = [Filter(alg, g) for g in alg.elements()]
    subsets = []
    for mask in range(1 << alg.atom_count):
        subsets.append(frozenset(at for i, at in enumerate(alg.atoms()) if mask >> i & 1))
    for f in filters:
        assert closedset_to_filter(alg, filter_to_closedset(f)).generator == f.generator
    for y in subsets:
        assert filter_to_closedset(closedset_to_filter(alg, y)) == y
    for f in filters:
        for g in filters:
            smaller = set(f.members()) <= set(g.members())
            reversed_ = filter_to_closedset(g) <= filter_to_closedset(f)
            assert smaller == reversed_


def test_filter_closedset_dispatch(alg2):
    f = Filter(alg2, 1)
    y = filter_to_closedset(f)
    assert y == frozenset({1})
    assert closedset_to_filter(alg2, y).generator == 1


@pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 6)])
def test_automorphism_counts(k, count):
    assert len(automorphisms(make_algebra(k))) == count


def test_automorphisms_preserve_structure(alg3):
    for perm in automorphisms(alg3):
        for a in alg3.elements():
            pa = apply_automorphism(alg3, perm, a)
            assert apply_automorphism(alg3, perm, alg3.neg(a)) == alg3.neg(pa)
            for b in alg3.elements():
                pb = apply_automorphism(alg3, perm, b)
                assert apply_automorphism(alg3, perm, a | b) == pa | pb


def test_algebra_json_round_trip(alg2):
    data = json.loads(json.dumps(alg2.to_json()))
    back = algebra_from_json(data)
    assert back == alg2


def test_size_and_top_are_kept_outside_the_fields():
    """size and top are computed once per algebra and kept on the
    instance, where repr, equality, hashing, to_json and the record's
    fields do not see them."""
    read, fresh = make_algebra(3), make_algebra(3)
    assert (read.size, read.top) == (8, 7)
    assert repr(read) == repr(fresh) == "FiniteBooleanAlgebra(atom_count=3, atom_names=('a0', 'a1', 'a2'))"
    assert read == fresh and hash(read) == hash(fresh)
    assert read.to_json() == fresh.to_json() == {"atoms": 3, "names": ["a0", "a1", "a2"]}
    assert list(read._fields) == ["atom_count", "atom_names"]
    assert {name: getattr(read, name) for name in read._fields} == {"atom_count": 3, "atom_names": ("a0", "a1", "a2")}
    for k in range(1, 7):
        alg = make_algebra(k)
        assert (alg.size, alg.top) == (2 ** k, 2 ** k - 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.top = 3


def _closure_at(entries, e, chosen, join):
    """Entry e of the subset-OR (join=True) or superset-AND transform of
    the table of the given entries, from the definition: the OR of the
    entries whose offsets lie below e in the chosen offset bits and agree
    elsewhere, or the AND of those lying above."""
    fixed, inside = e & ~chosen, e & chosen
    free = inside if join else chosen & ~inside
    out = 0 if join else ~0
    s = free
    while True:  # every submask s of free
        value = entries[fixed | (s if join else inside | s)]
        out = out | value if join else out & value
        if not s:
            return out
        s = s - 1 & free


def _entry_list(x, n, lane):
    if lane == 3:
        return list(x.to_bytes(n, "little"))
    return [int(d) for d in format(x, f"0{n}b")[::-1]]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("lane", [0, 3])
def test_closure_transforms_match_per_entry_definitions(k, lane):
    """_up and _down on seeded ints, at bit and byte lanes, along every
    offset bit, the a and b bits, and a random set of bits, checked at
    every entry through three atoms and at 64 seeded entries above."""
    rng = random.Random(k << 2 | lane)
    width, n = 1 << lane, 8 ** k
    offsets = range(n) if k <= 3 else [rng.randrange(n) for _ in range(64)]
    for bits in (range(3 * k), range(k, 3 * k), sorted(rng.sample(range(3 * k), k))):
        chosen = sum(1 << j for j in bits)
        sparse = rng.getrandbits(n * width) & rng.getrandbits(n * width)
        dense = rng.getrandbits(n * width) | rng.getrandbits(n * width)
        up = _entry_list(_up(sparse, k, bits, lane), n, lane)
        down = _entry_list(_down(dense, k, bits, lane), n, lane)
        sparse, dense = _entry_list(sparse, n, lane), _entry_list(dense, n, lane)
        for e in offsets:
            assert up[e] == _closure_at(sparse, e, chosen, True), (bits, e)
            assert down[e] == _closure_at(dense, e, chosen, False), (bits, e)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("lane", [0, 3])
def test_offset_permutation_matches_per_entry_moves(k, lane):
    """_permute_offsets on a seeded int, at bit and byte lanes, for every
    atom permutation (bit i of each field to bit perm[i]) and the (a, b)
    transpose, against moving each entry to its image offset one by one."""
    rng = random.Random(k << 2 | lane)
    width, n, size = 1 << lane, 8 ** k, 1 << k
    x = rng.getrandbits(n * width)
    entries = _entry_list(x, n, lane)
    for perm in itertools.permutations(range(k)):
        img = [sum(1 << perm[i] for i in range(k) if v >> i & 1) for v in range(size)]
        moves = tuple(field + perm[i] for field in (0, k, 2 * k) for i in range(k))
        want = [0] * n
        for a, b, c in itertools.product(range(size), repeat=3):
            want[(img[a] * size + img[b]) * size + img[c]] = entries[(a * size + b) * size + c]
        assert _entry_list(_permute_offsets(x, k, moves, lane), n, lane) == want, perm
    swapped = [entries[(b * size + a) * size + c] for a, b, c in itertools.product(range(size), repeat=3)]
    assert _entry_list(_transpose(x, k, lane), n, lane) == swapped


@pytest.mark.parametrize("k", range(1, 7))
def test_codec_round_trip(k):
    """_entries writes a bitset as one byte per bit, _bits reads it back,
    and _table_of_rows lays bitsets out as the bits of one byte table.
    The lane codec, against per-row shifts and a per-bit loop: _pack and
    _unpack at widths below 8, of 8 and multiples of 8 (size, size^2 and
    size^3 through three atoms, 8**n at n = 0-2, and 64), at 0, 1 and
    more rows, some of them zero; _repeat, _zero_rows, _set_bits and
    _set_offsets, and the base64 form, which refuses a character outside
    its alphabet and a byte count other than (n + 7) // 8 for n bits."""
    rng = random.Random(k)
    n = 8 ** k
    bits = rng.getrandbits(n)
    set_bits = [byte >> j & 1 for byte in bits.to_bytes(n // 8, "little") for j in range(8)]
    for values in ((0, 1), (0, 255), (7, 0), (3, 12)):
        raw = _entries(bits, n, bytes(values))
        assert raw == bytes(values[b] for b in set_bits)
        mask = values[0] ^ values[1]
        assert _bits(raw, mask, values[1] & mask) == bits
    rows = [rng.getrandbits(n) for _ in range(k)]
    table = _table_of_rows(k, rows)
    row_bits = [[byte >> j & 1 for byte in r.to_bytes(n // 8, "little") for j in range(8)] for r in rows]
    assert table == bytes(sum(bits[i] << x for x, bits in enumerate(row_bits)) for i in range(n))
    assert [_bits(table, 1 << x, 1 << x) for x in range(k)] == rows

    widths = {1, 8, 64} | ({1 << k, 4 ** k, 8 ** k} if k <= 3 else set())
    for width in sorted(widths):
        for count in (0, 1, 2, 7):
            # every third row zero, and the last of two or more
            rows = [0 if i % 3 == 2 or i == count - 1 > 0 else rng.getrandbits(width) for i in range(count)]
            x = _pack(rows, width)
            assert x == sum(r << i * width for i, r in enumerate(rows)), (width, count)
            assert _unpack(x, width, range(count)) == rows
            assert _unpack(x, width, range(count - 1, -1, -2)) == rows[::-2]
            assert _unpack(x, width, [count, count + 3]) == [0, 0]  # above the last row
            row = rng.getrandbits(width)
            assert _repeat(row, width, count) == _pack([row] * count, width)
            if width >= 8:
                assert _zero_rows(x, width, count) == bytes(r == 0 for r in rows)
    for x in (0, 1, 1 << n // 2, bits, bits & rng.getrandbits(n) & rng.getrandbits(n), 1 << n - 1 | 1):
        positions = [i for i, digit in enumerate(reversed(format(x, "b"))) if digit == "1"]  # per bit
        assert _set_bits(x) == positions
        s = 1 << k
        assert list(_set_offsets(x, s)) == [(i // s // s, i // s % s, i % s) for i in positions]
        assert _from_base64(_to_base64(x, n), n) == x
    assert _to_base64(bits, n) == base64.b64encode(bits.to_bytes(n // 8, "little")).decode()
    assert _from_base64("", 0) == 0 and _from_base64("AQ==", 3) == 1
    # outside the alphabet, bad padding, and byte counts other than (n + 7) // 8
    for bad, width in (("!!", 8), ("AA!=", 8), ("AAE", 8), ("AAA=", 8), ("", 8), ("AA==", 64), ("AA==", 0)):
        with pytest.raises(ValueError):
            _from_base64(bad, width)
