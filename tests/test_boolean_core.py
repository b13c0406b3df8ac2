import dataclasses
import json

import pytest

from psiforge import (
    Filter,
    SizeCapError,
    automorphisms,
    beta,
    bool_eval,
    closedset_to_filter,
    filter_closedset_maps,
    filter_to_closedset,
    make_algebra,
)
from psiforge.boolean_core import algebra_from_json, apply_automorphism


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
    y = filter_closedset_maps(alg2, f)
    assert y == frozenset({1})
    assert filter_closedset_maps(alg2, y).generator == 1


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
    instance, where repr, equality, hashing, to_json and the dataclass
    fields do not see them."""
    read, fresh = make_algebra(3), make_algebra(3)
    assert (read.size, read.top) == (8, 7)
    assert repr(read) == repr(fresh) == "FiniteBooleanAlgebra(atom_count=3, atom_names=('a0', 'a1', 'a2'))"
    assert read == fresh and hash(read) == hash(fresh)
    assert read.to_json() == fresh.to_json() == {"atoms": 3, "names": ["a0", "a1", "a2"]}
    assert [f.name for f in dataclasses.fields(read)] == ["atom_count", "atom_names"]
    assert dataclasses.asdict(read) == {"atom_count": 3, "atom_names": ("a0", "a1", "a2")}
    for k in range(1, 7):
        alg = make_algebra(k)
        assert (alg.size, alg.top) == (2 ** k, 2 ** k - 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.top = 3
