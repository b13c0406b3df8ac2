import random

import pytest

from psiforge import (
    InternalCheckError,
    check_eca,
    check_extca,
    eca_from_topology,
    interior_closure,
    largest_eca,
    make_topology,
    regular_closed_algebra,
)
from psiforge.topo_models import (
    random_topologies,
    three_point_space,
    topology_from_json,
)


def brute_interior(opens_sets, points, a):
    """Oracle on plain frozensets."""
    out = frozenset()
    for o in opens_sets:
        if o <= a:
            out |= o
    return out


def sierpinski():
    return make_topology([1, 2], [[1]])


def test_make_topology_sierpinski():
    top = sierpinski()
    opens = {top.set_of(o) for o in top.opens}
    assert opens == {frozenset(), frozenset({1}), frozenset({1, 2})}


def test_make_topology_three_point():
    top = three_point_space()
    opens = {top.set_of(o) for o in top.opens}
    assert opens == {
        frozenset(),
        frozenset({1}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({1, 2, 3}),
    }


def test_make_topology_indiscrete_and_errors():
    top = make_topology([1, 2, 3], [])
    assert len(top.opens) == 2
    with pytest.raises(ValueError):
        make_topology([1, 2], [[5]])
    with pytest.raises(ValueError):
        make_topology([], [])


def _fixpoint_opens(n, basis_masks):
    """Oracle: the basis with the empty set and the whole space, closed
    under pairwise union and intersection until nothing new appears."""
    opens = {0, (1 << n) - 1, *basis_masks}
    while True:
        more = {op(x, y) for x in opens for y in opens for op in (int.__or__, int.__and__)}
        if more <= opens:
            return opens
        opens |= more


def test_make_topology_matches_fixpoint_closure():
    rng = random.Random(0x70B0)
    for _ in range(400):
        n = rng.randint(1, 8)
        basis = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 6))]
        masks = [sum(1 << p for p in subset) for subset in basis]
        assert make_topology(range(n), basis).opens == _fixpoint_opens(n, masks)


def test_interior_closure_examples():
    top = sierpinski()
    assert interior_closure(top, {1}) == (frozenset({1}), frozenset({1, 2}))
    t3 = three_point_space()
    assert interior_closure(t3, {3})[1] == frozenset({2, 3})
    assert interior_closure(t3, {1, 2, 3})[0] == frozenset({1, 2, 3})
    assert interior_closure(t3, set()) == (frozenset(), frozenset())


def test_interior_matches_oracle():
    top = three_point_space()
    opens_sets = [top.set_of(o) for o in top.opens]
    points = set(top.points)
    for mask in range(top.full + 1):
        a = top.set_of(mask)
        assert interior_closure(top, a)[0] == brute_interior(opens_sets, points, a)


def test_regular_closed_sierpinski():
    rca = regular_closed_algebra(sierpinski())
    assert rca.alg.atom_count == 1
    assert [sorted(s) for s in rca.sets()] == [[], [1, 2]]


def test_regular_closed_three_point():
    rca = regular_closed_algebra(three_point_space())
    assert rca.alg.atom_count == 2
    assert [sorted(s) for s in rca.sets()] == [[], [1, 2], [2, 3], [1, 2, 3]]
    i12 = rca.element_for(rca.topology.mask_of([1, 2]))
    i23 = rca.element_for(rca.topology.mask_of([2, 3]))
    assert i12 & i23 == 0  # lattice meet Cl Int ({2}) is empty


def test_regular_closed_matches_definition_oracle():
    top = three_point_space()
    fixed = []
    for mask in range(top.full + 1):
        interior, _ = interior_closure(top, top.set_of(mask))
        _, closure = interior_closure(top, interior)
        if closure == top.set_of(mask):
            fixed.append(top.set_of(mask))
    assert sorted(map(sorted, fixed)) == sorted(map(sorted, regular_closed_algebra(top).sets()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_discrete_space_gives_powerset(n):
    top = make_topology(range(n), [[p] for p in range(n)])
    rca = regular_closed_algebra(top)
    assert rca.alg.atom_count == n
    assert len(rca.sets()) == 1 << n


def test_discrete_entailment_is_largest(alg2):
    top = make_topology([0, 1], [[0], [1]])
    rca, rel = eca_from_topology(top)
    assert rel.bits == largest_eca(rca.alg).bits


def test_three_point_entailment_witness():
    rca, rel = eca_from_topology(three_point_space())
    i12 = rca.element_for(rca.topology.mask_of([1, 2]))
    i23 = rca.element_for(rca.topology.mask_of([2, 3]))
    # point-set intersection {2} lies inside {2,3} even though the lattice
    # meet of the two regions is empty
    assert rel.holds(i12, i23, i23)
    assert not rel.holds(i12, i23, 0)
    assert rel.bits != largest_eca(rca.alg).bits


def test_random_topologies_all_give_ecas():
    for top in random_topologies(100, seed=0xEC0):
        _, rel = eca_from_topology(top)
        assert check_eca(rel).passed
        assert check_extca(rel).passed


def test_random_topologies_deterministic():
    a = [t.to_json() for t in random_topologies(10, seed=42)]
    b = [t.to_json() for t in random_topologies(10, seed=42)]
    assert a == b


def test_topology_json():
    top = three_point_space()
    back = topology_from_json({"points": top.points, "basis": [[1], [3]]})
    assert back.opens == top.opens
    counted = topology_from_json({"points": 2, "basis": [[0]]})
    assert counted.n == 2


def test_oversized_spaces_refused_before_the_sweep():
    from psiforge import SizeCapError

    with pytest.raises(SizeCapError, match="9 points"):
        make_topology(range(9), [])
    with pytest.raises(SizeCapError, match="above the cap of 8"):
        topology_from_json({"points": 10 ** 12})
    with pytest.raises(ValueError, match="must be an integer"):
        topology_from_json({"points": True})
    # eight points are allowed; a discrete space on them has 8
    # regular-closed atoms, refused by the algebra cap
    with pytest.raises(SizeCapError, match="atom count 8"):
        regular_closed_algebra(make_topology(range(8), [[p] for p in range(8)]))


def _by_definition(top):
    """The element masks and the relation bits by definition: Cl(Int(m))
    tested per point set, and the relation set bit by bit."""
    rc = sorted(m for m in range(top.full + 1) if top.closure(top.interior(m)) == m)
    nonzero = [m for m in rc if m]
    atoms = [m for m in nonzero if not any(x & m == x for x in nonzero if x != m)]
    masks = []
    for i in range(1 << len(atoms)):
        m = 0
        for bit, atom in enumerate(atoms):
            if i >> bit & 1:
                m |= atom
        masks.append(m)
    size = len(masks)
    bits = 0
    for a in range(size):
        for b in range(size):
            inter = masks[a] & masks[b]
            for c in range(size):
                if inter & masks[c] == inter:
                    bits |= 1 << ((a * size + b) * size + c)
    return tuple(masks), bits


def test_tables_equal_the_definition():
    spaces = random_topologies(200, seed=0x70B0)
    spaces += [make_topology(range(n), [[p] for p in range(n)]) for n in range(1, 5)]
    sizes = set()
    for top in spaces:
        masks, bits = _by_definition(top)
        assert regular_closed_algebra(top).element_masks == masks
        rca, rel = eca_from_topology(top)
        assert (rca.alg.size, rca.element_masks, rel.bits) == (len(masks), masks, bits)
        sizes.add(len(masks))
    assert sizes == {2, 4, 8, 16}


def test_a_failing_relation_names_its_axiom(monkeypatch):
    """The self-check decides is_eca and names the failing axiom and
    witness from check_eca."""
    import psiforge.topo_models as T

    monkeypatch.setattr(T, "_pack", lambda rows, width: 0)
    with pytest.raises(InternalCheckError, match=r"the topological relation is not EC; EC2 fails at \(0, 0, 0\)"):
        eca_from_topology(three_point_space())
