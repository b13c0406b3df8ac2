import random
from collections import Counter

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
from psiforge.enumeration import canonical_relation_bits
from psiforge.topo_models import (
    FINITE_SPACE_POINTS,
    FiniteTopology,
    finite_spaces,
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


def test_point_sets_match_labels_by_type():
    # make_topology and mask_of share one lookup: true and 1.0 are not the point 1
    top = sierpinski()
    with pytest.raises(ValueError):
        interior_closure(top, {True})
    with pytest.raises(ValueError):
        top.mask_of([1.0])
    assert top.mask_of([2, 1]) == 3


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


def test_finite_spaces_all_give_ecas():
    for top in finite_spaces():
        _, rel = eca_from_topology(top)
        assert check_eca(rel).passed
        assert check_extca(rel).passed


def _every_topology(n):
    """Oracle: every family of point sets on n points that holds the empty
    set and the whole space and is closed under union and intersection."""
    full = (1 << n) - 1
    middle = range(1, full)
    for pick in range(1 << len(middle)):
        opens = {0, full, *(m for i, m in enumerate(middle) if pick >> i & 1)}
        if all(x | y in opens and x & y in opens for x in opens for y in opens):
            yield FiniteTopology(tuple(range(n)), frozenset(opens))


def _orbits(spaces):
    """The canonical (atom count, relation) of each space's ECA."""
    orbits = set()
    for top in spaces:
        rca, rel = eca_from_topology(top)
        orbits.add((rca.alg.atom_count, canonical_relation_bits(rca.alg, rel.bits)))
    return orbits


def test_finite_spaces_realise_every_topological_orbit():
    """Every topology on at most four points (1 + 4 + 29 + 355, listed
    by brute force) realises exactly the ECA orbits of finite_spaces(): 1,
    2, 3 and 1 at 1-4 atoms, 7 in all.  Each of the 50 spaces is T0, its
    specialisation order extends the label order, and its opens are the
    up-sets of that order."""
    every = [top for n in range(1, FINITE_SPACE_POINTS + 1) for top in _every_topology(n)]
    assert Counter(top.n for top in every) == {1: 1, 2: 4, 3: 29, 4: 355}
    spaces = finite_spaces()
    assert Counter(top.n for top in spaces) == {1: 1, 2: 2, 3: 7, 4: 40}
    assert len({(top.n, top.opens) for top in spaces}) == len(spaces)
    orbits = _orbits(spaces)
    assert orbits == _orbits(every)
    assert Counter(k for k, _ in orbits) == {1: 1, 2: 2, 3: 3, 4: 1}
    for top in spaces:
        # up[p]: the least open holding p, the points above p
        up = [min((o for o in top.opens if o >> p & 1), key=int.bit_count) for p in range(top.n)]
        assert len(set(up)) == top.n  # T0: distinct points have distinct neighbourhoods
        assert all(q >= p for p in range(top.n) for q in range(top.n) if up[p] >> q & 1)
        up_sets = {m for m in range(top.full + 1) if all(up[p] | m == m for p in range(top.n) if m >> p & 1)}
        assert top.opens == up_sets


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
    rng = random.Random(0x70B0)
    spaces = list(finite_spaces())  # the discrete spaces on 1-4 points among them
    for _ in range(200):
        n = rng.randint(1, 4)
        basis = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 6))]
        spaces.append(make_topology(range(n), basis))
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
