"""Finite topological spaces, regular-closed algebras, and the canonical
topological entailment (A, B) |- C iff A meet-as-sets B is included in C.

Point sets are stored as bitmasks over an ordered tuple of point labels.
The regular-closed sets of a finite space always form a finite Boolean
algebra (join = union, meet = closure of the interior of the intersection,
complement = closure of the set complement), which is transported onto a
powerset algebra via its atoms so that every relation checker applies
unchanged.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .boolean_core import FiniteBooleanAlgebra, json_int, make_algebra
from .contact_relation import TernaryRelation, _bits_of_rows, check_eca, is_eca
from .errors import InternalCheckError, SizeCapError
from .ternary_operator import DEFAULT_SEED

# The regular-closed sets are found by a sweep over all 2^n point sets,
# each tested against every open set, so a space above this many points is
# refused before that work.
TOPO_MAX_POINTS = 8


def _check_point_count(n: int) -> None:
    if n > TOPO_MAX_POINTS:
        raise SizeCapError(f"topology has {n} points, above the cap of {TOPO_MAX_POINTS}")


@dataclass(frozen=True)
class FiniteTopology:
    """A finite space: point labels plus the open-set family as bitmasks."""

    points: tuple
    opens: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, subset) -> int:
        idx = {p: i for i, p in enumerate(self.points)}
        m = 0
        for p in subset:
            if p not in idx:
                raise ValueError(f"point {p!r} not in space")
            m |= 1 << idx[p]
        return m

    def set_of(self, mask: int) -> frozenset:
        return frozenset(p for i, p in enumerate(self.points) if mask >> i & 1)

    def interior(self, mask: int) -> int:
        out = 0
        for o in self.opens:
            if o & mask == o:
                out |= o
        return out

    def closure(self, mask: int) -> int:
        return self.full ^ self.interior(self.full ^ mask)

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "opens": sorted(sorted(self.set_of(o)) for o in self.opens),
        }


def make_topology(points, basis) -> FiniteTopology:
    """Close the basis together with the empty set and the whole space
    under binary union and intersection."""
    pts = tuple(sorted(set(points)))
    if not pts:
        raise ValueError("a topology needs at least one point")
    _check_point_count(len(pts))
    full = (1 << len(pts)) - 1
    idx = {p: i for i, p in enumerate(pts)}
    masks = {0, full}
    for subset in basis:
        m = 0
        for p in subset:
            if p not in idx:
                raise ValueError(f"basis member contains {p!r}, not a point")
            m |= 1 << idx[p]
        masks.add(m)
    changed = True
    while changed:
        changed = False
        current = list(masks)
        for i, x in enumerate(current):
            for y in current[i + 1:]:
                for z in (x | y, x & y):
                    if z not in masks:
                        masks.add(z)
                        changed = True
    return FiniteTopology(pts, frozenset(masks))


def topology_from_json(data: dict) -> FiniteTopology:
    points = data["points"]
    if isinstance(points, int):
        _check_point_count(json_int(points, "points"))
        points = range(points)
    return make_topology(points, data.get("basis", data.get("opens", [])))


def interior_closure(top: FiniteTopology, subset) -> tuple[frozenset, frozenset]:
    """(Int(A), Cl(A)) as point sets."""
    m = top.mask_of(subset)
    return top.set_of(top.interior(m)), top.set_of(top.closure(m))


@dataclass(frozen=True)
class RegularClosedAlgebra:
    """The Boolean algebra of regular closed sets, with its powerset carrier.

    element_masks[i] is the point mask of the regular closed set encoded by
    carrier element i of ``alg``; index 0 is the empty set and the last
    index is the whole space.
    """

    topology: FiniteTopology
    alg: FiniteBooleanAlgebra
    element_masks: tuple[int, ...]

    def element_for(self, point_mask: int) -> int:
        return self.element_masks.index(point_mask)

    def sets(self) -> list[frozenset]:
        return [self.topology.set_of(m) for m in self.element_masks]


def regular_closed_algebra(top: FiniteTopology) -> RegularClosedAlgebra:
    """Enumerate the fixed points of Cl(Int(.)) and build the Boolean structure.

    The carrier is transported to the powerset algebra on the atoms of the
    regular-closed lattice; every Boolean identity is verified exhaustively
    and a failure raises InternalCheckError since it can only mean an
    interior/closure bug.
    """
    # one interior per point set; closure and the lattice meet are lookups
    full = top.full
    inner = [top.interior(m) for m in range(full + 1)]
    closure = [full ^ i for i in reversed(inner)]
    rc = [m for m, i in enumerate(inner) if closure[i] == m]
    rc_set = set(rc)
    nonzero = [m for m in rc if m]
    atoms = [m for m in nonzero if not any(x & m == x for x in nonzero if x != m)]
    k = len(atoms)
    # refused above the atom cap before the |rc|^2 closure check below
    alg = make_algebra(k)

    def rc_meet(x: int, y: int) -> int:
        return closure[inner[x & y]]

    def rc_neg(x: int) -> int:
        return closure[full ^ x]

    for x in rc:
        for y in rc:
            if x | y not in rc_set or rc_meet(x, y) not in rc_set:
                raise InternalCheckError("regular closed family not closed under operations")
    if len(rc) != 1 << k:
        raise InternalCheckError("regular closed lattice is not a powerset of its atoms")

    # carrier element i -> union of the atoms in its mask
    element_masks = [0]
    for atom in atoms:
        element_masks += [m | atom for m in element_masks]
    if sorted(element_masks) != rc:
        raise InternalCheckError("atom decomposition does not cover the lattice")

    rca = RegularClosedAlgebra(top, alg, tuple(element_masks))
    _verify_boolean(rca, rc_meet, rc_neg)
    return rca


def _verify_boolean(rca: RegularClosedAlgebra, rc_meet, rc_neg) -> None:
    alg = rca.alg
    masks = rca.element_masks
    for a in alg.elements():
        for b in alg.elements():
            if masks[a | b] != masks[a] | masks[b]:
                raise InternalCheckError("join is not set union under the atom iso")
            if masks[a & b] != rc_meet(masks[a], masks[b]):
                raise InternalCheckError("meet mismatch under the atom iso")
        if masks[alg.neg(a)] != rc_neg(masks[a]):
            raise InternalCheckError("complement mismatch under the atom iso")


def eca_from_topology(top: FiniteTopology) -> tuple[RegularClosedAlgebra, TernaryRelation]:
    """Transport (A,B) |- C iff A intersect B is a subset of C onto the
    powerset carrier; the result always passes check_eca."""
    rca = regular_closed_algebra(top)
    masks = rca.element_masks
    # the (a, b) row holds the c whose mask contains masks[a] & masks[b],
    # found once per distinct intersection
    meets = [x & y for x in masks for y in masks]
    above = {m: sum(1 << c for c, mc in enumerate(masks) if m & mc == m) for m in set(meets)}
    rel = TernaryRelation(rca.alg, _bits_of_rows([above[m] for m in meets], len(masks)))
    if not is_eca(rel):
        bad = check_eca(rel).failures()[0]
        raise InternalCheckError(
            f"topological relation fails {bad.axiom} at {bad.witness}"
        )
    return rca, rel


def three_point_space() -> FiniteTopology:
    """X = {1,2,3} with basis {1}, {3}: its regular closed algebra has the
    two atoms {1,2} and {2,3}, whose lattice meet is empty even though the
    sets overlap in the point 2."""
    return make_topology([1, 2, 3], [[1], [3]])


def random_topology(rng: random.Random, max_points: int = 4, max_basis: int = 6) -> FiniteTopology:
    """Seeded random space: up to max_points points, up to max_basis basis sets."""
    n = rng.randint(1, max_points)
    points = list(range(n))
    basis = []
    for _ in range(rng.randint(0, max_basis)):
        basis.append([p for p in points if rng.random() < 0.5])
    return make_topology(points, basis)


def random_topologies(count: int, seed: int = DEFAULT_SEED, max_points: int = 4) -> list[FiniteTopology]:
    rng = random.Random(seed)
    return [random_topology(rng, max_points=max_points) for _ in range(count)]
