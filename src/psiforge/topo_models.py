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

from functools import lru_cache

from .boolean_core import FiniteBooleanAlgebra, _pack, _set_bits, json_int, make_algebra
from .contact_relation import TernaryRelation, check_eca, is_eca
from .errors import InternalCheckError, SizeCapError
from .report import Record, run_memo

# The regular-closed sets are found by a sweep over all 2^n point sets,
# each tested against every open set, so a space above this many points is
# refused before that work.
TOPO_MAX_POINTS = 8


def _check_point_count(n: int) -> None:
    if n > TOPO_MAX_POINTS:
        raise SizeCapError(f"topology has {n} points, above the cap of {TOPO_MAX_POINTS}")


class FiniteTopology(Record):
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
        return _mask_of(self.points, subset, "point set")

    def set_of(self, mask: int) -> frozenset:
        return frozenset(self.points[i] for i in _set_bits(mask))

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


def _mask_of(points: tuple, subset, what: str) -> int:
    """The bitmask of subset over points.  Each member names the point
    label of its own type: true and 1.0 are not the point 1."""
    idx = {(type(p), p): i for i, p in enumerate(points)}
    m = 0
    for p in subset:
        if (type(p), p) not in idx:
            raise ValueError(f"{what} {subset!r} holds {p!r}, not a point label of its type")
        m |= 1 << idx[type(p), p]
    return m


def make_topology(points, basis) -> FiniteTopology:
    """The opens generated by the basis: every join of meets of basis sets,
    the empty join and meet giving the empty set and the whole space.  By
    distributivity this family is closed under union and intersection.
    A basis member names the point label of its own type (see _mask_of)."""
    pts = tuple(sorted(set(points)))
    if not pts:
        raise ValueError("a topology needs at least one point")
    _check_point_count(len(pts))
    meets = {(1 << len(pts)) - 1}
    for subset in basis:
        m = _mask_of(pts, subset, "basis set")
        meets |= {x & m for x in meets}
    opens = {0}
    for m in meets:
        opens |= {x | m for x in opens}
    return FiniteTopology(pts, frozenset(opens))


_LISTS = (list, tuple, range)


def topology_from_json(data: dict) -> FiniteTopology:
    points = data["points"]
    if isinstance(points, int):
        _check_point_count(json_int(points, "points"))
        points = range(points)
    if "basis" in data and "opens" in data:
        raise ValueError("topology gives both basis and opens; give one form")
    field = "opens" if "opens" in data else "basis"
    basis = data.get(field, [])
    # a string is refused whole, not read as the list of its characters,
    # and repeated labels (1 and true among them) are refused, not merged
    if not isinstance(points, _LISTS):
        raise ValueError(f"points must be a list of labels or a count, got {points!r}")
    if not isinstance(basis, _LISTS):
        raise ValueError(f"{field} must be a list of point sets, got {basis!r}")
    if bad := [s for s in basis if not isinstance(s, _LISTS)]:
        raise ValueError(f"{field} holds {bad[0]!r}, not a list of point labels")
    # a label is a JSON scalar: a list or object would reach the label
    # lookups as an unhashable key
    for where, labels in (("points", points), *((f"{field} set", s) for s in basis)):
        for p in labels:
            if isinstance(p, (list, dict)):
                raise ValueError(f"{where} {labels!r} holds {p!r}, not a point label")
    if len(set(points)) != len(points):
        raise ValueError("point labels must be distinct")
    return make_topology(points, basis)


def interior_closure(top: FiniteTopology, subset) -> tuple[frozenset, frozenset]:
    """(Int(A), Cl(A)) as point sets."""
    m = top.mask_of(subset)
    return top.set_of(top.interior(m)), top.set_of(top.closure(m))


class RegularClosedAlgebra(Record):
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


@run_memo
def eca_from_topology(top: FiniteTopology) -> tuple[RegularClosedAlgebra, TernaryRelation]:
    """Transport (A,B) |- C iff A intersect B is a subset of C onto the
    powerset carrier; the result always passes check_eca."""
    rca = regular_closed_algebra(top)
    masks = rca.element_masks
    # the (a, b) row holds the c whose mask contains masks[a] & masks[b],
    # found once per distinct intersection
    meets = [x & y for x in masks for y in masks]
    above = {m: sum(1 << c for c, mc in enumerate(masks) if m & mc == m) for m in set(meets)}
    rel = TernaryRelation(rca.alg, _pack([above[m] for m in meets], len(masks)))
    if not is_eca(rel):
        check_eca(rel).require(InternalCheckError, "the topological relation is not EC")
    return rca, rel


def three_point_space() -> FiniteTopology:
    """X = {1,2,3} with basis {1}, {3}: its regular closed algebra has the
    two atoms {1,2} and {2,3}, whose lattice meet is empty even though the
    sets overlap in the point 2."""
    return make_topology([1, 2, 3], [[1], [3]])


FINITE_SPACE_POINTS = 4


@lru_cache(maxsize=None)
def finite_spaces() -> tuple[FiniteTopology, ...]:
    """Every finite space of at most FINITE_SPACE_POINTS points, up to
    homeomorphism and T0 quotient: the posets on 0..n-1 whose order extends
    the label order, with the up-sets as their opens (1, 2, 7 and 40 at 1-4
    points, 50 in all).  The opens of a space and of its T0 quotient
    correspond, and so do its regular-closed algebra and relation; a finite
    T0 space is a poset with its up-sets as opens; and every finite poset is
    relabelled into this list along a linear extension.  Built once per
    process."""
    # an order is the down-set mask of each point, the point included; the
    # new point sits above a down-set of the points before it
    orders, spaces = [()], []
    for n in range(1, FINITE_SPACE_POINTS + 1):
        orders = [(*order, down | 1 << len(order)) for order in orders for down in range(1 << len(order))
                  if all(order[p] | down == down for p in _set_bits(down))]
        for order in orders:
            # the opens are generated by the up-set of each point
            spaces.append(make_topology(range(n), [[p for p in range(n) if order[p] >> q & 1] for q in range(n)]))
    return tuple(spaces)
