"""Closed and modal filters, the congruence/filter correspondence, and the
simplicity, subdirect-irreducibility and variety-level spot checks.

A filter F is closed when dia(x1,x2,x3) -> dia(y1,y2,y3) lands in F
whenever every xi -> yi does; closed filters correspond one-to-one to
congruences compatible with the operator.  F is modal when it is closed
under mu.  Closedness is decided on every operator by one whole-table
test against the meets of dia above each triple (filter_is_closed).
Modality, the (Su)/(Mid) reduction and the generator-only modality
shortcut are stated as sentences in _FILTER_LAWS, in the row format of
module terms, and swept by report.swept with the generator bound as a
one-letter prefix; the last two are computed alongside so their
equivalence (valid for pseudo-inference operators) can be asserted, not
assumed.  A partition is tested as a congruence by its definition,
comparing each element with its block's least member on tables
translated to those members (congruence_respects_op).
"""
from __future__ import annotations

from functools import cache, lru_cache

from .boolean_core import FiniteBooleanAlgebra, Filter, _down, _lacking_bits, _repeat, _set_bits
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, Record, first_violation, result, run_memo, swept
from .ternary_operator import TernaryOperator, _require_psi, check_strict, is_relational


class ClassifiedFilter(Record):
    filter: Filter
    is_closed: bool
    is_modal: bool
    closed_via_su_mid: bool
    modal_via_generator: bool


# Filter laws: law -> rows (sentence, witness order, top-down), swept in
# ascending mask order with the first letter of each order, the filter's
# generator g, bound.  x -> y lies in the filter [g) iff
# g and x and not y = 0, and a lies in it iff g and not a = 0.  A law
# with several rows holds when each of them does.
_FILTER_LAWS = {
    "su-mid": (
        ("g and a and not b = 0 => g and dia(x, y, a) and not dia(x, y, b) = 0", "gabxy", False),
        ("g and a and not b = 0 => g and dia(x, a, y) and not dia(x, b, y) = 0", "gabxy", False),
    ),
    "modal": (("g and not a = 0 => g and not mu(a) = 0", "ga", False),),
    "modal-generator": (("g and not mu(g) = 0", "g", False),),
}


def _filter_law(op: TernaryOperator, flt: Filter, law: str) -> bool:
    return swept(law, _FILTER_LAWS[law], op.table, op.alg.top, (flt.generator,)).passed


def filter_is_closed(op: TernaryOperator, flt: Filter) -> bool:
    """Whether [g) is closed, exactly on every operator.

    x -> y lies in [g) iff g and x <= y, so for fixed (x, p, u) the
    definition's premises are exactly the triples (y, q, w) >= (g and x,
    g and p, g and u): [g) is closed iff g and dia(x, p, u) <= D(g and x,
    g and p, g and u) everywhere, with D(a, b, c) the meet of dia over
    every triple >= (a, b, c).  D is the superset-AND transform of the
    table's bytes, one shift-and-mask step per atom and coordinate (on a
    monotone operator D is dia).  The atoms outside g are cleared from
    each coordinate by copying the entries that lack such an atom over
    those that hold it, and the law is one test on the whole table.
    """
    raw, g, k = bytes(op.table), flt.generator, op.alg.atom_count
    n, dia = len(raw), int.from_bytes(raw, "little")
    meets = _down(dia, k, range(3 * k), 3)
    for j in range(3 * k):  # offset bit j is atom j % k of a coordinate
        if not g >> j % k & 1:
            low = meets & _lacking_bits(8 * n, 8 << j)
            meets = low | low << (8 << j)
    return not dia & _repeat(g, 8, n) & ~meets


def filter_is_closed_su_mid(op: TernaryOperator, flt: Filter) -> bool:
    """The two-condition reduction: (Su) pushes an implication through the
    third coordinate, (Mid) through the second."""
    return flt.generator == 0 or _filter_law(op, flt, "su-mid")


def filter_is_modal(op: TernaryOperator, flt: Filter) -> bool:
    """Definitional: mu maps every member back into the filter."""
    return _filter_law(op, flt, "modal")


def filter_is_modal_via_generator(op: TernaryOperator, flt: Filter) -> bool:
    """Generator shortcut, equivalent to the definition whenever mu is
    monotone (it is on every pseudo-inference operator)."""
    return _filter_law(op, flt, "modal-generator")


def classify_filter(op: TernaryOperator, flt: Filter) -> ClassifiedFilter:
    return ClassifiedFilter(
        filter=flt,
        is_closed=filter_is_closed(op, flt),
        is_modal=filter_is_modal(op, flt),
        closed_via_su_mid=filter_is_closed_su_mid(op, flt),
        modal_via_generator=filter_is_modal_via_generator(op, flt),
    )


def all_filters_classified(op: TernaryOperator) -> list[ClassifiedFilter]:
    return [classify_filter(op, Filter(op.alg, g)) for g in op.alg.elements()]


class Congruence(Record):
    """Partition of the carrier, stored as reps[a] = least member of a's block."""

    alg: FiniteBooleanAlgebra
    reps: tuple[int, ...]

    def related(self, a: int, b: int) -> bool:
        return self.reps[a] == self.reps[b]

    def blocks(self) -> list[tuple[int, ...]]:
        by_rep: dict[int, list[int]] = {}
        for a in self.alg.elements():
            by_rep.setdefault(self.reps[a], []).append(a)
        return [tuple(v) for _, v in sorted(by_rep.items())]

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b)
            for a in self.alg.elements()
            for b in self.alg.elements()
            if self.related(a, b)
        )


def congruence_from_partition(alg: FiniteBooleanAlgebra, blocks) -> Congruence:
    reps = [-1] * alg.size
    for block in blocks:
        rep = min(block)
        for a in block:
            if reps[a] != -1:
                raise ValueError("blocks overlap")
            reps[a] = rep
    if -1 in reps:
        raise ValueError("blocks do not cover the carrier")
    return Congruence(alg, tuple(reps))


def congruence_from_filter(alg: FiniteBooleanAlgebra, flt: Filter) -> Congruence:
    # a ~ b  iff  a & f = b & f for some f in [g)  iff  a & g = b & g,
    # and a & g is itself the least member of a's block.
    g = flt.generator
    return Congruence(alg, tuple(a & g for a in alg.elements()))


def congruence_is_boolean_compatible(cong: Congruence) -> bool:
    """Whether a ~ b gives not a ~ not b, a | c ~ b | c and a & c ~ b & c,
    decided on block leads as in congruence_respects_op."""
    lead = _leads(map(cong.reps.__getitem__, cong.alg.elements()))
    return _respects_boolean(lead, _boolean_tables(cong.alg.elements(), cong.alg.top))


def congruence_respects_op(op: TernaryOperator, cong: Congruence) -> bool:
    """Compatibility with the ternary operator, one coordinate at a time
    (equivalent to the simultaneous form by transitivity).

    Decided on each block's lead, its least member: dia(a, x, y) ~
    dia(b, x, y) holds for every related pair a ~ b iff it holds for
    every pair (a, lead a), since a ~ b exactly when lead a = lead b and
    ~ is an equivalence.  So this is the definition, on any partition,
    closed filter or not.
    """
    lead = _leads(map(cong.reps.__getitem__, cong.alg.elements()))
    return _respects_op(lead, bytes(op.table))


def _leads(labels) -> bytes:
    """Each element's lead: the least element with the same label."""
    first: dict = {}
    return bytes(first.setdefault(label, a) for a, label in enumerate(labels))


def _agrees(parts, lead: bytes) -> bool:
    return all(parts[a] == parts[b] for a, b in enumerate(lead) if a != b)


def _respects_op(lead: bytes, table: bytes) -> bool:
    """The lead test on a ternary table over 0..n-1 (n = len(lead)): with
    its entries taken to their leads, each element's run dia(a, ., .),
    slices dia(., b, .) and slice dia(., ., c) equal its lead's."""
    n = len(lead)
    lab, sq = table.translate(lead.ljust(256, b"\0")), n * n
    return (
        _agrees([lab[a * sq:a * sq + sq] for a in range(n)], lead)
        and _agrees([[lab[b * n + y::sq] for y in range(n)] for b in range(n)], lead)
        and _agrees([lab[c::n] for c in range(n)], lead)
    )


def _respects_boolean(lead: bytes, tables: tuple[bytes, bytes, bytes]) -> bool:
    """The lead test on the not, join and meet tables of _boolean_tables."""
    n = len(lead)
    neg, join, meet = (t.translate(lead.ljust(256, b"\0")) for t in tables)
    rows = ([t[a * n:a * n + n] for a in range(n)] for t in (join, meet))
    return _agrees(neg, lead) and all(_agrees(parts, lead) for parts in rows)


@lru_cache(maxsize=None)
def _boolean_tables(carrier, top: int) -> tuple[bytes, bytes, bytes]:
    """The not, join and meet tables of the Boolean subalgebra on
    ``carrier``, each element numbered by its position in it."""
    pos = {a: i for i, a in enumerate(carrier)}
    return (
        bytes(pos[top ^ a] for a in carrier),
        bytes(pos[a | b] for a in carrier for b in carrier),
        bytes(pos[a & b] for a in carrier for b in carrier),
    )


def congruence_to_filter(cong: Congruence) -> Filter:
    """F = the block of top; rejects partitions that are not Boolean congruences."""
    alg = cong.alg
    if not congruence_is_boolean_compatible(cong):
        raise ValueError("partition is not compatible with the Boolean operations")
    block = [a for a in alg.elements() if cong.related(a, alg.top)]
    g = alg.top
    for a in block:
        g &= a
    return Filter(alg, g)


def closed_filter_generators(op: TernaryOperator) -> list[int]:
    return [g for g in op.alg.elements() if filter_is_closed(op, Filter(op.alg, g))]


@run_memo
def is_simple(op: TernaryOperator) -> bool:
    """Simple iff the only closed filters are the trivial one and the whole carrier."""
    _require_psi(op, "is_simple")
    return set(closed_filter_generators(op)) == {0, op.alg.top}


def is_subdirectly_irreducible(op: TernaryOperator) -> bool:
    """SI iff the nontrivial closed filters have a least element, i.e. there
    is a smallest non-identity congruence."""
    _require_psi(op, "is_subdirectly_irreducible")
    alg = op.alg
    gens = [g for g in closed_filter_generators(op) if g != alg.top]
    if not gens:
        return False
    # [g*) is least among the filters iff g* dominates every other generator.
    return any(all(alg.leq(g, g_star) for g in gens) for g_star in gens)


def relational_iff_simple_strict_check(op: TernaryOperator) -> CheckReport:
    """Assert: relational  iff  simple and R1, R2, S all hold."""
    _require_psi(op, "relational_iff_simple_strict_check")
    lhs = is_relational(op)[0]
    rhs = is_simple(op) and check_strict(op).passed
    note = f"relational={lhs} simple-and-strict={rhs}"
    verdict = result("relational-iff-simple-strict", None if lhs == rhs else (), note)
    return CheckReport("relational-iff-simple-strict", (verdict,))


def _congruence_meet(x: Congruence, y: Congruence) -> Congruence:
    return Congruence(x.alg, tuple(_leads(zip(x.reps, y.reps))))


def _congruence_join(x: Congruence, y: Congruence) -> Congruence:
    # transitive closure of the union of the two partitions
    alg = x.alg
    parent = list(range(alg.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for cong in (x, y):
        for a in alg.elements():
            union(a, cong.reps[a])
    return Congruence(alg, tuple(find(a) for a in alg.elements()))


def _compose(x: Congruence, y: Congruence) -> frozenset[tuple[int, int]]:
    """x then y as pairs: (a, c) where a's x-block meets c's y-block."""
    elements = x.alg.elements()
    met = {(x.reps[b], y.reps[b]) for b in elements}
    return frozenset((a, c) for a in elements for c in elements if (x.reps[a], y.reps[c]) in met)


def enumerate_subalgebras(op: TernaryOperator) -> list[tuple[int, ...]]:
    """All subsets of the carrier closed under the Boolean operations and
    the ternary operator.  Capped at two atoms: the subset count explodes."""
    alg = op.alg
    if alg.atom_count > 2:
        raise PreconditionError("subalgebra enumeration is capped at 2 atoms")
    out = []
    size = alg.size
    for mask in range(1 << size):
        subset = _set_bits(mask)
        if 0 not in subset or alg.top not in subset:
            continue
        sset = set(subset)
        ok = all(
            a | b in sset and a & b in sset and alg.neg(a) in sset
            for a in subset
            for b in subset
        ) and all(
            op(a, b, c) in sset for a in subset for b in subset for c in subset
        )
        if ok:
            out.append(tuple(subset))
    return out


def _subalgebra_congruences(op: TernaryOperator, carrier: tuple[int, ...]) -> list[frozenset[tuple[int, int]]]:
    """All congruences of the subalgebra on ``carrier``, as pair sets.

    Enumerated from scratch over all partitions, so this stays an oracle
    independent of the filter-based route used on the full algebra; each
    is decided by the lead tests on the subalgebra's tables, built once.
    """
    pos = {a: i for i, a in enumerate(carrier)}
    table = bytes(pos[op(a, b, c)] for a in carrier for b in carrier for c in carrier)
    boolean = _boolean_tables(carrier, op.alg.top)
    # every partition as its restricted growth string (each label at most
    # one above those before it), in ascending order
    strings = [()]
    for _ in carrier:
        strings = [s + (label,) for s in strings for label in range(max(s, default=-1) + 2)]
    congs = []
    for labels in strings:
        lead = _leads(labels)
        if _respects_boolean(lead, boolean) and _respects_op(lead, table):
            members = list(zip(carrier, labels))
            congs.append(frozenset((a, b) for a, x in members for b, y in members if x == y))
    return congs


def variety_spot_checks(ops: list[TernaryOperator]) -> CheckReport:
    """Finite spot checks of the variety-level consequences on strict
    pseudo-inference operators: congruences permute, the congruence lattice
    is distributive, and congruences of subalgebras extend (two-atom cap).
    """
    results: list[AxiomResult] = []
    for idx, op in enumerate(ops):
        _require_psi(op, "variety_spot_checks")
        check_strict(op).require(PreconditionError, "variety_spot_checks requires strict operators")
        alg = op.alg
        congs = [
            congruence_from_filter(alg, Filter(alg, g))
            for g in closed_filter_generators(op)
        ]

        results.append(first_violation(
            f"permutability[{idx}]",
            ((i,) for i, x in enumerate(congs) for y in congs[i:] if _compose(x, y) != _compose(y, x)),
        ))

        known = {c.reps for c in congs}
        join, meet = cache(_congruence_join), cache(_congruence_meet)

        def distributivity_violations():
            for x in congs:
                for y in congs:
                    for z in congs:
                        join_yz = join(y, z)
                        meet_xy = meet(x, y)
                        meet_xz = meet(x, z)
                        if (
                            join_yz.reps not in known
                            or meet_xy.reps not in known
                            or meet_xz.reps not in known
                        ):
                            raise InternalCheckError(
                                "congruence lattice not closed over the enumerated set"
                            )
                        lhs = meet(x, join_yz)
                        rhs = join(meet_xy, meet_xz)
                        if lhs.reps != rhs.reps:
                            yield ()

        results.append(first_violation(f"distributivity[{idx}]", distributivity_violations()))

        if alg.atom_count <= 2:
            full_congs = [c.pairs() for c in congs]

            def cep_violations():
                for carrier in enumerate_subalgebras(op):
                    carrier_set = set(carrier)
                    restricted = [
                        frozenset((a, b) for a, b in pairs if a in carrier_set and b in carrier_set)
                        for pairs in full_congs
                    ]
                    if any(delta not in restricted for delta in _subalgebra_congruences(op, carrier)):
                        yield carrier

            results.append(first_violation(f"cep[{idx}]", cep_violations()))

    return CheckReport("variety-spot-checks", tuple(results))
