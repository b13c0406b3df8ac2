"""Closed and modal filters, the congruence/filter correspondence, and the
simplicity, subdirect-irreducibility and variety-level spot checks.

A filter F is closed when dia(x1,x2,x3) -> dia(y1,y2,y3) lands in F
whenever every xi -> yi does; closed filters correspond one-to-one to
congruences compatible with the operator.  F is modal when it is closed
under mu.  Both are decided by their definitions, stated as sentences in
the rows of _FILTER_LAWS and swept by terms.compile_sweep; the (Su)/(Mid)
reduction and the generator-only modality shortcut are rows there too,
computed alongside so their equivalence (valid for pseudo-inference
operators) can be asserted, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .boolean_core import FiniteBooleanAlgebra, Filter
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, failed, first_violation, passed
from .terms import compile_sweep, parse
from .ternary_operator import TernaryOperator, check_psi, check_strict, is_relational


@dataclass(frozen=True)
class ClassifiedFilter:
    filter: Filter
    is_closed: bool
    is_modal: bool
    closed_via_su_mid: bool
    modal_via_generator: bool


# Filter laws, one row each: (law, sentence, sweep order), swept by
# terms.compile_sweep in ascending mask order with the filter's generator
# bound to the param g.  x -> y lies in the filter [g) iff
# g and x and not y = 0, and a lies in it iff g and not a = 0.  A law
# with several rows holds when each of them does.
_FILTER_LAWS = (
    (
        "closed",
        "g and x and not y = 0 & g and p and not q = 0 & g and u and not w = 0"
        " => g and dia(x, p, u) and not dia(y, q, w) = 0",
        "xypquw",
    ),
    ("su-mid", "g and a and not b = 0 => g and dia(x, y, a) and not dia(x, y, b) = 0", "abxy"),
    ("su-mid", "g and a and not b = 0 => g and dia(x, a, y) and not dia(x, b, y) = 0", "abxy"),
    ("modal", "g and not a = 0 => g and not mu(a) = 0", "a"),
    ("modal-generator", "g and not mu(g) = 0", ""),
)


@lru_cache(maxsize=None)
def _filter_sweeps(law: str) -> tuple:
    return tuple(
        compile_sweep(parse(text), tuple(order), params=("g",))
        for name, text, order in _FILTER_LAWS
        if name == law
    )


def _filter_law(op: TernaryOperator, flt: Filter, law: str) -> bool:
    g = flt.generator
    return all(sweep(op.table, op.alg.top, g) is None for sweep in _filter_sweeps(law))


def filter_is_closed(op: TernaryOperator, flt: Filter) -> bool:
    """Full definition: sweep all coordinate-wise implication triples."""
    # the improper filter is closed; a sweep of it would visit every tuple
    return flt.generator == 0 or _filter_law(op, flt, "closed")


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
    alg = op.alg
    return [classify_filter(op, Filter(alg, g)) for g in alg.elements()]


@dataclass(frozen=True)
class Congruence:
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
    alg = cong.alg
    for a in alg.elements():
        for b in alg.elements():
            if not cong.related(a, b):
                continue
            if not cong.related(alg.neg(a), alg.neg(b)):
                return False
            for c in alg.elements():
                if not cong.related(a | c, b | c) or not cong.related(a & c, b & c):
                    return False
    return True


def congruence_respects_op(op: TernaryOperator, cong: Congruence) -> bool:
    """Compatibility with the ternary operator, one coordinate at a time
    (equivalent to the simultaneous form by transitivity)."""
    alg = op.alg
    for a in alg.elements():
        for b in alg.elements():
            if not cong.related(a, b):
                continue
            for x in alg.elements():
                for y in alg.elements():
                    if not cong.related(op(a, x, y), op(b, x, y)):
                        return False
                    if not cong.related(op(x, a, y), op(x, b, y)):
                        return False
                    if not cong.related(op(x, y, a), op(x, y, b)):
                        return False
    return True


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


def congruence_filter_maps(alg: FiniteBooleanAlgebra, value):
    """Dispatch between the two mutually inverse correspondence maps."""
    if isinstance(value, Filter):
        return congruence_from_filter(alg, value)
    return congruence_to_filter(value)


def closed_filter_generators(op: TernaryOperator) -> list[int]:
    return [g for g in op.alg.elements() if filter_is_closed(op, Filter(op.alg, g))]


def _require_psi(op: TernaryOperator, caller: str) -> None:
    report = check_psi(op)
    if not report.passed:
        bad = report.failures()[0]
        raise PreconditionError(
            f"{caller} requires a pseudo-inference operator; {bad.axiom} fails at {bad.witness}"
        )


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
    result = (
        passed("relational-iff-simple-strict", note)
        if lhs == rhs
        else failed("relational-iff-simple-strict", (), note)
    )
    return CheckReport("relational-iff-simple-strict", (result,))


def _congruence_meet(x: Congruence, y: Congruence) -> Congruence:
    alg = x.alg
    key = {}
    reps = []
    for a in alg.elements():
        k = (x.reps[a], y.reps[a])
        if k not in key:
            key[k] = a
        reps.append(key[k])
    return Congruence(alg, tuple(reps))


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
    alg = x.alg
    out = set()
    for a in alg.elements():
        for b in alg.elements():
            if not x.related(a, b):
                continue
            for c in alg.elements():
                if y.related(b, c):
                    out.add((a, c))
    return frozenset(out)


def enumerate_subalgebras(op: TernaryOperator) -> list[tuple[int, ...]]:
    """All subsets of the carrier closed under the Boolean operations and
    the ternary operator.  Capped at two atoms: the subset count explodes."""
    alg = op.alg
    if alg.atom_count > 2:
        raise PreconditionError("subalgebra enumeration is capped at 2 atoms")
    out = []
    size = alg.size
    for mask in range(1 << size):
        subset = [a for a in range(size) if mask >> a & 1]
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
    independent of the filter-based route used on the full algebra.
    """
    alg = op.alg
    n = len(carrier)
    pos = {a: i for i, a in enumerate(carrier)}
    congs = []
    for assignment in product(range(n), repeat=n):
        # keep one canonical labelling per partition
        first_of: dict[int, int] = {}
        for i, lab in enumerate(assignment):
            first_of.setdefault(lab, i)
        if tuple(first_of[lab] for lab in assignment) != assignment:
            continue

        def related(a, b, labels=assignment):
            return labels[pos[a]] == labels[pos[b]]

        ok = True
        for a in carrier:
            for b in carrier:
                if not ok:
                    break
                if not related(a, b):
                    continue
                if not related(alg.neg(a), alg.neg(b)):
                    ok = False
                    break
                for x in carrier:
                    if not related(a | x, b | x) or not related(a & x, b & x):
                        ok = False
                        break
                    for y in carrier:
                        if (
                            not related(op(a, x, y), op(b, x, y))
                            or not related(op(x, a, y), op(x, b, y))
                            or not related(op(x, y, a), op(x, y, b))
                        ):
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                break
        if ok:
            congs.append(
                frozenset((a, b) for a in carrier for b in carrier if related(a, b))
            )
    return congs


def variety_spot_checks(ops: list[TernaryOperator]) -> CheckReport:
    """Finite spot checks of the variety-level consequences on strict
    pseudo-inference operators: congruences permute, the congruence lattice
    is distributive, and congruences of subalgebras extend (two-atom cap).
    """
    results: list[AxiomResult] = []
    for idx, op in enumerate(ops):
        _require_psi(op, "variety_spot_checks")
        strict_report = check_strict(op)
        if not strict_report.passed:
            bad = strict_report.failures()[0]
            raise PreconditionError(
                f"variety_spot_checks requires strict operators; {bad.axiom} fails at {bad.witness}"
            )
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

        def distributivity_violations():
            for x in congs:
                for y in congs:
                    for z in congs:
                        join_yz = _congruence_join(y, z)
                        meet_xy = _congruence_meet(x, y)
                        meet_xz = _congruence_meet(x, z)
                        if (
                            join_yz.reps not in known
                            or meet_xy.reps not in known
                            or meet_xz.reps not in known
                        ):
                            raise InternalCheckError(
                                "congruence lattice not closed over the enumerated set"
                            )
                        lhs = _congruence_meet(x, join_yz)
                        rhs = _congruence_join(meet_xy, meet_xz)
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
