"""Ternary entailment relations, their axiom systems, and the translations
to and from relational operators.

A relation is a bitset over A^3 in (a, b, c) mask order.  check_eca decides
the simplified axiom system EC0-EC4, check_extca the original ExtCA0-ExtCA4;
the two are equivalent and both are checked literally.  The translations
rel_to_op / op_to_rel implement dia(a,b,c) = not chi(a,b,not c) and its
inverse, a bijection between these relations and relational operators.

The five-variable cut axiom (EC1 and its ExtCA twin) sweeps top-down like
PI1; all other sweeps run in ascending mask order.
"""
from __future__ import annotations

import base64
from dataclasses import dataclass

from .boolean_core import FiniteBooleanAlgebra, algebra_from_json
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, failed, first_violation as _first, passed
from .terms import compile_sweep, parse
from .ternary_operator import TernaryOperator, is_relational


@dataclass(frozen=True)
class TernaryRelation:
    """Membership bitset over A^3; bit for (a, b, c) is (a*size + b)*size + c."""

    alg: FiniteBooleanAlgebra
    bits: int

    def __post_init__(self):
        n = self.alg.size ** 3
        if self.bits < 0 or self.bits >> n:
            raise ValueError("relation bitset out of range for this algebra")

    def holds(self, a: int, b: int, c: int) -> bool:
        size = self.alg.size
        return self.bits >> ((a * size + b) * size + c) & 1 == 1

    def chi(self, a: int, b: int, c: int) -> int:
        """Characteristic function, valued in the two-element truth algebra."""
        return 1 if self.holds(a, b, c) else 0

    def triples(self) -> list[tuple[int, int, int]]:
        size = self.alg.size
        out = []
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if self.holds(a, b, c):
                        out.append((a, b, c))
        return out

    def is_subset_of(self, other: "TernaryRelation") -> bool:
        return self.bits & other.bits == self.bits

    def to_json(self, compact: bool = False) -> dict:
        if compact:
            n_bytes = (self.alg.size ** 3 + 7) // 8
            raw = self.bits.to_bytes(n_bytes, "little")
            return {"alg": self.alg.to_json(), "bits": base64.b64encode(raw).decode("ascii")}
        return {"alg": self.alg.to_json(), "triples": [list(t) for t in self.triples()]}


def relation_from_triples(alg: FiniteBooleanAlgebra, triples) -> TernaryRelation:
    size = alg.size
    bits = 0
    for a, b, c in triples:
        if not (alg.contains(a) and alg.contains(b) and alg.contains(c)):
            raise ValueError(f"triple ({a},{b},{c}) outside carrier")
        bits |= 1 << ((a * size + b) * size + c)
    return TernaryRelation(alg, bits)


def relation_from_json(data: dict) -> TernaryRelation:
    alg = algebra_from_json(data["alg"])
    if "bits" in data:
        raw = base64.b64decode(data["bits"])
        return TernaryRelation(alg, int.from_bytes(raw, "little"))
    return relation_from_triples(alg, [tuple(t) for t in data["triples"]])


def empty_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, 0)


def full_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, (1 << alg.size ** 3) - 1)


def largest_eca(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    """The largest extended contact relation: (a,b) |- c iff a & b & not c = 0."""
    size = alg.size
    bits = 0
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if a & b & alg.neg(c) == 0:
                    bits |= 1 << ((a * size + b) * size + c)
    return TernaryRelation(alg, bits)


def _conclusion_masks(rel: TernaryRelation) -> list[list[int]]:
    """conclusions[a][b] = bitmask over c of the triples (a, b, c) present;
    contiguous in the relation bitset, so extraction is one shift."""
    size = rel.alg.size
    row = (1 << size) - 1
    return [
        [rel.bits >> ((a * size + b) * size) & row for b in range(size)]
        for a in range(size)
    ]


def _upsets(alg: FiniteBooleanAlgebra) -> list[int]:
    """upsets[a] = bitmask over c of the elements above a."""
    return [
        sum(1 << c for c in alg.elements() if a & c == a) for a in alg.elements()
    ]


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def check_eca(rel: TernaryRelation) -> CheckReport:
    """Check EC0-EC4.

    EC0: (a,b) |- f  implies  (a or d, b) |- f or d       (witness a,b,f,d)
    EC1: cut over five variables, swept top-down          (witness a,b,d,e,f)
    EC2: (a,b) |- a or f                                  (witness a,b,f)
    EC3: (a,a) |- f  implies  a <= f                      (witness a,f)
    EC4: (a,b) |- f  implies  (b,a) |- f                  (witness a,b,f)
    """
    alg = rel.alg
    con = _conclusion_masks(rel)
    ups = _upsets(alg)
    results = [
        _check_weakening(rel, alg, con, "EC0"),
        _check_cut(alg, con, "EC1"),
        _check_ec2(alg, con, ups),
        _check_ec3(alg, con, ups),
        _check_symmetry(alg, con, "EC4"),
    ]
    return CheckReport("eca", tuple(results))


def check_extca(rel: TernaryRelation) -> CheckReport:
    """Check the original system ExtCA0-ExtCA4.

    ExtCA0/1/4 coincide with EC0/1/4; ExtCA2 is "a <= f implies (a,b) |- f"
    and ExtCA3 is "(a,b) |- f implies a and b <= f".
    """
    alg = rel.alg
    con = _conclusion_masks(rel)
    ups = _upsets(alg)
    results = [
        _check_weakening(rel, alg, con, "ExtCA0"),
        _check_cut(alg, con, "ExtCA1"),
        _check_extca2(alg, con, ups),
        _check_extca3(alg, con, ups),
        _check_symmetry(alg, con, "ExtCA4"),
    ]
    return CheckReport("extca", tuple(results))


def _check_weakening(rel, alg, con, axiom) -> AxiomResult:
    for a in alg.elements():
        for b in alg.elements():
            cab = con[a][b]
            if not cab:
                continue
            for f in alg.elements():
                if not cab >> f & 1:
                    continue
                for d in alg.elements():
                    if not con[a | d][b] >> (f | d) & 1:
                        return failed(axiom, (a, b, f, d))
    return passed(axiom)


def _check_cut(alg, con, axiom) -> AxiomResult:
    desc = range(alg.top, -1, -1)
    for a in desc:
        for b in desc:
            cab = con[a][b]
            if not cab:
                continue
            for d in desc:
                if not cab >> d & 1:
                    continue
                for e in desc:
                    if not cab >> e & 1:
                        continue
                    missing = con[d][e] & ~cab
                    if missing:
                        # first f top-down = highest missing conclusion
                        return failed(axiom, (a, b, d, e, missing.bit_length() - 1))
    return passed(axiom)


def _check_ec2(alg, con, ups) -> AxiomResult:
    for a in alg.elements():
        for b in alg.elements():
            if ups[a] & ~con[a][b]:
                for f in alg.elements():
                    if not con[a][b] >> (a | f) & 1:
                        return failed("EC2", (a, b, f))
    return passed("EC2")


def _check_ec3(alg, con, ups) -> AxiomResult:
    for a in alg.elements():
        bad = con[a][a] & ~ups[a]
        if bad:
            return failed("EC3", (a, _low_bit(bad)))
    return passed("EC3")


def _check_symmetry(alg, con, axiom) -> AxiomResult:
    for a in alg.elements():
        for b in alg.elements():
            bad = con[a][b] & ~con[b][a]
            if bad:
                return failed(axiom, (a, b, _low_bit(bad)))
    return passed(axiom)


def _check_extca2(alg, con, ups) -> AxiomResult:
    for a in alg.elements():
        for b in alg.elements():
            bad = ups[a] & ~con[a][b]
            if bad:
                return failed("ExtCA2", (a, b, _low_bit(bad)))
    return passed("ExtCA2")


def _check_extca3(alg, con, ups) -> AxiomResult:
    for a in alg.elements():
        for b in alg.elements():
            bad = con[a][b] & ~ups[a & b]
            if bad:
                return failed("ExtCA3", (a, b, _low_bit(bad)))
    return passed("ExtCA3")


def _require_eca(rel: TernaryRelation, caller: str) -> None:
    report = check_eca(rel)
    if not report.passed:
        bad = report.failures()[0]
        raise PreconditionError(
            f"{caller} requires an EC relation; {bad.axiom} fails at {bad.witness}"
        )


# Laws of the characteristic function chi, each swept by compiling its
# sentence over chi's table of 0s and 1s, dia standing for chi: law ->
# (sentence, witness order).  Only and, or, = and <= touch chi's values,
# so 0 and 1 act as truth values.
_CHI_LAWS = {
    "weaker-right": ("c or f = f => dia(a, b, c) and dia(a, b, f) = dia(a, b, c)", "abcf"),
    "stronger-left": ("f or a = a => dia(a, b, c) and dia(f, b, c) = dia(a, b, c)", "abcf"),
    "BI-2": ("dia(a, b, c) and dia(x, b, c) <= dia(a or x, b, c)", "axbc"),
    "BI-3": ("d or a = a => dia(a, b, c) and dia(d, b, c) = dia(a, b, c)", "abcd"),
    "BI-4": ("c or d = d => dia(a, b, c) and dia(a, b, d) = dia(a, b, c)", "abcd"),
    "ch-2": ("dia(a or x, b, c) = dia(a, b, c) and dia(x, b, c)", "axbc"),
    "ch-3": ("dia(a, b or x, c) = dia(a, b, c) and dia(a, x, c)", "abxc"),
    "ch-4": ("dia(a, b, c and x) <= dia(a, b, c) and dia(a, b, x)", "abcx"),
}


def _chi_law(rel: TernaryRelation, law: str, note: str = "") -> AxiomResult:
    text, order = _CHI_LAWS[law]
    chi = tuple(rel.bits >> i & 1 for i in range(rel.alg.size ** 3))
    witness = compile_sweep(parse(text), tuple(order))(chi, rel.alg.top)
    return passed(law, note) if witness is None else failed(law, witness, note)


def check_derived_eca_props(rel: TernaryRelation) -> CheckReport:
    """Assert the consequences that every EC relation must satisfy.

    weaker-right: entailed conclusions may be weakened.
    stronger-left: premises may be strengthened.
    EC3-iff: (a,a) |- f exactly when a <= f.
    BI-1..BI-4: (0,1) |- a; join closure in the first premise; and the two
    monotonicity laws again in their original form.

    A failure here indicates a checker bug, not a property of the input.
    """
    _require_eca(rel, "check_derived_eca_props")
    alg = rel.alg
    note = "must hold for every EC relation; failure indicates a checker bug"
    els = alg.elements()

    def ec3_iff():
        for a in els:
            for f in els:
                if rel.holds(a, a, f) != alg.leq(a, f):
                    yield (a, f)

    def bi1():
        for a in els:
            if not rel.holds(0, alg.top, a):
                yield (a,)

    results = (
        _chi_law(rel, "weaker-right", note),
        _chi_law(rel, "stronger-left", note),
        _first("EC3-iff", ec3_iff(), note),
        _first("BI-1", bi1(), note),
        _chi_law(rel, "BI-2", note),
        _chi_law(rel, "BI-3", note),
        _chi_law(rel, "BI-4", note),
    )
    return CheckReport("derived-eca-props", results)


def characteristic_lemma_check(rel: TernaryRelation) -> CheckReport:
    """Verify the characteristic-function laws of an EC relation.

    chi is valued in the two-element truth algebra {0,1}; the laws say chi
    is constantly 1 when a premise is 0 or the conclusion is 1, turns joins
    in either premise into meets, and is antitone-ish in the conclusion:
    chi(a,b,c and x) <= chi(a,b,c) and chi(a,b,x).
    """
    _require_eca(rel, "characteristic_lemma_check")
    alg = rel.alg
    els = alg.elements()

    def ch1():
        for b in els:
            for c in els:
                if rel.chi(0, b, c) != 1:
                    yield (0, b, c)
        for a in els:
            for c in els:
                if rel.chi(a, 0, c) != 1:
                    yield (a, 0, c)
        for a in els:
            for b in els:
                if rel.chi(a, b, alg.top) != 1:
                    yield (a, b, alg.top)

    results = (
        _first("ch-1", ch1()),
        _chi_law(rel, "ch-2"),
        _chi_law(rel, "ch-3"),
        _chi_law(rel, "ch-4"),
    )
    return CheckReport("characteristic-lemma", results)


def rel_to_op(rel: TernaryRelation) -> TernaryOperator:
    """dia(a,b,c) = 0 if (a,b) |- not c, else top.  Image lies in {0, top}."""
    alg = rel.alg
    size = alg.size
    table = []
    for a in range(size):
        for b in range(size):
            for c in range(size):
                table.append(0 if rel.holds(a, b, alg.neg(c)) else alg.top)
    return TernaryOperator(alg, tuple(table))


def op_to_rel(op: TernaryOperator) -> TernaryRelation:
    """(a,b) |- c iff dia(a,b,not c) = 0.

    The definition is total, so this is computed for any table; it is the
    inverse of rel_to_op only on relational operators (use is_relational to
    flag the breach).
    """
    alg = op.alg
    size = alg.size
    bits = 0
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if op(a, b, alg.neg(c)) == 0:
                    bits |= 1 << ((a * size + b) * size + c)
    return TernaryRelation(alg, bits)


def contact_from_eca(rel: TernaryRelation) -> frozenset[tuple[int, int]]:
    """The binary contact relation: a C b iff (a,b) does not entail 0.

    Verifies on output that contact is symmetric and that overlapping
    regions are in contact.
    """
    _require_eca(rel, "contact_from_eca")
    alg = rel.alg
    pairs = frozenset(
        (a, b)
        for a in alg.elements()
        for b in alg.elements()
        if not rel.holds(a, b, 0)
    )
    for a, b in pairs:
        if (b, a) not in pairs:
            raise InternalCheckError(f"contact not symmetric at ({a},{b})")
    for a in alg.elements():
        for b in alg.elements():
            if a & b and (a, b) not in pairs:
                raise InternalCheckError(f"overlapping regions ({a},{b}) not in contact")
    return pairs


def posets_dual_iso_check(
    alg: FiniteBooleanAlgebra, relations: list[TernaryRelation] | None = None
) -> CheckReport:
    """Check the order-reversing bijection between EC relations and
    relational operators over a full enumeration.

    Inclusion of relations must reverse the pointwise order of the
    translated operators, rel_to_op must be injective with relational
    images, and on the single-atom algebra the image set must equal the
    independently brute-forced relational operators satisfying PI1-PI4.
    """
    if relations is None:
        from .enumeration import enumerate_ecas

        relations = enumerate_ecas(alg)
    ops = [rel_to_op(r) for r in relations]
    results = []

    r = passed("order-reversal")
    done = False
    for i, r1 in enumerate(relations):
        for j, r2 in enumerate(relations):
            forward = r1.is_subset_of(r2)
            backward = ops[j].pointwise_leq(ops[i])
            if forward != backward:
                r = failed("order-reversal", (i, j))
                done = True
                break
        if done:
            break
    results.append(r)

    tables = {op.table for op in ops}
    results.append(
        passed("bijection-injective")
        if len(tables) == len(relations)
        else failed("bijection-injective", ())
    )

    r = passed("image-relational")
    for i, op in enumerate(ops):
        ok, _ = is_relational(op)
        if not ok:
            r = failed("image-relational", (i,))
            break
    results.append(r)

    if alg.atom_count == 1:
        from .enumeration import brute_force_operators, psi_axioms

        axioms = psi_axioms()
        expected = {
            op.table
            for op in brute_force_operators(alg, axioms)
            if is_relational(op)[0]
        }
        results.append(
            passed("bijection-onto-k1")
            if tables == expected
            else failed("bijection-onto-k1", ())
        )

    return CheckReport("posets-dual-iso", tuple(results))
