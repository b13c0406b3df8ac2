"""Ternary entailment relations, their axiom systems, and the translations
to and from relational operators.

A relation is a bitset over A^3 in (a, b, c) mask order.  check_eca decides
the simplified axiom system EC0-EC4, check_extca the original ExtCA0-ExtCA4;
the two are equivalent and both are checked literally.  The translations
rel_to_op / op_to_rel implement dia(a,b,c) = not chi(a,b,not c) and its
inverse, a bijection between these relations and relational operators.

Every law but one is a sentence about the relation's characteristic
table (_LAWS), swept by terms.compile_sweep in ascending mask order.  The
five-variable cut axiom (EC1 and its ExtCA twin) is the one bitmask sweep
left: it runs top-down like PI1, over each premise pair's conclusion mask.
"""
from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .boolean_core import FiniteBooleanAlgebra, algebra_from_json
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, failed, first_violation, passed
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


@lru_cache(maxsize=None)
def _byte_values(top: int) -> tuple[tuple[int, ...], ...]:
    """For each byte, its eight bits low first as 0 or top."""
    return tuple(tuple(top * (byte >> i & 1) for i in range(8)) for byte in range(256))


def _chi_table(rel: TernaryRelation) -> tuple[int, ...]:
    """chi as a flat table valued 0 and top, read off the bitset in one
    pass (size^3 is a multiple of 8)."""
    raw = rel.bits.to_bytes(rel.alg.size ** 3 // 8, "little")
    return tuple(chain.from_iterable(map(_byte_values(rel.alg.top).__getitem__, raw)))


# Relation laws, one row each: (law, sentence, witness order).  Each is
# swept by compiling its sentence over chi's table, dia standing for chi.
# chi is valued 0 and top, so 0, 1 and not keep their truth-value
# meaning.  A law with several rows sweeps them in turn and reports the
# first failure, except EC3-iff, whose two rows sweep the same (a, f) and
# report the least witness.
_LAWS = (
    ("EC0", "dia(a, b, f) <= dia(a or d, b, f or d)", "abfd"),
    ("EC2", "dia(a, b, a or f) = 1", "abf"),
    ("EC3", "dia(a, a, f) and a <= f", "af"),
    ("EC4", "dia(a, b, f) <= dia(b, a, f)", "abf"),
    ("ExtCA2", "a or f = f => dia(a, b, f) = 1", "abf"),
    ("ExtCA3", "dia(a, b, f) and a and b <= f", "abf"),
    ("EC3-iff", "dia(a, a, f) and a <= f", "af"),
    ("EC3-iff", "a or f = f => dia(a, a, f) = 1", "af"),
    ("weaker-right", "c or f = f => dia(a, b, c) and dia(a, b, f) = dia(a, b, c)", "abcf"),
    ("stronger-left", "f or a = a => dia(a, b, c) and dia(f, b, c) = dia(a, b, c)", "abcf"),
    ("BI-1", "dia(0, 1, a) = 1", "a"),
    ("BI-2", "dia(a, b, c) and dia(x, b, c) <= dia(a or x, b, c)", "axbc"),
    ("BI-3", "d or a = a => dia(a, b, c) and dia(d, b, c) = dia(a, b, c)", "abcd"),
    ("BI-4", "c or d = d => dia(a, b, c) and dia(a, b, d) = dia(a, b, c)", "abcd"),
    ("ch-1", "dia(0, b, c) = 1", "0bc"),
    ("ch-1", "dia(a, 0, c) = 1", "a0c"),
    ("ch-1", "dia(a, b, 1) = 1", "ab1"),
    ("ch-2", "dia(a or x, b, c) = dia(a, b, c) and dia(x, b, c)", "axbc"),
    ("ch-3", "dia(a, b or x, c) = dia(a, b, c) and dia(a, x, c)", "abxc"),
    ("ch-4", "dia(a, b, c and x) <= dia(a, b, c) and dia(a, b, x)", "abcx"),
)


@lru_cache(maxsize=None)
def _law_sweeps(law: str) -> tuple:
    return tuple(
        compile_sweep(parse(text), tuple(order)) for name, text, order in _LAWS if name == law
    )


def _law(chi: tuple[int, ...], top: int, law: str, note: str = "", name: str = "") -> AxiomResult:
    """Sweep a law of _LAWS over chi's table; reported as ``name`` if given."""
    name = name or law
    witnesses = [w for sweep in _law_sweeps(law) if (w := sweep(chi, top)) is not None]
    if not witnesses:
        return passed(name, note)
    return failed(name, min(witnesses) if law == "EC3-iff" else witnesses[0], note)


def check_eca(rel: TernaryRelation) -> CheckReport:
    """Check EC0-EC4.

    EC0: (a,b) |- f  implies  (a or d, b) |- f or d       (witness a,b,f,d)
    EC1: cut over five variables, swept top-down          (witness a,b,d,e,f)
    EC2: (a,b) |- a or f                                  (witness a,b,f)
    EC3: (a,a) |- f  implies  a <= f                      (witness a,f)
    EC4: (a,b) |- f  implies  (b,a) |- f                  (witness a,b,f)
    """
    chi, top = _chi_table(rel), rel.alg.top
    results = (
        _law(chi, top, "EC0"),
        _check_cut(rel, "EC1"),
        _law(chi, top, "EC2"),
        _law(chi, top, "EC3"),
        _law(chi, top, "EC4"),
    )
    return CheckReport("eca", results)


def check_extca(rel: TernaryRelation) -> CheckReport:
    """Check the original system ExtCA0-ExtCA4.

    ExtCA0/1/4 coincide with EC0/1/4; ExtCA2 is "a <= f implies (a,b) |- f"
    and ExtCA3 is "(a,b) |- f implies a and b <= f" (witnesses a,b,f).
    """
    chi, top = _chi_table(rel), rel.alg.top
    results = (
        _law(chi, top, "EC0", name="ExtCA0"),
        _check_cut(rel, "ExtCA1"),
        _law(chi, top, "ExtCA2"),
        _law(chi, top, "ExtCA3"),
        _law(chi, top, "EC4", name="ExtCA4"),
    )
    return CheckReport("extca", results)


def _check_cut(rel: TernaryRelation, axiom: str) -> AxiomResult:
    # one bit operation per (a, b, d, e) finds every missing conclusion f
    con = _conclusion_masks(rel)
    desc = range(rel.alg.top, -1, -1)
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


def _require_eca(rel: TernaryRelation, caller: str) -> None:
    report = check_eca(rel)
    if not report.passed:
        bad = report.failures()[0]
        raise PreconditionError(
            f"{caller} requires an EC relation; {bad.axiom} fails at {bad.witness}"
        )


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
    note = "must hold for every EC relation; failure indicates a checker bug"
    chi, top = _chi_table(rel), rel.alg.top
    laws = ("weaker-right", "stronger-left", "EC3-iff", "BI-1", "BI-2", "BI-3", "BI-4")
    return CheckReport("derived-eca-props", tuple(_law(chi, top, law, note) for law in laws))


def characteristic_lemma_check(rel: TernaryRelation) -> CheckReport:
    """Verify the characteristic-function laws of an EC relation.

    chi is valued in the two-element truth algebra {0,1}; the laws say chi
    is constantly 1 when a premise is 0 or the conclusion is 1 (witness
    (0, b, c), else (a, 0, c), else (a, b, top)), turns joins in either
    premise into meets, and is antitone-ish in the conclusion:
    chi(a,b,c and x) <= chi(a,b,c) and chi(a,b,x).
    """
    _require_eca(rel, "characteristic_lemma_check")
    chi, top = _chi_table(rel), rel.alg.top
    laws = ("ch-1", "ch-2", "ch-3", "ch-4")
    return CheckReport("characteristic-lemma", tuple(_law(chi, top, law) for law in laws))


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
    results = [first_violation(
        "order-reversal",
        (
            (i, j)
            for i, r1 in enumerate(relations)
            for j, r2 in enumerate(relations)
            if r1.is_subset_of(r2) != ops[j].pointwise_leq(ops[i])
        ),
    )]

    tables = {op.table for op in ops}
    results.append(
        passed("bijection-injective")
        if len(tables) == len(relations)
        else failed("bijection-injective", ())
    )

    results.append(first_violation(
        "image-relational", ((i,) for i, op in enumerate(ops) if not is_relational(op)[0])
    ))

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
