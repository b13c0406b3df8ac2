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
Where the conclusion masks are antitone in each premise, the cut is
decided on minimal premises instead, and the sweep runs only to name a
witness.

EC0 (= ExtCA0) is decided on atom covers: it holds iff (a, b) |- f
implies (a or u, b) |- f or u for every atom u, since adding d to a and f
is a chain of single-atom covers.  That costs k*|A|^3 tuples where EC0's
sentence spans |A|^4, and EC0's own sentence is swept only to name a
witness.  is_eca and is_extca walk the same law list as check_eca and
check_extca, stop at the first failing law and name no witness.
"""
from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product

from .boolean_core import FiniteBooleanAlgebra, algebra_from_json, json_int
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, failed, first_violation, passed
from .terms import compile_sweep, parse, variables
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
        return list(compress(product(range(size), repeat=3), _chi_table(self)))

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
    raw = bytearray(size ** 3 // 8)  # the bitset, little-endian
    for a, b, c in triples:
        if not (0 <= a < size and 0 <= b < size and 0 <= c < size):  # alg.contains
            raise ValueError(f"triple ({a},{b},{c}) outside carrier")
        i = (a * size + b) * size + c
        raw[i >> 3] |= 1 << (i & 7)
    return TernaryRelation(alg, int.from_bytes(raw, "little"))


def relation_from_json(data: dict) -> TernaryRelation:
    alg = algebra_from_json(data["alg"])
    if "bits" in data:
        raw = base64.b64decode(data["bits"])
        return TernaryRelation(alg, int.from_bytes(raw, "little"))
    triples = [tuple(json_int(v, "triple entry") for v in t) for t in data["triples"]]
    return relation_from_triples(alg, triples)


def empty_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, 0)


def full_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, (1 << alg.size ** 3) - 1)


def largest_eca(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    """The largest extended contact relation: (a,b) |- c iff a & b & not c = 0."""
    size = alg.size
    # the conclusions of (a, b) are the up-set of a & b
    up = [sum(1 << c for c in range(size) if c & m == m) for m in range(size)]
    return TernaryRelation(alg, _bits_of_rows([up[a & b] for a in range(size) for b in range(size)], size))


def _conclusion_masks(rel: TernaryRelation) -> list[int]:
    """con[a*size + b] = bitmask over c of the triples (a, b, c) present:
    the bitset's size-bit rows, in order."""
    size = rel.alg.size
    if size < 8:  # rows share bytes; the bitset has at most 64 bits
        row = (1 << size) - 1
        return [rel.bits >> (i * size) & row for i in range(size * size)]
    raw, step = rel.bits.to_bytes(size ** 3 // 8, "little"), size // 8
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def _bits_of_rows(rows: list[int], size: int) -> int:
    """The bitset whose size-bit rows are the given masks: the inverse of
    _conclusion_masks."""
    if size < 8:
        return sum(r << (i * size) for i, r in enumerate(rows))
    step = size // 8
    return int.from_bytes(b"".join(r.to_bytes(step, "little") for r in rows), "little")


@lru_cache(maxsize=None)
def _byte_values(top: int) -> tuple[tuple[int, ...], ...]:
    """For each byte, its eight bits low first as 0 or top."""
    return tuple(tuple(top * (byte >> i & 1) for i in range(8)) for byte in range(256))


@lru_cache(maxsize=None)
def _byte_of(top: int) -> dict[tuple[int, ...], int]:
    """The inverse of _byte_values(top): eight 0-or-top values to their byte."""
    return {values: byte for byte, values in enumerate(_byte_values(top))}


def _chi_table(rel: TernaryRelation) -> tuple[int, ...]:
    """chi as a flat table valued 0 and top, read off the bitset in one
    pass (size^3 is a multiple of 8)."""
    raw = rel.bits.to_bytes(rel.alg.size ** 3 // 8, "little")
    return tuple(chain.from_iterable(map(_byte_values(rel.alg.top).__getitem__, raw)))


def _relation_of_chi(alg: FiniteBooleanAlgebra, chi) -> TernaryRelation:
    """The relation whose chi table is the given 0-or-top values, written
    into the bitset a byte at a time: the inverse of _chi_table."""
    eights = zip(*[iter(chi)] * 8)
    raw = bytes(map(_byte_of(alg.top).__getitem__, eights))
    return TernaryRelation(alg, int.from_bytes(raw, "little"))


def _negated_conclusions(table, size: int):
    """The table's entries at (a, b, not c) in (a, b, c) order: not c is
    top - c, so each row of size entries is read backwards."""
    return chain.from_iterable(table[row:row + size][::-1] for row in range(0, len(table), size))


# Relation laws, one row each: (law, sentence, witness order).  Each is
# swept by compiling its sentence over chi's table, dia standing for chi.
# chi is valued 0 and top, so 0, 1 and not keep their truth-value
# meaning.  A law with several rows sweeps them in turn and reports the
# first failure, except EC3-iff, whose two rows sweep the same (a, f) and
# report the least witness.  A variable missing from the witness order is
# a parameter, bound by the caller.
_LAWS = (
    ("EC0", "dia(a, b, f) <= dia(a or d, b, f or d)", "abfd"),
    ("EC0-cover", "dia(a, b, f) <= dia(a or u, b, f or u)", "abf"),
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
    sweeps = []
    for name, text, order in _LAWS:
        if name == law:
            sentence = parse(text)
            params = tuple(x for x in variables(sentence) if x not in order)
            sweeps.append(compile_sweep(sentence, tuple(order), params=params))
    return tuple(sweeps)


def _law(chi: tuple[int, ...], top: int, law: str, note: str = "") -> AxiomResult:
    """Sweep a law of _LAWS over chi's table."""
    witnesses = [w for sweep in _law_sweeps(law) if (w := sweep(chi, top)) is not None]
    if not witnesses:
        return passed(law, note)
    return failed(law, min(witnesses) if law == "EC3-iff" else witnesses[0], note)


# Each axiom system's laws in report order, as (reported name, law): a
# law of _LAWS, or "cut".  The checkers and the verdict-only is_eca and
# is_extca all walk these lists.
_SYSTEMS = {
    "eca": (("EC0", "EC0"), ("EC1", "cut"), ("EC2", "EC2"), ("EC3", "EC3"), ("EC4", "EC4")),
    "extca": (
        ("ExtCA0", "EC0"),
        ("ExtCA1", "cut"),
        ("ExtCA2", "ExtCA2"),
        ("ExtCA3", "ExtCA3"),
        ("ExtCA4", "EC4"),
    ),
}
# Laws decided on a row with an atom parameter u; the law's own row then
# runs only to name the witness.
_COVERS = {"EC0": "EC0-cover"}


def _witness(rel: TernaryRelation, chi: tuple[int, ...], law: str) -> tuple[int, ...] | None:
    """First violation of a system law in its documented order, or None."""
    if law == "cut":
        return _cut_witness(_conclusion_masks(rel), rel.alg.top)
    (sweep,) = _law_sweeps(law)
    return sweep(chi, rel.alg.top)


def _reduced(rel: TernaryRelation, chi: tuple[int, ...], law: str) -> bool | None:
    """Verdict of a system law from its reduced form: EC0 on its cover
    row, the cut on minimal premises.  None when the law has no reduced
    form or the cut's hypothesis fails."""
    if law == "cut":
        return _cut_on_minimal_premises(_conclusion_masks(rel), rel.alg)
    if law not in _COVERS:
        return None
    (sweep,) = _law_sweeps(_COVERS[law])
    return all(sweep(chi, rel.alg.top, u) is None for u in rel.alg.atoms())


def _holds(rel: TernaryRelation, chi: tuple[int, ...], law: str) -> bool:
    """Verdict of a system law, from its reduced form where that decides it."""
    verdict = _reduced(rel, chi, law)
    return _witness(rel, chi, law) is None if verdict is None else verdict


def _check(rel: TernaryRelation, system: str) -> CheckReport:
    chi = _chi_table(rel)
    results = []
    for name, law in _SYSTEMS[system]:
        witness = None if _reduced(rel, chi, law) else _witness(rel, chi, law)
        results.append(passed(name) if witness is None else failed(name, witness))
    return CheckReport(system, tuple(results))


def _decide(rel: TernaryRelation, system: str) -> bool:
    chi = _chi_table(rel)
    return all(_holds(rel, chi, law) for _, law in _SYSTEMS[system])


def check_eca(rel: TernaryRelation) -> CheckReport:
    """Check EC0-EC4.

    EC0: (a,b) |- f  implies  (a or d, b) |- f or d       (witness a,b,f,d)
    EC1: cut over five variables, swept top-down          (witness a,b,d,e,f)
    EC2: (a,b) |- a or f                                  (witness a,b,f)
    EC3: (a,a) |- f  implies  a <= f                      (witness a,f)
    EC4: (a,b) |- f  implies  (b,a) |- f                  (witness a,b,f)

    EC0 is decided on atom covers (d an atom), and EC1 on minimal
    premises where the conclusion masks are antitone in each premise (see
    _cut_on_minimal_premises); a full sweep runs only when its reduced
    verdict fails or the hypothesis does, to name the first witness.
    """
    return _check(rel, "eca")


def check_extca(rel: TernaryRelation) -> CheckReport:
    """Check the original system ExtCA0-ExtCA4.

    ExtCA0/1/4 coincide with EC0/1/4; ExtCA2 is "a <= f implies (a,b) |- f"
    and ExtCA3 is "(a,b) |- f implies a and b <= f" (witnesses a,b,f).
    ExtCA0 is decided on atom covers, as EC0 is, and ExtCA1 on minimal
    premises, as EC1 is.
    """
    return _check(rel, "extca")


def is_eca(rel: TernaryRelation) -> bool:
    """check_eca(rel).passed, stopping at the first failing law; no witness
    sweep runs."""
    return _decide(rel, "eca")


def is_extca(rel: TernaryRelation) -> bool:
    """check_extca(rel).passed, stopping at the first failing law; no
    witness sweep runs."""
    return _decide(rel, "extca")


def _cut_on_minimal_premises(con: list[int], alg: FiniteBooleanAlgebra) -> bool | None:
    """The cut's verdict from minimal premises, or None when the conclusion
    masks are not antitone in each premise.

    Write C(d, e) for the conclusion mask of (d, e).  The cut says
    C(d, e) <= C(a, b) whenever d and e lie in C(a, b), so it depends on
    M = C(a, b) alone.  Hypothesis: C(d or u, e) <= C(d, e) and
    C(d, e or u) <= C(d, e) for every atom u (size^2*k mask tests); by
    chains of covers, C is then antitone in each premise.  Stepping down
    covers inside M takes each d in M to a d0 <= d in M with no lower
    cover in M, and C(d, e) <= C(d0, e0).  So the cut holds iff
    C(d0, e0) <= M for those d0, e0: the bits M & ~((M & without u) << u)
    over every atom u, one element (a and b) per mask on the largest
    relation, where the full sweep visits every d and e in M.
    """
    size, atoms = alg.size, alg.atoms()
    rows = [con[d * size:(d + 1) * size] for d in range(size)]  # rows[d][e] = C(d, e)
    cols = [con[e::size] for e in range(size)]  # cols[e][d] = C(d, e)
    for lines in (rows, cols):
        for d in range(size):
            for u in atoms:
                if not d & u and any(x & ~y for x, y in zip(lines[d | u], lines[d])):
                    return None
    without = [sum(1 << c for c in range(size) if not c & u) for u in atoms]
    for m in set(con):
        lowered = 0
        for u, w in zip(atoms, without):
            lowered |= (m & w) << u
        low = m & ~lowered
        mins = [c for c in range(size) if low >> c & 1]
        if any(con[d * size + e] & ~m for d in mins for e in mins):
            return False
    return True


def _cut_witness(con: list[int], top: int) -> tuple[int, ...] | None:
    """The cut's first violation (a, b, d, e, f), every variable top-down."""
    # one bit operation per (a, b, d, e) finds every missing conclusion f
    size = top + 1
    desc = range(top, -1, -1)
    for a in desc:
        for b in desc:
            cab = con[a * size + b]
            if not cab:
                continue
            for d in desc:
                if not cab >> d & 1:
                    continue
                for e in desc:
                    if not cab >> e & 1:
                        continue
                    missing = con[d * size + e] & ~cab
                    if missing:
                        # first f top-down = highest missing conclusion
                        return (a, b, d, e, missing.bit_length() - 1)
    return None


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
    table = tuple(alg.top ^ v for v in _negated_conclusions(_chi_table(rel), alg.size))
    return TernaryOperator(alg, table)


def op_to_rel(op: TernaryOperator) -> TernaryRelation:
    """(a,b) |- c iff dia(a,b,not c) = 0.

    The definition is total, so this is computed for any table; it is the
    inverse of rel_to_op only on relational operators (use is_relational to
    flag the breach).
    """
    alg = op.alg
    chi = (0 if v else alg.top for v in _negated_conclusions(op.table, alg.size))
    return _relation_of_chi(alg, chi)


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
        from .enumeration import brute_force_operators, named_axioms

        axioms = named_axioms("psi")
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
