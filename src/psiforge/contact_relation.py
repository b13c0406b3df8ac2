"""Ternary entailment relations, their axiom systems, and the translations
to and from relational operators.

A relation is a bitset over A^3 in (a, b, c) mask order.  check_eca decides
the simplified axiom system EC0-EC4, check_extca the original ExtCA0-ExtCA4;
the two are equivalent and both are checked literally.  The translations
rel_to_op / op_to_rel implement dia(a,b,c) = not chi(a,b,not c) and its
inverse, a bijection between these relations and relational operators.

Every law of both systems is decided on the relation's bitset: EC0,
EC2, EC3 and their ExtCA twins by a few and/or/shift tests against masks
built once per atom count (_law_masks), EC4 and the five-variable cut
(EC1 and its ExtCA twin) on the bitset's conclusion masks, the cut on
minimal premises where those masks are antitone in each premise.  Each
law is also one written sentence about the relation's characteristic
table (_LAWS), or for the cut a bitmask sweep that runs top-down like
PI1; these run only when a law fails, to name its first witness in the
documented order, or when the cut's hypothesis fails.

Verdicts without witnesses come from one decider, pool_verdicts, which
takes many relations packed side by side in one int, relation i in bits
i*size^3 and up: the mask laws are tested on every lane at once, and
only the relations passing them have EC4 and the cut decided one by
one.  is_eca and is_extca are its pool of one.
"""
from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product

from .boolean_core import FiniteBooleanAlgebra, algebra_from_json, json_int
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
    return tuple(compile_sweep(parse(text), tuple(order)) for name, text, order in _LAWS if name == law)


def _law(chi: tuple[int, ...], top: int, law: str, note: str = "") -> AxiomResult:
    """Sweep a law of _LAWS over chi's table."""
    witnesses = [w for sweep in _law_sweeps(law) if (w := sweep(chi, top)) is not None]
    if not witnesses:
        return passed(law, note)
    return failed(law, min(witnesses) if law == "EC3-iff" else witnesses[0], note)


# Each axiom system's laws in report order, as (reported name, law): a
# law of _LAWS, or "cut".  The checkers and the verdict-only
# pool_verdicts all read these lists.
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


@lru_cache(maxsize=None)
def _law_masks(k: int) -> dict:
    """Bitsets over A^3 deciding the relation laws at k atoms, built from
    size^2 rows.  EC0: per atom u three (shift, mask) pairs, the mask
    holding the triples (a, b, f) whose image (a or u, b, f or u) lies
    shift bits higher: u added to a and f, to a alone, and to f alone.
    The cut's hypothesis: per atom u two (shift, mask) pairs, the mask
    holding the triples whose first (second) premise lacks u, and the
    shift moving (a or u, b, f) (or (a, b or u, f)) onto (a, b, f).  Each
    other law: (mask, want), holding iff the relation meets mask in
    want."""
    size = 1 << k
    up = [sum(1 << c for c in range(size) if c & m == m) for m in range(size)]
    full = up[0]

    def bits(row) -> int:
        return _bits_of_rows([row(a, b) for a in range(size) for b in range(size)], size)

    moves, antitone = [], []
    for u in (1 << i for i in range(k)):
        has, lacks = up[u], full ^ up[u]
        moves += [
            (u * size * size + u, bits(lambda a, b: 0 if a & u else lacks)),
            (u * size * size, bits(lambda a, b: 0 if a & u else has)),
            (u, bits(lambda a, b: lacks if a & u else 0)),
        ]
        antitone += [
            (u * size * size, bits(lambda a, b: 0 if a & u else full)),
            (u * size, bits(lambda a, b: 0 if b & u else full)),
        ]
    below = bits(lambda a, b: up[a])  # a <= f: all present
    return {
        "EC0": tuple(moves),
        "antitone": tuple(antitone),
        "EC2": (below, below),
        "ExtCA2": (below, below),
        "EC3": (bits(lambda a, b: full ^ up[a] if a == b else 0), 0),  # a = b, a not <= f: all absent
        "ExtCA3": (bits(lambda a, b: full ^ up[a & b]), 0),  # a and b not <= f: all absent
    }


# the laws decided by mask tests alone, on any number of relations at once
_MASK_LAWS = frozenset(("EC0", "EC2", "EC3", "ExtCA2", "ExtCA3"))


def _lanes(width: int, n: int) -> int:
    """The lowest bit of each of n lanes of width bits (a multiple of 8)."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * n, "little")


def _mask_failures(bits: int, k: int, law: str, lanes: int = 1) -> int:
    """The bits at which a mask law fails, on relations packed side by side
    in lanes of size^3 bits (``lanes`` from _lanes; 1 for one relation):
    nonzero in a relation's lane iff the law fails on it.  Each mask is
    repeated in every lane; EC0's shifts stay inside a lane, as its masks
    hold only triples whose image lies in the same relation."""
    masks = _law_masks(k)
    if law == "EC0":
        # (a, b) |- f implies (a or u, b) |- f or u for every atom u
        moved = 0
        for shift, mask in masks["EC0"]:
            moved |= (bits & mask * lanes) << shift
        return moved & ~bits
    mask, want = masks[law]
    return (bits & mask * lanes) ^ want * lanes


def _verdict(rel: TernaryRelation, law: str, con: list[int] | None) -> bool | None:
    """Whether a system law holds: EC0, EC2, EC3, ExtCA2 and ExtCA3 by
    mask tests on the bitset, EC4 and the cut on its conclusion masks
    con.  None when the cut's hypothesis fails (see
    _cut_on_minimal_premises)."""
    if law in _MASK_LAWS:
        return not _mask_failures(rel.bits, rel.alg.atom_count, law)
    if law == "cut":
        return _cut_on_minimal_premises(rel, con)
    size = rel.alg.size  # EC4
    swapped = chain.from_iterable(con[a::size] for a in range(size))  # con[b*size + a] in (a, b) order
    return not any(x & ~y for x, y in zip(con, swapped))


def _check(rel: TernaryRelation, system: str) -> CheckReport:
    """Every law's verdict, and the first witness in its documented order
    of each failing law: the cut's sweep or the law's sentence over chi."""
    con, chi, top = _conclusion_masks(rel), (), rel.alg.top
    results = []
    for name, law in _SYSTEMS[system]:
        witness = None
        if not _verdict(rel, law, con):
            if law == "cut":
                witness = _cut_witness(con, top)
            else:
                chi = chi or _chi_table(rel)
                witness = _law_sweeps(law)[0](chi, top)
        results.append(passed(name) if witness is None else failed(name, witness))
    return CheckReport(system, tuple(results))


def pool_verdicts(alg: FiniteBooleanAlgebra, packed: int, n: int, system: str) -> bytes:
    """Whether each of n relations satisfies an axiom system ("eca" or
    "extca"): byte i is 1 iff the relation in bits i*size^3 and up of
    ``packed`` passes check_eca (check_extca), else 0.

    The mask laws are tested on all n relations at once: their failure
    bits are ORed and each lane is folded onto its lowest bit.  Only the
    relations that pass every mask law have EC4 and then the cut decided
    one by one, on their conclusion masks (the cut by its sweep where its
    minimal-premise hypothesis fails).
    """
    k, width = alg.atom_count, alg.size ** 3
    lanes = _lanes(width, n)
    fails = 0
    for _, law in _SYSTEMS[system]:
        if law in _MASK_LAWS:
            fails |= _mask_failures(packed, k, law, lanes)
    shift = width >> 1
    while shift:  # each lane's lowest bit becomes the OR of the lane
        fails |= fails >> shift
        shift >>= 1
    step = width // 8
    verdicts = bytearray((lanes & ~fails).to_bytes(n * step, "little")[::step])
    raw = packed.to_bytes(n * step, "little")
    for i in compress(range(n), verdicts):
        rel = TernaryRelation(alg, int.from_bytes(raw[i * step:(i + 1) * step], "little"))
        con = _conclusion_masks(rel)
        ok = _verdict(rel, "EC4", con) and _verdict(rel, "cut", con)
        if ok is None:
            ok = _cut_witness(con, alg.top) is None
        verdicts[i] = ok
    return bytes(verdicts)


def check_eca(rel: TernaryRelation) -> CheckReport:
    """Check EC0-EC4.

    EC0: (a,b) |- f  implies  (a or d, b) |- f or d       (witness a,b,f,d)
    EC1: cut over five variables, swept top-down          (witness a,b,d,e,f)
    EC2: (a,b) |- a or f                                  (witness a,b,f)
    EC3: (a,a) |- f  implies  a <= f                      (witness a,f)
    EC4: (a,b) |- f  implies  (b,a) |- f                  (witness a,b,f)

    Every verdict comes from mask tests on the bitset and, for EC1 and
    EC4, its conclusion masks (EC1 on minimal premises where they are
    antitone in each premise, see _cut_on_minimal_premises).  A law's
    sweep runs only when it fails, or when the cut's hypothesis does, to
    name the first witness.
    """
    return _check(rel, "eca")


def check_extca(rel: TernaryRelation) -> CheckReport:
    """Check the original system ExtCA0-ExtCA4.

    ExtCA0/1/4 coincide with EC0/1/4; ExtCA2 is "a <= f implies (a,b) |- f"
    and ExtCA3 is "(a,b) |- f implies a and b <= f" (witnesses a,b,f).
    Verdicts come from mask tests and witnesses from sweeps, as in
    check_eca.
    """
    return _check(rel, "extca")


def is_eca(rel: TernaryRelation) -> bool:
    """check_eca(rel).passed: pool_verdicts on a pool of one; no witness
    sweep runs."""
    return pool_verdicts(rel.alg, rel.bits, 1, "eca") == b"\x01"


def is_extca(rel: TernaryRelation) -> bool:
    """check_extca(rel).passed: pool_verdicts on a pool of one; no
    witness sweep runs."""
    return pool_verdicts(rel.alg, rel.bits, 1, "extca") == b"\x01"


def _cut_on_minimal_premises(rel: TernaryRelation, con: list[int]) -> bool | None:
    """The cut's verdict from minimal premises, or None when the conclusion
    masks con are not antitone in each premise.

    Write C(d, e) for the conclusion mask of (d, e).  The cut says
    C(d, e) <= C(a, b) whenever d and e lie in C(a, b), so it depends on
    M = C(a, b) alone.  Hypothesis: C(d or u, e) <= C(d, e) and
    C(d, e or u) <= C(d, e) for every atom u, 2k shift-and-mask tests on
    the relation's bitset; by chains of covers, C is then antitone in
    each premise.  Stepping down
    covers inside M takes each d in M to a d0 <= d in M with no lower
    cover in M, and C(d, e) <= C(d0, e0).  So the cut holds iff
    C(d0, e0) <= M for those d0, e0: the bits M & ~((M & without u) << u)
    over every atom u, one element (a and b) per mask on the largest
    relation, where the full sweep visits every d and e in M.
    """
    bits, alg = rel.bits, rel.alg
    for shift, lacks in _law_masks(alg.atom_count)["antitone"]:
        if bits >> shift & lacks & ~bits:
            return None
    size, atoms = alg.size, alg.atoms()
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
