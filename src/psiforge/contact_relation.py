"""Ternary entailment relations, their axiom systems, and the translations
to and from relational operators.

A relation is a bitset over A^3 in (a, b, c) mask order.  check_eca decides
the simplified axiom system EC0-EC4, check_extca the original ExtCA0-ExtCA4;
the two are equivalent and both are checked literally.  The translations
rel_to_op / op_to_rel implement dia(a,b,c) = not chi(a,b,not c) and its
inverse, a bijection between these relations and relational operators.
They work on whole words: not c flips every atom bit of c, so moving each
bit (a, b, c) to (a, b, not c) is one shift-and-mask step per atom on the
bitset (_negate_conclusions), and a bitset becomes a table of 0 and top
bytes, or a table the bitset of its zero entries, by one binary format
and one bytes.translate (the codec _entries and _bits of module
boolean_core).

Every law of both systems has one decider on the relation's bitset,
_failure: EC0, EC2, EC3 and their ExtCA twins by a few and/or/shift
tests against masks built once per atom count (_law_masks), EC4 as
bits & ~T(bits) == 0, T the (a, b) transpose of module boolean_core's
offset permutation (_transpose), and the five-variable cut (EC1 and its
ExtCA twin) by one AND per premise of each distinct conclusion mask
(_cut_witness).  It gives None when the law holds, else the prefix of its
first witness in the documented order.  Each law, and each derived law
of check_derived_eca_props and characteristic_lemma_check, is also
stated as sentences about the relation's characteristic table, in the
row format of module terms (_LAWS; the cut's row is swept top-down).
report.decided turns _failure's answer into the law's result, sweeping a
failing law's rows with the prefix bound to name the rest of the
witness, and report.swept sweeps the derived laws in full; chi's table
is built only when some law fails, so a passing check compiles no
sentence.

Verdicts without witnesses come from one decider, pool_verdicts, which
takes many relations packed side by side in one int, relation i in bits
i*size^3 and up: the mask laws are tested on every lane at once, and
only the relations passing them are unpacked and have EC4 and the cut
decided one by one.  is_eca and is_extca are its pool of one.

Every fixed-width layout here is read and written by the lane codec of
module boolean_core: a relation's conclusion masks are its size-bit
rows and its cut slabs its size^2-bit rows (_unpack); a relation from
triples and the law masks are packed from conclusion masks (_pack), and
largest_eca is the complement of the ExtCA3 mask; a pool's passing
lanes are found by _zero_rows and unpacked; and the compact JSON form is
_to_base64 / _from_base64.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .boolean_core import (
    FiniteBooleanAlgebra,
    _bits,
    _entries,
    _first_entry,
    _from_base64,
    _lacking_bits,
    _pack,
    _repeat,
    _set_offsets,
    _to_base64,
    _transpose,
    _unpack,
    _zero_rows,
    algebra_from_json,
    json_int,
)
from .errors import InternalCheckError, PreconditionError
from .report import AxiomResult, CheckReport, Record, cached_hash, decided, first_violation, result, run_memo, swept
from .ternary_operator import TernaryOperator, is_relational


class TernaryRelation(Record):
    """Membership bitset over A^3; bit for (a, b, c) is (a*size + b)*size + c."""

    alg: FiniteBooleanAlgebra
    bits: int
    __hash__ = cached_hash

    def __init__(self, alg: FiniteBooleanAlgebra, bits: int):
        if bits < 0 or bits >> alg.size ** 3:
            raise ValueError("relation bitset out of range for this algebra")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "bits", bits)

    def holds(self, a: int, b: int, c: int) -> bool:
        size = self.alg.size
        return self.bits >> ((a * size + b) * size + c) & 1 == 1

    def chi(self, a: int, b: int, c: int) -> int:
        """Characteristic function, valued in the two-element truth algebra."""
        return 1 if self.holds(a, b, c) else 0

    def triples(self) -> list[tuple[int, int, int]]:
        return list(_set_offsets(self.bits, self.alg.size))

    def is_subset_of(self, other: "TernaryRelation") -> bool:
        return self.bits & other.bits == self.bits

    def to_json(self, compact: bool = False) -> dict:
        if compact:
            return {"alg": self.alg.to_json(), "bits": _to_base64(self.bits, self.alg.size ** 3)}
        return {"alg": self.alg.to_json(), "triples": [list(t) for t in self.triples()]}


def relation_from_triples(alg: FiniteBooleanAlgebra, triples) -> TernaryRelation:
    size = alg.size
    con = [0] * (size * size)  # the conclusion masks
    for a, b, c in triples:
        if not (0 <= a < size and 0 <= b < size and 0 <= c < size):  # alg.contains
            raise ValueError(f"triple ({a},{b},{c}) outside carrier")
        con[a * size + b] |= 1 << c
    return TernaryRelation(alg, _pack(con, size))


def relation_from_json(data: dict) -> TernaryRelation:
    alg = algebra_from_json(data["alg"])
    if "bits" in data and "triples" in data:
        raise ValueError("relation gives both bits and triples; give one form")
    if "bits" in data:
        return TernaryRelation(alg, _from_base64(data["bits"], alg.size ** 3))
    triples = [tuple(json_int(v, "triple entry") for v in t) for t in data["triples"]]
    return relation_from_triples(alg, triples)


def empty_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, 0)


def full_relation(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    return TernaryRelation(alg, (1 << alg.size ** 3) - 1)


def largest_eca(alg: FiniteBooleanAlgebra) -> TernaryRelation:
    """The largest extended contact relation: (a,b) |- c iff a & b & not c = 0,
    every triple outside the ExtCA3 mask."""
    return TernaryRelation(alg, (1 << alg.size ** 3) - 1 ^ _law_masks(alg.atom_count)["ExtCA3"][0])


def _conclusion_masks(rel: TernaryRelation) -> list[int]:
    """con[a*size + b] = bitmask over c of the triples (a, b, c) present:
    the bitset's size-bit rows, in order."""
    return _unpack(rel.bits, rel.alg.size, range(rel.alg.size ** 2))


def _negate_conclusions(bits: int, k: int) -> int:
    """The bitset over A^3 with bit (a, b, c) moved to (a, b, not c): not c
    flips every atom bit of c, one shift-and-mask step per atom."""
    n = 1 << 3 * k
    for i in range(k):
        low = _lacking_bits(n, 1 << i)
        bits = (bits & low) << (1 << i) | bits >> (1 << i) & low
    return bits


def _chi_table(rel: TernaryRelation) -> tuple[int, ...]:
    """chi as a flat table valued 0 and top."""
    return tuple(_entries(rel.bits, rel.alg.size ** 3, bytes((0, rel.alg.top))))


# Relation laws: law -> rows (sentence, witness order, top-down), each
# swept by compiling its sentence over chi's table, dia standing for chi.
# chi is valued 0 and top, so 0, 1 and not keep their truth-value
# meaning.  A law with several rows sweeps them in turn and reports the
# first failure, except EC3-iff, whose two rows sweep the same (a, f) and
# report the least witness.  The cut, like PI1, is swept top-down.
_LAWS = {
    "EC0": (("dia(a, b, f) <= dia(a or d, b, f or d)", "abfd", False),),
    "cut": (("dia(a, b, d) and dia(a, b, e) and dia(d, e, f) <= dia(a, b, f)", "abdef", True),),
    "EC2": (("dia(a, b, a or f) = 1", "abf", False),),
    "EC3": (("dia(a, a, f) and a <= f", "af", False),),
    "EC4": (("dia(a, b, f) <= dia(b, a, f)", "abf", False),),
    "ExtCA2": (("a or f = f => dia(a, b, f) = 1", "abf", False),),
    "ExtCA3": (("dia(a, b, f) and a and b <= f", "abf", False),),
    "EC3-iff": (
        ("dia(a, a, f) and a <= f", "af", False),
        ("a or f = f => dia(a, a, f) = 1", "af", False),
    ),
    "weaker-right": (("c or f = f => dia(a, b, c) and dia(a, b, f) = dia(a, b, c)", "abcf", False),),
    "stronger-left": (("f or a = a => dia(a, b, c) and dia(f, b, c) = dia(a, b, c)", "abcf", False),),
    "BI-1": (("dia(0, 1, a) = 1", "a", False),),
    "BI-2": (("dia(a, b, c) and dia(x, b, c) <= dia(a or x, b, c)", "axbc", False),),
    "BI-3": (("d or a = a => dia(a, b, c) and dia(d, b, c) = dia(a, b, c)", "abcd", False),),
    "BI-4": (("c or d = d => dia(a, b, c) and dia(a, b, d) = dia(a, b, c)", "abcd", False),),
    "ch-1": (
        ("dia(0, b, c) = 1", "0bc", False),
        ("dia(a, 0, c) = 1", "a0c", False),
        ("dia(a, b, 1) = 1", "ab1", False),
    ),
    "ch-2": (("dia(a or x, b, c) = dia(a, b, c) and dia(x, b, c)", "axbc", False),),
    "ch-3": (("dia(a, b or x, c) = dia(a, b, c) and dia(a, x, c)", "abxc", False),),
    "ch-4": (("dia(a, b, c and x) <= dia(a, b, c) and dia(a, b, x)", "abcx", False),),
}


def _law(chi: tuple[int, ...], top: int, law: str, note: str = "") -> AxiomResult:
    """Sweep a law of _LAWS over chi's table."""
    if law != "EC3-iff":
        return swept(law, _LAWS[law], chi, top, note=note)
    # its two rows sweep the same (a, f): the least witness of either wins
    rows = (swept(law, (row,), chi, top, note=note) for row in _LAWS[law])
    return min(rows, key=lambda r: (r.passed, r.witness))


# Each axiom system's laws in report order, as (reported name, law of
# _LAWS).  The checkers and the verdict-only pool_verdicts all read these
# lists.
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
    """Bitsets over A^3 deciding the relation laws at k atoms.  EC0: per
    atom u, the shift u and the triples whose f lacks u, the shift u*size^2
    and those whose a lacks u.  Each other law, built from size^2 rows:
    (mask, want), holding iff the relation meets mask in want."""
    size, square, n = 1 << k, 1 << 2 * k, 1 << 3 * k
    up = [sum(1 << c for c in range(size) if c & m == m) for m in range(size)]
    full = up[0]

    def bits(row) -> int:
        return _pack([row(a, b) for a in range(size) for b in range(size)], size)

    below = bits(lambda a, b: up[a])  # a <= f: all present
    return {
        "EC0": tuple((1 << i, _lacking_bits(n, 1 << i), square << i, _lacking_bits(n, square << i)) for i in range(k)),
        "EC2": (below, below),
        "ExtCA2": (below, below),
        "EC3": (bits(lambda a, b: full ^ up[a] if a == b else 0), 0),  # a = b, a not <= f: all absent
        "ExtCA3": (bits(lambda a, b: full ^ up[a & b]), 0),  # a and b not <= f: all absent
    }


def _mask_failures(bits: int, k: int, law: str, lanes: int = 1) -> int:
    """The bits at which a mask law fails, on relations packed side by side
    in lanes of size^3 bits (``lanes`` the lowest bit of each; 1 for one relation):
    nonzero in a relation's lane iff the law fails on it.  Each mask is
    repeated in every lane.  EC0 fails at each (a, b, f) present with (a or
    d, b, f or d) absent for some d: outside the meet over d of bit (a or d,
    b, f or d) pulled back to (a, b, f), taken one atom at a time (a
    superset-AND transform, in f, then in a), each pull inside its lane."""
    masks = _law_masks(k)
    if law == "EC0":
        kept = bits
        for u, in_f, v, in_a in masks["EC0"]:
            pulled = kept ^ (kept ^ kept >> u) & in_f * lanes
            kept &= pulled ^ (pulled ^ pulled >> v) & in_a * lanes
        return bits ^ kept
    mask, want = masks[law]
    return (bits & mask * lanes) ^ want * lanes


def _failure(rel: TernaryRelation, law: str) -> tuple[int, ...] | None:
    """None if a system law holds; else the prefix of its first witness: for
    a mask law that of its lowest failing bit, (a, b, f) for EC0, (a,) for
    EC3, (a, b) for the others; for EC4 the first (a, b) with a triple
    (a, b, f) whose transpose (b, a, f) is absent; the cut's whole witness."""
    size, k = rel.alg.size, rel.alg.atom_count
    if law == "cut":
        return _cut_witness(rel)
    fails = rel.bits & ~_transpose(rel.bits, k) if law == "EC4" else _mask_failures(rel.bits, k, law)
    places = {"EC0": 3, "EC3": 1}.get(law, 2)
    return _first_entry(fails, size, places, size ** (3 - places))


def _check(rel: TernaryRelation, system: str) -> CheckReport:
    """Every law's verdict and, for each failing law, its first witness in
    its documented order: the prefix _failure gives, and the rest from the
    law's sentence over chi."""
    prefixes = [(name, law, _failure(rel, law)) for name, law in _SYSTEMS[system]]
    chi = _chi_table(rel) if any(p is not None for _, _, p in prefixes) else ()
    return CheckReport(system, tuple(
        decided(name, prefix, _LAWS[law], chi, rel.alg.top) for name, law, prefix in prefixes
    ))


def pool_verdicts(alg: FiniteBooleanAlgebra, packed: int, n: int, system: str) -> bytes:
    """Whether each of n relations satisfies an axiom system ("eca" or
    "extca"): byte i is 1 iff the relation in bits i*size^3 and up of
    ``packed`` passes check_eca (check_extca), else 0.

    The mask laws are tested on all n relations at once, and their
    failure bits ORed.  Only the relations whose lane of failures is zero
    are unpacked and have EC4 and then the cut decided one by one.
    """
    k, width = alg.atom_count, alg.size ** 3
    lanes = _repeat(1, width, n)
    fails = 0
    for _, law in _SYSTEMS[system]:
        if law in _law_masks(k):  # decided by mask tests alone, on every lane at once
            fails |= _mask_failures(packed, k, law, lanes)
    verdicts = bytearray(_zero_rows(fails, width, n))
    passing = list(compress(range(n), verdicts))
    for i, bits in zip(passing, _unpack(packed, width, passing)):
        rel = TernaryRelation(alg, bits)
        verdicts[i] = _failure(rel, "EC4") is None and _failure(rel, "cut") is None
    return bytes(verdicts)


def check_eca(rel: TernaryRelation) -> CheckReport:
    """Check EC0-EC4.

    EC0: (a,b) |- f  implies  (a or d, b) |- f or d       (witness a,b,f,d)
    EC1: cut over five variables, swept top-down          (witness a,b,d,e,f)
    EC2: (a,b) |- a or f                                  (witness a,b,f)
    EC3: (a,a) |- f  implies  a <= f                      (witness a,f)
    EC4: (a,b) |- f  implies  (b,a) |- f                  (witness a,b,f)

    Every verdict comes from mask tests on the bitset: EC4 against its
    (a, b) transpose, and EC1 on its conclusion masks, by one AND per
    premise of each distinct conclusion mask (see _cut_witness).  A
    failing test also gives the prefix of the law's first witness, and
    its sentence is swept past that prefix only: over d for EC0, over f
    for EC2-EC4, and not at all for EC1, whose witness is only
    re-evaluated.
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


@run_memo
def is_eca(rel: TernaryRelation) -> bool:
    """check_eca(rel).passed: pool_verdicts on a pool of one; no witness
    sweep runs."""
    return pool_verdicts(rel.alg, rel.bits, 1, "eca") == b"\x01"


def is_extca(rel: TernaryRelation) -> bool:
    """check_extca(rel).passed: pool_verdicts on a pool of one; no
    witness sweep runs."""
    return pool_verdicts(rel.alg, rel.bits, 1, "extca") == b"\x01"


def _cut_witness(rel: TernaryRelation) -> tuple[int, ...] | None:
    """The cut's first violation (a, b, d, e, f), every variable top-down;
    None if the cut holds.

    Write C(d, e) for the conclusion mask of (d, e).  The cut says
    C(d, e) <= M whenever d and e lie in M = C(a, b), so it depends on M
    alone: M fails iff some d in M has a triple (d, e, f) with e in M and
    f not in M.  The relation's (e, f) bits for premise d are one
    size^2-bit slab, and those (e, f) are the pattern (full ^ M) spread
    over the rows e in M: one AND per d in M.  Each distinct M is tested
    once, the (a, b) top-down, and only the first failing one is swept
    over (d, e, f) to name the witness.
    """
    size, con = rel.alg.size, _conclusion_masks(rel)
    square, full = size * size, (1 << size) - 1
    slabs = _unpack(rel.bits, square, range(size))
    holds = set()
    for i in range(square - 1, -1, -1):
        cab = con[i]
        if cab in holds:
            continue
        outside = _pack([full ^ cab if cab >> e & 1 else 0 for e in range(size)], size)
        if not any(slabs[d] & outside for d in range(size) if cab >> d & 1):
            holds.add(cab)
            continue
        # one bit operation per (d, e) finds every missing conclusion f
        desc = range(size - 1, -1, -1)
        for d in desc:
            if cab >> d & 1:
                for e in desc:
                    missing = con[d * size + e] & ~cab if cab >> e & 1 else 0
                    if missing:
                        # first f top-down = highest missing conclusion
                        return (*divmod(i, size), d, e, missing.bit_length() - 1)
        raise InternalCheckError.no_witness("the cut", divmod(i, size))
    return None


def _require_eca(rel: TernaryRelation, caller: str) -> None:
    # the memoised verdict first: the witness sweep runs only on a failure
    if not is_eca(rel):
        check_eca(rel).require(PreconditionError, f"{caller} requires an EC relation")


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


@run_memo
def rel_to_op(rel: TernaryRelation) -> TernaryOperator:
    """dia(a,b,c) = 0 if (a,b) |- not c, else top.  Image lies in {0, top}."""
    alg = rel.alg
    negated = _negate_conclusions(rel.bits, alg.atom_count)
    return TernaryOperator(alg, tuple(_entries(negated, alg.size ** 3, bytes((alg.top, 0)))))


def op_to_rel(op: TernaryOperator) -> TernaryRelation:
    """(a,b) |- c iff dia(a,b,not c) = 0.

    The definition is total, so this is computed for any table; it is the
    inverse of rel_to_op only on relational operators (use is_relational to
    flag the breach).
    """
    return TernaryRelation(op.alg, _negate_conclusions(_bits(bytes(op.table), 255, 0), op.alg.atom_count))


def contact_from_eca(rel: TernaryRelation) -> frozenset[tuple[int, int]]:
    """The binary contact relation: a C b iff (a,b) does not entail 0.

    Verifies on output that contact is symmetric and that overlapping
    regions are in contact.
    """
    _require_eca(rel, "contact_from_eca")
    alg = rel.alg
    # (a, b) entails 0 iff bit 0 of its conclusion mask is set
    pairs = frozenset(divmod(i, alg.size) for i, m in enumerate(_conclusion_masks(rel)) if not m & 1)
    for a, b in pairs:
        if (b, a) not in pairs:
            raise InternalCheckError(f"contact not symmetric at ({a},{b})")
    for a in alg.elements():
        for b in alg.elements():
            if a & b and (a, b) not in pairs:
                raise InternalCheckError(f"overlapping regions ({a},{b}) not in contact")
    return pairs


def posets_dual_iso_check(alg: FiniteBooleanAlgebra, relations: list[TernaryRelation]) -> CheckReport:
    """Check the order-reversing bijection between EC relations and
    relational operators over the given relations, every EC relation of
    the algebra up to automorphism (as enumerate_ecas lists them).

    Inclusion of relations must reverse the pointwise order of the
    translated operators, rel_to_op must be injective with relational
    images, and on the single-atom algebra the image set must equal the
    independently brute-forced relational operators satisfying PI1-PI4.
    """
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
    results.append(result("bijection-injective", None if len(tables) == len(relations) else ()))

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
        results.append(result("bijection-onto-k1", None if tables == expected else ()))

    return CheckReport("posets-dual-iso", tuple(results))
