"""Enumeration of entailment relations and operator tables up to algebra
automorphism, plus counterexample search for user sentences.

One engine enumerates: a pseudo-inference table is one slice per atom and
a slice one up-set per atom pair (see "pseudo-inference tables as slices"),
so the tables are products of valid slices and the entailment relations
come from the tables with one slice, every diagonal whole, at each atom.
No checker filters generated candidates; the checkers are the oracle.

Canonical form: the least bitset (or lexicographically least operator
table) in the automorphism orbit; outputs are deduplicated and sorted by
it.  Each image is built on the whole word by the offset permutation of
module boolean_core (_permute_offsets): the atom permutation moves bit i
of each field of the offset (a, b, c) to bit perm[i], for every bit, or
every byte of a table whose values it has first mapped by one
bytes.translate, by at most 3(k-1) delta swaps.  Every value is below
256, so the least bytes image is the least table.

The built-in axiom sets of named_axioms are the prefixes of
ternary_operator.AXIOM_SETS, keyed by report kind: "psi" is the laws of
"3bamo" and "psi", in order, read as the rows the operator checkers sweep.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress, product
from math import prod

from .boolean_core import (
    FiniteBooleanAlgebra,
    _pack,
    _permute_offsets,
    _table_of_rows,
    _up,
    apply_automorphism,
    automorphisms,
    make_algebra,
)
from .contact_relation import TernaryRelation, op_to_rel, pool_verdicts, rel_to_op
from .errors import SizeCapError
from .report import Record
from .terms import Sentence, _sweep_plan, holds, parse
from .ternary_operator import AXIOM_SETS, DEFAULT_SEED, LAW_ROWS, TernaryOperator

ENUM_MAX_ATOMS_EXACT = 2
ENUM_MAX_ATOMS_ECAS = 3


def named_axioms(name: str) -> list[Sentence]:
    """Built-in axiom sets: 3bamo (MO1-MO4), psi (3bamo + PI1-PI4) and
    strict (psi + R1, R2, S), the laws of every AXIOM_SETS entry up to
    and including ``name``, each law's rows in order.  Every call returns
    a fresh list."""
    if name not in AXIOM_SETS:
        raise ValueError(f"unknown axiom set {name!r}")
    names = list(AXIOM_SETS)
    laws = (law for part in names[:names.index(name) + 1] for law in AXIOM_SETS[part])
    return [parse(text) for law in laws for text, _, _ in LAW_ROWS[law]]


def _satisfying(alg: FiniteBooleanAlgebra, axioms: list[Sentence]):
    """The test whether every sentence of ``axioms`` holds on a table, as
    holds() decides it.  Every sentence is compiled here, so a caller that
    builds the test before it builds or draws any table refuses a
    sentence over the sweep cap before any work."""
    top, sweeps = alg.top, [_sweep_plan(s)[1] for s in axioms]
    return lambda t: all(sweep(t, top) is None for sweep in sweeps)


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _moves(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The atom permutation as a move of offset bits: bit i of each of the
    c, b and a fields to bit perm[i] of that field."""
    k = len(perm)
    return tuple(field + perm[i] for field in (0, k, 2 * k) for i in range(k))


@lru_cache(maxsize=None)
def _value_images(alg: FiniteBooleanAlgebra, perm: tuple[int, ...]) -> bytes:
    """The bytes.translate table taking each element to its image."""
    return bytes(apply_automorphism(alg, perm, a) for a in alg.elements()) + bytes(256 - alg.size)


def _moved_table(alg: FiniteBooleanAlgebra, perm: tuple[int, ...], raw: bytes) -> bytes:
    """The table's bytes with values and offsets moved by the automorphism."""
    values = int.from_bytes(raw.translate(_value_images(alg, perm)), "little")
    return _permute_offsets(values, alg.atom_count, _moves(perm), 3).to_bytes(len(raw), "little")


def permute_relation_bits(alg: FiniteBooleanAlgebra, perm: tuple[int, ...], bits: int) -> int:
    """The relation moved by the automorphism, (a, b, c) to (img[a],
    img[b], img[c])."""
    return _permute_offsets(bits, alg.atom_count, _moves(perm))


def canonical_relation_bits(alg: FiniteBooleanAlgebra, bits: int) -> int:
    return min(_permute_offsets(bits, alg.atom_count, _moves(p)) for p in automorphisms(alg))


def permute_operator_table(
    alg: FiniteBooleanAlgebra, perm: tuple[int, ...], table: tuple[int, ...]
) -> tuple[int, ...]:
    """The operator moved by the automorphism: img[v] at (img[a], img[b],
    img[c]) for the value v at (a, b, c)."""
    return tuple(_moved_table(alg, perm, bytes(table)))


def canonical_operator_table(alg: FiniteBooleanAlgebra, table: tuple[int, ...]) -> tuple[int, ...]:
    # every value is below 256, so the least bytes image is the least tuple
    raw = bytes(table)
    return tuple(min(_moved_table(alg, p, raw) for p in automorphisms(alg)))


def _representatives(alg: FiniteBooleanAlgebra, tables) -> tuple[TernaryOperator, ...]:
    """One operator per orbit among ``tables``, sorted by canonical table."""
    found = {canonical_operator_table(alg, t) for t in tables}
    return tuple(TernaryOperator(alg, t) for t in sorted(found))


# ---------------------------------------------------------------------------
# relation enumeration


def brute_force_relations(alg: FiniteBooleanAlgebra) -> list[TernaryRelation]:
    """Naive oracle: test every bitset.  Single-atom algebras only."""
    if alg.atom_count != 1:
        raise SizeCapError("brute force over all relation bitsets needs a single atom")
    n = 1 << alg.size ** 3
    verdicts = pool_verdicts(alg, _pack(range(n), alg.size ** 3), n, "eca")  # relation i is the bitset i
    return [TernaryRelation(alg, bits) for bits in compress(range(n), verdicts)]


def enumerate_ecas(alg: FiniteBooleanAlgebra, workers: int = 1) -> list[TernaryRelation]:
    """All relations satisfying the entailment axioms, one canonical
    representative per automorphism orbit, sorted by canonical bitset.

    An entailment relation is op_to_rel of a relational pseudo-inference
    operator, whose slices are one and the same slice at every atom, with
    every diagonal whole.  So the relations come from the valid slices
    with all diagonals whole (27 families at three atoms, of which the
    PI1 mask test keeps 15 labelled relations in 7 orbits), without a
    checker.  Exact through three atoms; larger algebras are refused.

    ``workers`` selects nothing.  It is kept only because
    ``bench/workloads.py`` calls ``enumerate_ecas(alg, workers=w)``; drop
    it together with that file's ``enumerate_ecas:k3:w2`` operation.
    """
    if alg.atom_count > ENUM_MAX_ATOMS_ECAS:
        raise SizeCapError("relation enumeration capped at 3 atoms")
    atoms = tuple(alg.atoms())
    found = {
        canonical_relation_bits(alg, op_to_rel(_table(alg, (f,) * len(atoms))).bits)
        for f in _slices(alg.atom_count, atoms)
    }
    return [TernaryRelation(alg, bits) for bits in sorted(found)]


# ---------------------------------------------------------------------------
# operator enumeration


class OperatorEnumeration(Record):
    operators: tuple[TernaryOperator, ...]
    label: str


def brute_force_operators(
    alg: FiniteBooleanAlgebra, axioms: list[Sentence]
) -> list[TernaryOperator]:
    """Naive oracle over every table; single-atom algebras only."""
    if alg.atom_count != 1:
        raise SizeCapError("brute force over all operator tables needs a single atom")
    keep = _satisfying(alg, axioms)
    tables = (digits[::-1] for digits in product(range(alg.size), repeat=alg.size ** 3))  # entry 0 varies fastest
    return [TernaryOperator(alg, t) for t in filter(keep, tables)]


def enumerate_operators(
    alg: FiniteBooleanAlgebra,
    axioms: list[Sentence],
    mode: str = "auto",
    seed: int = DEFAULT_SEED,
) -> OperatorEnumeration:
    """Operator tables satisfying every sentence of ``axioms``, canonical
    up to automorphism.

    Modes: "exhaustive" (single atom only; anything larger is refused
    outright rather than silently sampled), "relational" (tables valued in
    {0, top}, via the relation enumerator and under its 3-atom cap),
    "sampled" (seeded, labelled, never claimed exhaustive: up to 200
    pseudo-inference tables from sample_psi_operators, under its 3-atom
    cap).  "auto" picks exhaustive for one atom and relational above.
    """
    if mode == "auto":
        mode = "exhaustive" if alg.atom_count == 1 else "relational"
    if mode == "exhaustive":
        if alg.atom_count != 1:
            raise SizeCapError(
                "exhaustive operator enumeration is infeasible beyond one atom; "
                "request relational or sampled mode explicitly"
            )
        tables = (op.table for op in brute_force_operators(alg, axioms))
        return OperatorEnumeration(_representatives(alg, tables), "exhaustive")
    keep = _satisfying(alg, axioms)  # compiled before any table is built or drawn
    if mode == "relational":
        tables = filter(keep, (rel_to_op(rel).table for rel in enumerate_ecas(alg)))
        return OperatorEnumeration(_representatives(alg, tables), "relational-exhaustive")
    if mode == "sampled":
        tables = filter(keep, (op.table for op in sample_psi_operators(alg, 200, seed)))
        return OperatorEnumeration(_representatives(alg, tables), f"sampled(seed={seed})")
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# pseudo-inference tables as slices
#
# The distribution laws fix a table by its values on atom pairs: dia(a, b, c)
# joins m(u, v, c) over atoms u <= a, v <= b.  The MO and PI laws compare dia
# values bitwise and never nest dia, so a table is one independent slice per
# atom x, the 0/1 table "x <= dia(a, b, c)".  A slice is a family of one
# up-set U(u, v) of {c : c meets u and v} per unordered atom pair, held as a
# mask with bit c for element c.  MO1-MO4, PI2 and PI4 then hold by
# construction, and PI3 makes U(x, x) the whole support at the slice's own
# atom x.  PI1 holds iff it holds on atom pairs, where it is a mask test:
# with C(d, e) the union of U(u', v') over atoms u' <= d, v' <= e (monotone
# in d and e), it holds iff U(u, v) lies inside C(d0, e0) for the minimal
# d0, e0 of the up-set {d : not d outside U(u, v)}.
#
# So a table is the join of its atom-pair rows: laid out over A^3, 0 off
# the atom pairs, it is the subset-OR transform of that layout in the a and
# b coordinates (_join).  It is the construction duality_frames.diamond_table
# applies to each R(x) of a frame: the slice at atom x, read at atom pairs,
# is the dual frame's R(x) there.


def _join(alg, raw: bytes) -> TernaryOperator:
    """The table whose (a, b, c) entry joins the entries (u, v, c) of raw
    over atoms u <= a and v <= b, raw being 0 off the atom pairs: the
    subset-OR transform of its bytes over the offset bits of a and b."""
    k = alg.atom_count
    joined = _up(int.from_bytes(raw, "little"), k, range(k, 3 * k), 3)
    return TernaryOperator(alg, tuple(joined.to_bytes(len(raw), "little")))


def _pairs(alg) -> list[tuple[int, int]]:
    atoms = alg.atoms()
    return [(u, v) for i, u in enumerate(atoms) for v in atoms[i:]]



def _upsets(alg, u: int, v: int) -> list[int]:
    """Every up-set of {c : c meets u and v}, as masks, the whole set last.
    Elements are decided from the top down; c may join a set that already
    holds c or y for every atom y outside c."""
    sets = [0]
    for c in range(alg.top, 0, -1):
        if c & u and c & v:
            above = sum(1 << (c | y) for y in alg.atoms() if not c & y)
            sets += [s | 1 << c for s in sets if s & above == above]
    return sets


def _candidate_slices(alg, whole: tuple[int, ...]):
    """Every family of up-sets (in _pairs order) with U(x, x) whole at the
    atoms x of ``whole``."""
    options = []
    for u, v in _pairs(alg):
        ups = _upsets(alg, u, v)
        options.append(ups[-1:] if u == v and u in whole else ups)
    return product(*options)


@lru_cache(maxsize=None)
def _slices(k: int, whole: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The candidate slices on k atoms that pass the PI1 mask test."""
    alg = make_algebra(k)
    pairs, top = _pairs(alg), alg.top
    below = [[u for u in alg.atoms() if d & u] for d in alg.elements()]
    least: dict[int, list[int]] = {}
    for s in {s for pair in pairs for s in _upsets(alg, *pair)}:
        inside = [d for d in alg.elements() if not s >> (top ^ d) & 1]
        least[s] = [d for d in inside if not any(d ^ u in inside for u in below[d])]

    def pi1_holds(family) -> bool:
        ups = {(v, u): s for (u, v), s in zip(pairs, family)} | dict(zip(pairs, family))
        for s in family:
            for d in least[s]:
                for e in least[s]:
                    c = 0
                    for u in below[d]:
                        for v in below[e]:
                            c |= ups[(u, v)]
                    if s & ~c:
                        return False
        return True

    return tuple(f for f in _candidate_slices(alg, whole) if pi1_holds(f))


def _table(alg, slices) -> TernaryOperator:
    """The table whose slice at the i-th atom is ``slices[i]``: each slice
    a bitset over A^3 holding its up-sets at the atom pairs, in both
    orders, laid out as bit i of one byte table, then joined."""
    size = alg.size
    spots = [(p, (a * size + b) * size) for p, (u, v) in enumerate(_pairs(alg)) for a, b in {(u, v), (v, u)}]
    return _join(alg, _table_of_rows(alg.atom_count, [sum(f[p] << o for p, o in spots) for f in slices]))


def enumerate_psi_operators(alg: FiniteBooleanAlgebra) -> list[TernaryOperator]:
    """Every pseudo-inference table on the algebra, canonically ordered:
    the products of one valid slice per atom (1 table at one atom, 16 at
    two).  Capped at two atoms, where canonicalising stays desk-scale."""
    if alg.atom_count > ENUM_MAX_ATOMS_EXACT:
        raise SizeCapError("exhaustive pseudo-inference enumeration capped at 2 atoms")
    per_atom = [_slices(alg.atom_count, (x,)) for x in alg.atoms()]
    return list(_representatives(alg, (_table(alg, c).table for c in product(*per_atom))))


def sample_psi_operators(
    alg: FiniteBooleanAlgebra, count: int, seed: int = DEFAULT_SEED
) -> list[TernaryOperator]:
    """``count`` distinct pseudo-inference tables (all, if fewer), drawn as
    seeded indices into the product of one slice per atom; deterministic
    for a fixed seed.  Capped at three atoms, where the slices are listed."""
    if alg.atom_count > ENUM_MAX_ATOMS_ECAS:
        raise SizeCapError("pseudo-inference sampling capped at 3 atoms")
    per_atom = [_slices(alg.atom_count, (x,)) for x in alg.atoms()]
    total = prod(len(options) for options in per_atom)
    out = []
    for index in random.Random(seed).sample(range(total), min(count, total)):
        combo = []
        for options in per_atom:
            index, i = divmod(index, len(options))
            combo.append(options[i])
        out.append(_table(alg, combo))
    return out


_3BAMO_DRAWS = 400


def sample_3bamos(alg: FiniteBooleanAlgebra, count: int, seed: int = DEFAULT_SEED) -> list[TernaryOperator]:
    """Seeded monotone-operator samples: a random value at each (u, v, c)
    with u, v atoms and c nonzero, drawn per ordered atom pair with c by
    popcount, then one subset-OR transform over every offset bit, so that
    MO1-MO4 hold by construction.  At most ``count`` distinct tables from
    _3BAMO_DRAWS draws."""
    rng = random.Random(seed)
    k, atoms, size = alg.atom_count, alg.atoms(), alg.size
    by_popcount = sorted(alg.elements(), key=lambda c: (bin(c).count("1"), c))
    found: dict[tuple[int, ...], TernaryOperator] = {}
    for _ in range(_3BAMO_DRAWS):
        if len(found) >= count:
            break
        raw = bytearray(size ** 3)
        for u in atoms:
            for v in atoms:
                row = (u * size + v) * size  # the offset of (u, v, 0)
                for c in by_popcount[1:]:
                    raw[row + c] = rng.randrange(size)
        joined = _up(int.from_bytes(raw, "little"), k, range(3 * k), 3)
        op = TernaryOperator(alg, tuple(joined.to_bytes(len(raw), "little")))
        found.setdefault(op.table, op)
    return list(found.values())


# ---------------------------------------------------------------------------
# counterexample search


class CounterexampleResult(Record):
    found: bool
    searched: int
    space_label: str
    operator: TernaryOperator | None = None
    assignment: dict[str, int] | None = None

    @property
    def exhausted_certificate(self) -> str | None:
        if self.found:
            return None
        return f"no counterexample among {self.searched} structures ({self.space_label})"


def find_counterexample(
    sentence: Sentence,
    alg: FiniteBooleanAlgebra,
    axioms: list[Sentence],
    mode: str = "auto",
    seed: int = DEFAULT_SEED,
) -> CounterexampleResult:
    """First structure (in canonical enumeration order) falsifying the
    sentence, or a certificate that the swept space contains none.  The
    seed is that of the sampled mode.  The sentence is compiled first, so
    one over the sweep cap is refused before any structure is built."""
    _sweep_plan(sentence)
    enum = enumerate_operators(alg, axioms, mode=mode, seed=seed)
    for op in enum.operators:
        ok, assignment = holds(sentence, op)
        if not ok:
            return CounterexampleResult(
                True, len(enum.operators), enum.label, op, assignment
            )
    return CounterexampleResult(False, len(enum.operators), enum.label)
