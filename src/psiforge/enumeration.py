"""Enumeration of entailment relations and operator tables up to algebra
automorphism, plus counterexample search for user sentences.

One engine enumerates: the distribution laws fix a table by its values on
atom pairs, so _atom_pair_operators walks the product of per-pair maps.
Pseudo-inference tables draw those values from the whole algebra;
entailment relations are the relations of the {0, top}-valued tables
(rel_to_op is a bijection onto the relational operators).

Canonical form: the lexicographically least bitset (or operator table) in
the automorphism orbit; outputs are deduplicated and sorted by it.

The built-in axiom sets of named_axioms are the texts of
ternary_operator.AXIOM_TEXTS, which the operator checkers sweep.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .boolean_core import (
    FiniteBooleanAlgebra,
    apply_automorphism,
    automorphisms,
)
from .contact_relation import TernaryRelation, is_eca, op_to_rel, rel_to_op
from .errors import SizeCapError
from .terms import Sentence, holds, parse_axiom_file
from .ternary_operator import AXIOM_TEXTS, DEFAULT_SEED, TernaryOperator, smallest_diamond

ENUM_MAX_ATOMS_EXACT = 2
ENUM_MAX_ATOMS_ECAS = 3

def named_axioms(name: str) -> list[Sentence]:
    """Built-in axiom sets: 3bamo, psi (= 3bamo + pi), strict (= psi + strictness)."""
    if name == "3bamo":
        return parse_axiom_file(AXIOM_TEXTS["3bamo"])
    if name == "psi":
        return parse_axiom_file(AXIOM_TEXTS["3bamo"]) + parse_axiom_file(AXIOM_TEXTS["pi"])
    if name == "strict":
        return named_axioms("psi") + parse_axiom_file(AXIOM_TEXTS["strictness"])
    raise ValueError(f"unknown axiom set {name!r}")


def psi_axioms() -> list[Sentence]:
    return named_axioms("psi")


def sentence_holds_everywhere(axioms: list[Sentence], op: TernaryOperator) -> bool:
    return all(holds(s, op)[0] for s in axioms)


# ---------------------------------------------------------------------------
# canonical forms


def _images(alg: FiniteBooleanAlgebra, perm: tuple[int, ...]) -> list[int]:
    return [apply_automorphism(alg, perm, a) for a in range(alg.size)]


def permute_relation_bits(alg: FiniteBooleanAlgebra, perm: tuple[int, ...], bits: int) -> int:
    size = alg.size
    img = _images(alg, perm)
    out = 0
    idx = 0
    for pa in img:
        for pb in img:
            for pc in img:
                if bits >> idx & 1:
                    out |= 1 << ((pa * size + pb) * size + pc)
                idx += 1
    return out


def canonical_relation_bits(alg: FiniteBooleanAlgebra, bits: int) -> int:
    return min(permute_relation_bits(alg, p, bits) for p in automorphisms(alg))


def permute_operator_table(
    alg: FiniteBooleanAlgebra, perm: tuple[int, ...], table: tuple[int, ...]
) -> tuple[int, ...]:
    size = alg.size
    img = _images(alg, perm)
    pre = [0] * size
    for a, pa in enumerate(img):
        pre[pa] = a
    return tuple(
        img[table[(a * size + b) * size + c]] for a in pre for b in pre for c in pre
    )


def canonical_operator_table(alg: FiniteBooleanAlgebra, table: tuple[int, ...]) -> tuple[int, ...]:
    return min(permute_operator_table(alg, p, table) for p in automorphisms(alg))


# ---------------------------------------------------------------------------
# relation enumeration


def brute_force_relations(alg: FiniteBooleanAlgebra) -> list[TernaryRelation]:
    """Naive oracle: test every bitset.  Single-atom algebras only."""
    if alg.atom_count != 1:
        raise SizeCapError("brute force over all relation bitsets needs a single atom")
    out = []
    for bits in range(1 << alg.size ** 3):
        rel = TernaryRelation(alg, bits)
        if is_eca(rel):
            out.append(rel)
    return out


def enumerate_ecas(alg: FiniteBooleanAlgebra, workers: int = 1) -> list[TernaryRelation]:
    """All relations satisfying the entailment axioms, one canonical
    representative per automorphism orbit, sorted by canonical bitset.

    An entailment relation is op_to_rel of a relational pseudo-inference
    operator, and that operator is fixed by its {0, top} values on atom
    pairs, so the candidates are the {0, top}-valued atom-pair tables
    (1, 2 and 27 of them at one, two and three atoms), each kept when its
    relation passes check_eca.  Exact through three atoms; larger algebras
    are refused.

    ``workers`` selects nothing.  It is kept only because
    ``bench/workloads.py`` calls ``enumerate_ecas(alg, workers=w)``; drop
    it together with that file's ``enumerate_ecas:k3:w2`` operation.
    """
    if alg.atom_count > ENUM_MAX_ATOMS_ECAS:
        raise SizeCapError("relation enumeration capped at 3 atoms")
    rels = (op_to_rel(op) for op in _atom_pair_operators(alg, (0, alg.top)))
    found = {canonical_relation_bits(alg, r.bits) for r in rels if is_eca(r)}
    return [TernaryRelation(alg, bits) for bits in sorted(found)]


# ---------------------------------------------------------------------------
# operator enumeration


@dataclass(frozen=True)
class OperatorEnumeration:
    operators: tuple[TernaryOperator, ...]
    label: str

    @property
    def exhaustive(self) -> bool:
        return not self.label.startswith("sampled")


def brute_force_operators(
    alg: FiniteBooleanAlgebra, axioms: list[Sentence]
) -> list[TernaryOperator]:
    """Naive oracle over every table; single-atom algebras only."""
    if alg.atom_count != 1:
        raise SizeCapError("brute force over all operator tables needs a single atom")
    n = alg.size ** 3
    out = []
    for packed in range(alg.size ** n):
        table = []
        x = packed
        for _ in range(n):
            table.append(x % alg.size)
            x //= alg.size
        op = TernaryOperator(alg, tuple(table))
        if sentence_holds_everywhere(axioms, op):
            out.append(op)
    return out


def enumerate_operators(
    alg: FiniteBooleanAlgebra,
    axioms: list[Sentence],
    mode: str = "auto",
    sample_count: int = 200,
    seed: int = DEFAULT_SEED,
) -> OperatorEnumeration:
    """Operator tables satisfying every sentence of ``axioms``, canonical
    up to automorphism.

    Modes: "exhaustive" (single atom only; anything larger is refused
    outright rather than silently sampled), "relational" (tables valued in
    {0, top}, via the relation enumerator and under its 3-atom cap),
    "sampled" (seeded, labelled, never claimed exhaustive).  "auto" picks
    exhaustive for one atom and relational above.
    """
    if mode == "auto":
        mode = "exhaustive" if alg.atom_count == 1 else "relational"
    if mode == "exhaustive":
        if alg.atom_count != 1:
            raise SizeCapError(
                "exhaustive operator enumeration is infeasible beyond one atom; "
                "request relational or sampled mode explicitly"
            )
        ops = brute_force_operators(alg, axioms)
        tables = sorted({canonical_operator_table(alg, op.table) for op in ops})
        return OperatorEnumeration(
            tuple(TernaryOperator(alg, t) for t in tables), "exhaustive"
        )
    if mode == "relational":
        ops = [rel_to_op(rel) for rel in enumerate_ecas(alg)]
        ops = [op for op in ops if sentence_holds_everywhere(axioms, op)]
        tables = sorted({canonical_operator_table(alg, op.table) for op in ops})
        return OperatorEnumeration(
            tuple(TernaryOperator(alg, t) for t in tables), "relational-exhaustive"
        )
    if mode == "sampled":
        rng = random.Random(seed)
        base = smallest_diamond(alg)
        candidates: list[tuple[int, ...]] = []
        # random tables rarely satisfy the laws; join random relational
        # tables onto the least pseudo-inference operator to keep yield up
        relational_pool = (
            [rel_to_op(rel) for rel in enumerate_ecas(alg)]
            if alg.atom_count <= ENUM_MAX_ATOMS_EXACT
            else []
        )
        for _ in range(sample_count):
            table = tuple(rng.randrange(alg.size) for _ in range(alg.size ** 3))
            candidates.append(table)
            if relational_pool:
                other = rng.choice(relational_pool)
                candidates.append(
                    tuple(x | y for x, y in zip(base.table, other.table))
                )
        kept = set()
        for table in candidates:
            op = TernaryOperator(alg, table)
            if sentence_holds_everywhere(axioms, op):
                kept.add(canonical_operator_table(alg, table))
        return OperatorEnumeration(
            tuple(TernaryOperator(alg, t) for t in sorted(kept)),
            f"sampled(seed={seed})",
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# structured pseudo-inference tables
#
# The distribution laws make any candidate determined by its values on atom
# pairs: dia(a, b, c) is the join of m(u, v, c) over atoms u <= a, v <= b.
# Conversely the axioms force m symmetric, monotone in c, zero off the
# common support of u and v, and at least u on the diagonal, so sweeping
# exactly those maps and filtering with the full checker enumerates every
# pseudo-inference table (exhaustively for at most two atoms).


def _assemble_from_atom_maps(alg, m) -> TernaryOperator:
    """The table whose (a, b, c) entry joins m[(u, v)][c] over atoms u <= a
    and v <= b (0 where a map has no entry for c).  A pair keyed in one
    order only serves both orders."""
    size = alg.size
    rows = {(u, v): [vals.get(c, 0) for c in range(size)] for (u, v), vals in m.items()}
    for (u, v) in m:
        rows.setdefault((v, u), rows[(u, v)])
    below = [[u for u in alg.atoms() if a & u] for a in range(size)]
    table = []
    for a in range(size):
        for b in range(size):
            out = [0] * size
            for u in below[a]:
                for v in below[b]:
                    out = [x | y for x, y in zip(out, rows[(u, v)])]
            table.extend(out)
    return TernaryOperator(alg, tuple(table))


def _atom_pair_supports(alg) -> dict[tuple[int, int], list[int]]:
    atoms = alg.atoms()
    return {
        (u, v): [c for c in alg.elements() if c & u and c & v]
        for i, u in enumerate(atoms)
        for v in atoms[i:]
    }


def _monotone_ok(support: list[int], m: dict[int, int]) -> bool:
    return all(
        m[c] & m[c2] == m[c]
        for c in support
        for c2 in support
        if c & c2 == c
    )


def _atom_pair_operators(alg: FiniteBooleanAlgebra, values):
    """Every table assembled from one map per atom pair whose entries lie
    in ``values``, monotone in c, and at least u on the diagonal (u, u)."""
    supports = _atom_pair_supports(alg)
    pairs = list(supports)
    per_pair: list[list[dict[int, int]]] = []
    for (u, v) in pairs:
        sup = supports[(u, v)]
        options = []
        for assign in product(values, repeat=len(sup)):
            m = dict(zip(sup, assign))
            if not _monotone_ok(sup, m):
                continue
            if u == v and not all((u & c) & m[c] == (u & c) for c in sup):
                continue
            options.append(m)
        per_pair.append(options)
    for combo in product(*per_pair):
        yield _assemble_from_atom_maps(alg, dict(zip(pairs, combo)))


def enumerate_psi_operators(alg: FiniteBooleanAlgebra) -> list[TernaryOperator]:
    """Every pseudo-inference table on the algebra, canonically ordered.

    Exhaustive by the atom-pair decomposition; capped at two atoms, where
    the candidate space is still desk-scale.
    """
    if alg.atom_count > ENUM_MAX_ATOMS_EXACT:
        raise SizeCapError("exhaustive pseudo-inference enumeration capped at 2 atoms")
    found = {
        canonical_operator_table(alg, op.table)
        for op in _atom_pair_operators(alg, range(alg.size))
        if check_psi_quiet(op)
    }
    return [TernaryOperator(alg, t) for t in sorted(found)]


def check_psi_quiet(op: TernaryOperator) -> bool:
    from .ternary_operator import check_3bamo, check_psi

    return check_3bamo(op).passed and check_psi(op).passed


def sample_psi_operators(
    alg: FiniteBooleanAlgebra, count: int, seed: int = DEFAULT_SEED, attempts: int = 400
) -> list[TernaryOperator]:
    """Seeded pseudo-inference samples via random structured atom maps,
    filtered by the full checker.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    supports = _atom_pair_supports(alg)
    pairs = list(supports)
    found: dict[tuple[int, ...], TernaryOperator] = {}
    by_popcount = sorted(alg.elements(), key=lambda c: (bin(c).count("1"), c))
    for _ in range(attempts):
        if len(found) >= count:
            break
        m: dict[tuple[int, int], dict[int, int]] = {}
        for (u, v) in pairs:
            sup = supports[(u, v)]
            vals: dict[int, int] = {}
            for c in by_popcount:
                if c not in sup:
                    continue
                lower = 0
                for c2 in sup:
                    if c2 != c and c2 & c == c2 and c2 in vals:
                        lower |= vals[c2]
                if u == v:
                    lower |= u & c
                vals[c] = lower | rng.randrange(alg.size)
            m[(u, v)] = vals
        op = _assemble_from_atom_maps(alg, m)
        if check_psi_quiet(op):
            found.setdefault(op.table, op)
    return list(found.values())


def sample_3bamos(
    alg: FiniteBooleanAlgebra, count: int, seed: int = DEFAULT_SEED, attempts: int = 400
) -> list[TernaryOperator]:
    """Seeded monotone-operator samples: independent random monotone maps
    per ordered atom pair, assembled by joins (the distribution laws then
    hold by construction; the checker confirms)."""
    from .ternary_operator import check_3bamo

    rng = random.Random(seed)
    atoms = alg.atoms()
    by_popcount = sorted(alg.elements(), key=lambda c: (bin(c).count("1"), c))
    found: dict[tuple[int, ...], TernaryOperator] = {}
    for _ in range(attempts):
        if len(found) >= count:
            break
        m: dict[tuple[int, int], dict[int, int]] = {}
        for u in atoms:
            for v in atoms:
                vals = {0: 0}
                for c in by_popcount:
                    if c == 0:
                        continue
                    lower = 0
                    for c2 in alg.elements():
                        if c2 != c and c2 & c == c2 and c2 in vals:
                            lower |= vals[c2]
                    vals[c] = lower | rng.randrange(alg.size)
                m[(u, v)] = vals
        op = _assemble_from_atom_maps(alg, m)
        if check_3bamo(op).passed:
            found.setdefault(op.table, op)
    return list(found.values())


# ---------------------------------------------------------------------------
# counterexample search


@dataclass(frozen=True)
class CounterexampleResult:
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
) -> CounterexampleResult:
    """First structure (in canonical enumeration order) falsifying the
    sentence, or a certificate that the swept space contains none."""
    enum = enumerate_operators(alg, axioms, mode=mode)
    for op in enum.operators:
        ok, assignment = holds(sentence, op)
        if not ok:
            return CounterexampleResult(
                True, len(enum.operators), enum.label, op, assignment
            )
    return CounterexampleResult(False, len(enum.operators), enum.label)
