"""Ternary operator tables and the operator-side axiom checkers.

An operator is a total table A^3 -> A.  No axiom is assumed at
construction: the checkers below decide MO1-MO4 (weakly normal monotone
behaviour), PI1-PI4 (pseudo-inference), R1/R2/S (strictness), the
relational property, and the unary/ternary discriminator contract, each
reporting a concrete witness on failure.

Each law is stated once, as rows of sentences in LAW_ROWS (terms' one
row format), and AXIOM_SETS lists the laws of each built-in axiom set,
keyed by the report kind of its checker ("3bamo", "psi", "strict");
enumeration.named_axioms parses the same rows.  Each law has one
decider, planes.LAWS[law], exact on every table by whole-table tests on
the table's bytes (masks, shifts and byte-wise lookups; PI1, R1 and R2
one (a, b) row or column at a time).  It gives None when the law holds,
else the prefix of the law's first witness, and report.decided turns
that answer into the law's result, sweeping the law's rows (MO1 its
three in turn) with the prefix bound, over the remaining variables only.
report.swept sweeps the rows in full, as the reference (_sweep) and for
the PI2 forms of check_pi2_equivalents.

Witness order.  Sweeps run in ascending mask order and report the first
violating tuple.  The five-variable cut axiom PI1 reports the first
violation of the top-down (descending mask order) sweep: its canonical
counterexamples live near the top, and this order matches the standard
four-element counterexample exactly.
"""
from __future__ import annotations

from functools import lru_cache

from .boolean_core import FiniteBooleanAlgebra, _first_entry, algebra_from_json, json_int, make_algebra
from .errors import PreconditionError
from .report import AxiomResult, CheckReport, Record, cached_hash, decided, first_violation, result, run_memo, swept

DEFAULT_SEED = 0xEC0


class TernaryOperator(Record):
    """Dense table for a candidate diamond, indexed in row-major (a, b, c) order."""

    alg: FiniteBooleanAlgebra
    table: tuple[int, ...]
    __hash__ = cached_hash

    def __init__(self, alg: FiniteBooleanAlgebra, table: tuple[int, ...]):
        size = alg.size
        if len(table) != size ** 3:
            raise ValueError(f"table must have {size ** 3} entries, got {len(table)}")
        # one bytes pass deletes every in-carrier entry; where bytes() refuses
        # an entry or one is left over, the scan names the first bad entry
        try:
            bad = bytes(table).translate(None, bytes(range(size)))
        except (TypeError, ValueError):
            bad = True
        if bad and (min(table) < 0 or max(table) >= size):
            for v in table:
                if not alg.contains(v):
                    raise ValueError(f"table value {v} outside carrier")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "table", table)

    def __call__(self, a: int, b: int, c: int) -> int:
        size = self.alg.size
        return self.table[(a * size + b) * size + c]

    def pointwise_leq(self, other: "TernaryOperator") -> bool:
        return all(x & y == x for x, y in zip(self.table, other.table))

    def to_json(self) -> dict:
        return {"alg": self.alg.to_json(), "table": list(self.table)}


def operator_from_function(alg: FiniteBooleanAlgebra, fn) -> TernaryOperator:
    size = alg.size
    table = tuple(
        fn(a, b, c) for a in range(size) for b in range(size) for c in range(size)
    )
    return TernaryOperator(alg, table)


def operator_from_json(data: dict) -> TernaryOperator:
    alg = algebra_from_json(data["alg"])
    return TernaryOperator(alg, tuple(json_int(v, "table entry") for v in data["table"]))


def smallest_diamond(alg: FiniteBooleanAlgebra) -> TernaryOperator:
    """The operator (a, b, c) |-> a & b & c.

    This is the pointwise-least operator satisfying the pseudo-inference
    axioms on any Boolean algebra.
    """
    return operator_from_function(alg, lambda a, b, c: a & b & c)


def constant_operator(alg: FiniteBooleanAlgebra, value: int) -> TernaryOperator:
    return operator_from_function(alg, lambda a, b, c: value)


# The four-element counterexample separating monotone ternary operators
# from pseudo-inference ones: all MO axioms hold but PI1 fails.  Atoms:
# a = mask 1, b = not a = mask 2, top = mask 3.  Entries not listed are 0.
_EXAMPLE_3BAMO_NONZERO = {
    (3, 3, 3): 3, (3, 3, 1): 1, (3, 3, 2): 3,
    (3, 1, 3): 3, (3, 1, 1): 1,
    (3, 2, 3): 3, (3, 2, 2): 3,
    (1, 3, 3): 3, (1, 3, 1): 1,
    (1, 1, 3): 3, (1, 1, 1): 1,
    (2, 3, 3): 3, (2, 3, 2): 3,
    (2, 2, 3): 3, (2, 2, 2): 3,
}


def example_3bamo() -> TernaryOperator:
    """The fixed 15-nonzero-entry table on the four-element algebra."""
    alg = make_algebra(2)
    return operator_from_function(
        alg, lambda a, b, c: _EXAMPLE_3BAMO_NONZERO.get((a, b, c), 0)
    )


def example_3bamo_nonzero_entries() -> dict[tuple[int, int, int], int]:
    return dict(_EXAMPLE_3BAMO_NONZERO)


def mu(op: TernaryOperator, z: int) -> int:
    """mu(z) = not dia(1,1,not z) and not dia(1,not z,1)."""
    alg = op.alg
    nz = alg.neg(z)
    t = alg.top
    return alg.neg(op(t, t, nz)) & alg.neg(op(t, nz, t))


def mu_iter(op: TernaryOperator, z: int, l: int) -> int:
    """l-fold iteration of mu; l = 0 is the identity."""
    if l < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(l):
        z = mu(op, z)
    return z


def box_op(op: TernaryOperator, x: int, y: int, z: int) -> int:
    """box(x,y,z) = not dia(not x, not y, not z)."""
    alg = op.alg
    return alg.neg(op(alg.neg(x), alg.neg(y), alg.neg(z)))


def discriminator_d(op: TernaryOperator, x: int) -> int:
    """d(x) = not mu(not x)."""
    alg = op.alg
    return alg.neg(mu(op, alg.neg(x)))


def discriminator_t(op: TernaryOperator, a: int, b: int, c: int) -> int:
    """t(x,y,z) = (x and d(x xor y)) or (z and not d(x xor y))."""
    alg = op.alg
    dv = discriminator_d(op, a ^ b)
    return (a & dv) | (c & alg.neg(dv))


# Operator laws: law -> rows (sentence, witness order, top-down), swept
# in turn by terms.first_witness; the first failure wins.  Witness orders
# may name the constants 0 and 1; R2's differs from the order in which its
# sentence introduces the variables (x, a, y, b).
LAW_ROWS = {
    # weak normality and monotone distribution laws
    "MO1": (
        ("dia(0, b, c) = 0", "0bc", False),
        ("dia(a, 0, c) = 0", "a0c", False),
        ("dia(a, b, 0) = 0", "ab0", False),
    ),
    "MO2": (("dia(a or x, b, c) = dia(a, b, c) or dia(x, b, c)", "axbc", False),),
    "MO3": (("dia(a, b or x, c) = dia(a, b, c) or dia(a, x, c)", "abxc", False),),
    "MO4": (("dia(a, b, c) or dia(a, b, x) <= dia(a, b, c or x)", "abcx", False),),
    # pseudo-inference laws; the cut PI1 is swept top-down
    "PI1": (("dia(a, b, f) <= dia(a, b, not d) or dia(a, b, not e) or dia(d, e, f)", "abfde", True),),
    "PI2": (("dia(a, b, not a) = 0", "ab", False),),
    "PI3": (("a and f <= dia(a, a, f)", "af", False),),
    "PI4": (("dia(a, b, f) <= dia(b, a, f)", "abf", False),),
    # strictness laws
    "R1": (("dia(x, y, a) and not dia(x, y, b) <= dia(1, 1, a and not b)", "xyab", False),),
    "R2": (("dia(x, a, y) and not dia(x, b, y) <= dia(1, a and not b, 1)", "xaby", False),),
    "S": (("dia(a, b, c) <= mu(dia(a, b, c))", "abc", False),),
    # the equivalent forms of PI2 that check_pi2_equivalents compares
    "PI2-top-form": (("dia(a, 1, not a) = 0", "a", False),),
    "PI2-quasi": (("a and f = 0 => dia(a, b, f) = 0", "afb", False),),
    "PI2-quasi-top": (("a and f = 0 => dia(a, 1, f) = 0", "af", False),),
}

# The built-in axiom sets, as laws of LAW_ROWS in order, keyed by the
# report kind of their checker (check_3bamo, check_psi, check_strict).
# enumeration.named_axioms parses a prefix of this dict row by row.
AXIOM_SETS = {
    "3bamo": ("MO1", "MO2", "MO3", "MO4"),
    "psi": ("PI1", "PI2", "PI3", "PI4"),
    "strict": ("R1", "R2", "S"),
}


def _sweep(op: TernaryOperator, axiom: str) -> AxiomResult:
    """The law's rows swept in full, as the reference for its decider."""
    return swept(axiom, LAW_ROWS[axiom], op.table, op.alg.top)


def _check(op: TernaryOperator, kind: str) -> CheckReport:
    """Each law of AXIOM_SETS[kind] decided by planes.LAWS; a failing
    law's rows are swept past the prefix it gives, to name the rest of
    the witness."""
    # imported at first use: most verbs check no operator law
    from .planes import LAWS

    raw, size, top = bytes(op.table), op.alg.size, op.alg.top
    return CheckReport(kind, tuple(
        decided(axiom, LAWS[axiom](raw, size), LAW_ROWS[axiom], op.table, top) for axiom in AXIOM_SETS[kind]
    ))


def check_3bamo(op: TernaryOperator) -> CheckReport:
    """Check MO1-MO4, exactly at every size.

    MO1: the operator is 0 whenever some argument is 0 (witness (0, b, c),
    else (a, 0, c), else (a, b, 0)).
    MO2/MO3: it distributes over join in the first and second coordinate
    (witnesses (a, x, b, c) and (a, b, x, c)).
    MO4: dia(a,b,c) or dia(a,b,x) <= dia(a,b,c or x)   (witness a,b,c,x).

    Each is decided on planes of the table, with no law assumed.  MO1
    reads the three zero-argument planes.  MO2 holds iff dia(a or u, b, c)
    = dia(a, b, c) or dia(u, b, c) for every atom u and every a lacking u:
    that gives dia(0, b, c) <= dia(u, b, c), the instances with u <= a,
    and, by induction on the atoms of x, the law; it is one test per
    atom: the planes lacking u, shifted onto those holding it and joined
    with plane u, must equal them.  MO3 likewise.  MO4 says dia is monotone in c, so it holds
    iff dia(a, b, c) <= dia(a, b, c or u) for every atom u, by chains of
    single-atom covers: one shift-and-mask test per atom.  A failing test
    gives the first failing (a, x) (MO2), a (MO3) or (a, b) (MO4), and
    only the remaining variables are swept to name the witness.
    """
    return _check(op, "3bamo")


@run_memo
def check_psi(op: TernaryOperator) -> CheckReport:
    """Check PI1-PI4, exactly at every size.

    PI1 is decided one (a, b) pair at a time, from the row dia(a, b, .)
    and the (d, e) planes of the table.  Where MO1-MO3 hold (decided
    first, as in check_3bamo) the atom pairs suffice: dia(a, b, f) joins
    dia(u, v, f) over atoms u <= a, v <= b, and each right-hand side of
    PI1 at (u, v) lies below the one at (a, b); otherwise every pair is
    tested.  The witness (a, b, f, d, e) is the first violation of the
    top-down sweep: the first failing pair in top-down order, swept
    top-down over (f, d, e).  PI2, PI3 and PI4 are decided on planes
    (the (a, b, not a) entries, the diagonal (a, a, f), the (a, b)
    transpose) whose lowest failing entry is the witness, (a, b), (a, f)
    or (a, b, f).
    """
    return _check(op, "psi")


def _require_psi(op: TernaryOperator, caller: str) -> None:
    check_psi(op).require(PreconditionError, f"{caller} requires a pseudo-inference operator")


def check_pi2_equivalents(op: TernaryOperator) -> CheckReport:
    """Evaluate PI2 and its three equivalent forms independently.

    The four are provably equivalent on any operator passing check_3bamo
    (a documented precondition, not enforced); the final
    "PI2-agreement" result records whether the verdicts in fact agreed.
    """
    results = [_sweep(op, law) for law in ("PI2", "PI2-top-form", "PI2-quasi", "PI2-quasi-top")]
    if not results[2].passed:  # swept in the order (a, f, b), reported as (a, b, f)
        a, f, b = results[2].witness
        results[2] = result("PI2-quasi", (a, b, f))
    verdicts = tuple(r.passed for r in results)
    agree = all(verdicts) or not any(verdicts)
    results.append(result("PI2-agreement", None if agree else (), f"verdicts {verdicts}"))
    return CheckReport("pi2-equivalents", tuple(results))


@run_memo
def check_strict(op: TernaryOperator) -> CheckReport:
    """Check the strictness equations R1, R2 and S.

    R1: dia(x,y,a) and not dia(x,y,b) <= dia(1,1,a and not b)   (witness x,y,a,b)
    R2: dia(x,a,y) and not dia(x,b,y) <= dia(1,a and not b,1)   (witness x,a,b,y)
    S:  dia(a,b,c) <= mu(dia(a,b,c))                            (witness a,b,c)

    All three are decided exactly at every size on planes.  R1 is one test
    per row (x, y) on the (a, b) grid.  Where MO1-MO3 hold (decided as in
    check_3bamo) the k^2 atom pairs (x, y) suffice: dia(x, y, a) is the
    join of dia(u, v, a) over atoms u <= x, v <= y, and dia(u, v, b) <=
    dia(x, y, b), so dia(x, y, a) and not dia(x, y, b) lies below the
    join of dia(u, v, a) and not dia(u, v, b), and R1's right side does
    not depend on (x, y).  R2 is likewise one test per column (x, y),
    and where MO1-MO3 hold it holds iff dia(x, a, y) <= dia(1, a, 1)
    everywhere, one test on the whole table: that is R2 at b = 0, and
    since dia(x, a, y) is the join of dia(x, a and b, y) <= dia(x, b, y)
    and dia(x, a and not b, y), it gives R2.  S is one test against the
    table mapped byte by byte through mu, naming its witness.  The sweeps
    run past R1's first failing row (x, y), an atom pair under MO1-MO3,
    and R2's first failing x (R2 fails at (x, a, b, y) iff the bound
    does at (x, a and not b, y)).
    """
    return _check(op, "strict")


@run_memo
def is_relational(op: TernaryOperator) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff every table entry is 0 or top; else the first offending triple."""
    first = _non_relational(bytes(op.table), op.alg.top)
    return first is None, first


def _non_relational(raw: bytes, top: int) -> tuple[int, int, int] | None:
    """The first (a, b, c) of a byte table whose entry is neither 0 nor
    top; None if there is none.  One pass over the bytes: 1 marks such an
    entry."""
    return _first_entry(int.from_bytes(raw.translate(_non_relational_marks(top)), "little"), top + 1)


@lru_cache(maxsize=None)
def _non_relational_marks(top: int) -> bytes:
    return bytes(v not in (0, top) for v in range(256))


def discriminator_check(op: TernaryOperator) -> CheckReport:
    """Verify the discriminator contract of d(x) = not mu(not x).

    d-contract: d(0) = 0 and d(x) = top for x != 0.
    t-contract: the ternary term rebuilt from d satisfies t(a,b,c) = a when
    a != b and = c when a = b.
    """
    alg = op.alg
    elements = alg.elements()
    r_d = first_violation(
        "d-contract",
        ((x,) for x in elements if discriminator_d(op, x) != (alg.top if x else 0)),
    )
    r_t = first_violation(
        "t-contract",
        (
            (a, b, c)
            for a in elements
            for b in elements
            for c in elements
            if discriminator_t(op, a, b, c) != (a if a != b else c)
        ),
    )
    return CheckReport("discriminator", (r_d, r_t))
