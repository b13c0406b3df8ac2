"""Ternary operator tables and the operator-side axiom checkers.

An operator is a total table A^3 -> A.  No axiom is assumed at
construction: the checkers below decide MO1-MO4 (weakly normal monotone
behaviour), PI1-PI4 (pseudo-inference), R1/R2/S (strictness), the
relational property, and the unary/ternary discriminator contract, each
reporting a concrete witness on failure.

MO1-MO4, PI1-PI4, R1, R2 and S are checked by compiling their sentences
in enumeration.AXIOM_TEXTS (terms.compile_sweep); MO1 is its three
sentences swept in turn.

Witness order.  Bounded sweeps run in ascending mask order and report the
first violating tuple.  The five-variable cut axiom PI1, decided on atom
pairs, reports the first violation of the top-down (descending mask
order) sweep up to PI1_TOP_DOWN_MAX_ATOMS atoms: its canonical
counterexamples live near the top, and this order matches the standard
four-element counterexample exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .boolean_core import FiniteBooleanAlgebra, algebra_from_json, make_algebra
from .errors import SizeCapError
from .report import AxiomResult, CheckReport, failed, first_violation, passed

# PI1 quantifies five variables.  Its verdict is exact at every size; the
# top-down witness sweep over all |A|^5 tuples stops at this atom count.
PI1_TOP_DOWN_MAX_ATOMS = 4
DEFAULT_SEED = 0xEC0


@dataclass(frozen=True)
class TernaryOperator:
    """Dense table for a candidate diamond, indexed in row-major (a, b, c) order."""

    alg: FiniteBooleanAlgebra
    table: tuple[int, ...]

    def __post_init__(self):
        size = self.alg.size
        if len(self.table) != size ** 3:
            raise ValueError(f"table must have {size ** 3} entries, got {len(self.table)}")
        for v in self.table:
            if not self.alg.contains(v):
                raise ValueError(f"table value {v} outside carrier")

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
    return TernaryOperator(alg, tuple(int(v) for v in data["table"]))


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


# Operator laws checked by a compiled sweep of their sentence, one row
# each: (axiom, sentence, witness order, top-down, params bound by the
# caller).  The sentence is an (axiom set, index) into
# enumeration.AXIOM_TEXTS, or the text of a PI2 or MO2/MO3 equivalent.
# Witness orders are explicit and may name the constants 0 and 1; R2's
# differs from the order in which its sentence introduces the variables
# (x, a, y, b).  An axiom's rows are swept in turn; the first failure wins.
_SWEEP_ROWS = (
    ("MO1", ("3bamo", 0), "0bc", False, ""),
    ("MO1", ("3bamo", 1), "a0c", False, ""),
    ("MO1", ("3bamo", 2), "ab0", False, ""),
    ("MO2", ("3bamo", 3), "axbc", False, ""),
    ("MO3", ("3bamo", 4), "abxc", False, ""),
    ("MO4", ("3bamo", 5), "abcx", False, ""),
    ("PI1", ("pi", 0), "fde", True, "ab"),
    ("PI2", ("pi", 1), "ab", False, ""),
    ("PI3", ("pi", 2), "af", False, ""),
    ("PI4", ("pi", 3), "abf", False, ""),
    ("R1", ("strictness", 0), "xyab", False, ""),
    ("R2", ("strictness", 1), "xaby", False, ""),
    ("S", ("strictness", 2), "abc", False, ""),
    ("PI2-top-form", "dia(a, 1, not a) = 0", "a", False, ""),
    ("PI2-quasi", "a and f = 0 => dia(a, b, f) = 0", "afb", False, ""),
    ("PI2-quasi-top", "a and f = 0 => dia(a, 1, f) = 0", "af", False, ""),
    ("MO2/MO3-atom", "dia(a or u, b, c) = dia(a, b, c) or dia(u, b, c)", "abc", False, "u"),
    ("MO2/MO3-atom", "dia(a, b or u, c) = dia(a, b, c) or dia(a, u, c)", "abc", False, "u"),
)


@lru_cache(maxsize=None)
def _row_sweeps(axiom: str) -> tuple:
    # imported at first use: terms and enumeration both import this module
    from .enumeration import AXIOM_TEXTS
    from .terms import compile_sweep, parse, parse_axiom_file

    sweeps = []
    for name, source, order, top_down, params in _SWEEP_ROWS:
        if name == axiom:
            if isinstance(source, str):
                sentence = parse(source)
            else:
                sentence = parse_axiom_file(AXIOM_TEXTS[source[0]])[source[1]]
            sweeps.append(compile_sweep(sentence, tuple(order), top_down, tuple(params)))
    return tuple(sweeps)


def _sweep(op: TernaryOperator, axiom: str) -> AxiomResult:
    for sweep in _row_sweeps(axiom):
        witness = sweep(op.table, op.alg.top)
        if witness is not None:
            return failed(axiom, witness)
    return passed(axiom)


def check_3bamo(op: TernaryOperator) -> CheckReport:
    """Exhaustive check of MO1-MO4.

    MO1: the operator is 0 whenever some argument is 0 (witness (0, b, c),
    else (a, 0, c), else (a, b, 0)).
    MO2/MO3: it distributes over join in the first and second coordinate
    (witnesses (a, x, b, c) and (a, b, x, c)).
    MO4: dia(a,b,c) or dia(a,b,x) <= dia(a,b,c or x)   (witness a,b,c,x).
    """
    return CheckReport("3bamo", tuple(_sweep(op, ax) for ax in ("MO1", "MO2", "MO3", "MO4")))


def check_psi(op: TernaryOperator) -> CheckReport:
    """Check PI1-PI4, exactly at every size.

    PI1 is decided on atom pairs: under MO1-MO3 (checked first, as MO1 and
    the atom forms of MO2/MO3), dia(a, b, f) joins dia(u, v, f) over atoms
    u <= a, v <= b, and each right-hand side of PI1 at (u, v) lies below
    the one at (a, b).  Its witness (a, b, f, d, e) is the first violation
    of the top-down sweep up to PI1_TOP_DOWN_MAX_ATOMS atoms.  Above that,
    a table satisfying MO1-MO3 reports its first atom-pair violation, with
    a note, and any other table is refused with SizeCapError.  PI2, PI3
    and PI4 report witnesses (a, b), (a, f) and (a, b, f).
    """
    results = [_check_pi1(op)] + [_sweep(op, ax) for ax in ("PI2", "PI3", "PI4")]
    return CheckReport("psi", tuple(results))


def _check_pi1(op: TernaryOperator) -> AxiomResult:
    alg, table, top = op.alg, op.table, op.alg.top
    (pi1,) = _row_sweeps("PI1")

    def first(pairs):
        return next(((a, b) + w for a, b in pairs if (w := pi1(table, top, a, b)) is not None), None)

    distributes = _sweep(op, "MO1").passed and all(
        sweep(table, top, u) is None for sweep in _row_sweeps("MO2/MO3-atom") for u in alg.atoms()
    )
    witness = first(product(alg.atoms()[::-1], repeat=2)) if distributes else None
    if distributes and witness is None:
        return passed("PI1")
    if alg.atom_count <= PI1_TOP_DOWN_MAX_ATOMS:
        witness = first(product(range(top, -1, -1), repeat=2))
        return passed("PI1") if witness is None else failed("PI1", witness)
    if not distributes:
        raise SizeCapError(
            f"PI1 above {PI1_TOP_DOWN_MAX_ATOMS} atoms is decided only for tables "
            "satisfying MO1-MO3, and this one does not (run check --kind 3bamo)"
        )
    note = f"atom-pair witness; the top-down witness sweep stops at {PI1_TOP_DOWN_MAX_ATOMS} atoms"
    return failed("PI1", witness, note)


def check_pi2_equivalents(op: TernaryOperator) -> CheckReport:
    """Evaluate PI2 and its three equivalent forms independently.

    The four are provably equivalent on any operator passing check_3bamo
    (a documented precondition, not enforced); the final
    "PI2-agreement" result records whether the verdicts in fact agreed.
    """
    r_pi2 = _sweep(op, "PI2")

    r_top = _sweep(op, "PI2-top-form")
    # swept in the order (a, f, b), reported as (a, b, f)
    r_quasi = _sweep(op, "PI2-quasi")
    if not r_quasi.passed:
        a, f, b = r_quasi.witness
        r_quasi = failed("PI2-quasi", (a, b, f))
    r_quasi_top = _sweep(op, "PI2-quasi-top")

    verdicts = (r_pi2.passed, r_top.passed, r_quasi.passed, r_quasi_top.passed)
    agree = all(verdicts) or not any(verdicts)
    note = f"verdicts {verdicts}"
    r_agree = AxiomResult("PI2-agreement", agree, None if agree else (), note)
    return CheckReport("pi2-equivalents", (r_pi2, r_top, r_quasi, r_quasi_top, r_agree))


def check_strict(op: TernaryOperator) -> CheckReport:
    """Check the strictness equations R1, R2 and S.

    R1: dia(x,y,a) and not dia(x,y,b) <= dia(1,1,a and not b)   (witness x,y,a,b)
    R2: dia(x,a,y) and not dia(x,b,y) <= dia(1,a and not b,1)   (witness x,a,b,y)
    S:  dia(a,b,c) <= mu(dia(a,b,c))                            (witness a,b,c)
    """
    return CheckReport("strict", tuple(_sweep(op, ax) for ax in ("R1", "R2", "S")))


def is_relational(op: TernaryOperator) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff every table entry is 0 or top; else the first offending triple."""
    alg = op.alg
    for a in alg.elements():
        for b in alg.elements():
            for c in alg.elements():
                v = op(a, b, c)
                if v != 0 and v != alg.top:
                    return False, (a, b, c)
    return True, None


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
