"""Every failed axiom's witness must re-evaluate to a violation.  The
re-evaluators here are written independently of the checkers (plain
definitional reads), so an optimized sweep with a wrong witness index
cannot slip through."""
import random
from itertools import chain, product

import pytest

from psiforge import (
    TernaryRelation,
    check_3bamo,
    check_eca,
    check_extca,
    check_psi,
    check_strict,
    enumerate_ecas,
    example_3bamo,
    largest_eca,
    make_algebra,
    mu,
    smallest_diamond,
)
from psiforge.enumeration import sample_3bamos
from psiforge.ternary_operator import TernaryOperator


def reevaluate_relation(rel, axiom, w):
    alg = rel.alg
    if axiom in ("EC0", "ExtCA0"):
        a, b, f, d = w
        return rel.holds(a, b, f) and not rel.holds(a | d, b, f | d)
    if axiom in ("EC1", "ExtCA1", "PI1"):
        a, b, d, e, f = w
        return (
            rel.holds(a, b, d)
            and rel.holds(a, b, e)
            and rel.holds(d, e, f)
            and not rel.holds(a, b, f)
        )
    if axiom == "EC2":
        a, b, f = w
        return not rel.holds(a, b, a | f)
    if axiom == "EC3":
        a, f = w
        return rel.holds(a, a, f) and not alg.leq(a, f)
    if axiom in ("EC4", "ExtCA4"):
        a, b, f = w
        return rel.holds(a, b, f) and not rel.holds(b, a, f)
    if axiom == "ExtCA2":
        a, b, f = w
        return alg.leq(a, f) and not rel.holds(a, b, f)
    if axiom == "ExtCA3":
        a, b, f = w
        return rel.holds(a, b, f) and not alg.leq(a & b, f)
    raise AssertionError(f"unknown axiom {axiom}")


def reevaluate_operator(op, axiom, w):
    alg = op.alg
    top = alg.top
    if axiom == "MO1":
        a, b, c = w
        return 0 in (a, b, c) and op(a, b, c) != 0
    if axiom == "MO2":
        a, x, b, c = w
        return op(a | x, b, c) != op(a, b, c) | op(x, b, c)
    if axiom == "MO3":
        a, b, x, c = w
        return op(a, b | x, c) != op(a, b, c) | op(a, x, c)
    if axiom == "MO4":
        a, b, c, x = w
        return not alg.leq(op(a, b, c) | op(a, b, x), op(a, b, c | x))
    if axiom == "PI1":
        a, b, f, d, e = w
        rhs = op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f)
        return not alg.leq(op(a, b, f), rhs)
    if axiom == "PI2":
        a, b = w
        return op(a, b, alg.neg(a)) != 0
    if axiom == "PI3":
        a, f = w
        return not alg.leq(a & f, op(a, a, f))
    if axiom == "PI4":
        a, b, f = w
        return not alg.leq(op(a, b, f), op(b, a, f))
    if axiom == "R1":
        x, y, a, b = w
        lhs = op(x, y, a) & alg.neg(op(x, y, b))
        return not alg.leq(lhs, op(top, top, a & alg.neg(b)))
    if axiom == "R2":
        x, a, b, y = w
        lhs = op(x, a, y) & alg.neg(op(x, b, y))
        return not alg.leq(lhs, op(top, a & alg.neg(b), top))
    if axiom == "S":
        a, b, c = w
        return not alg.leq(op(a, b, c), mu(op, op(a, b, c)))
    raise AssertionError(f"unknown axiom {axiom}")


@pytest.mark.parametrize("k,count", [(1, 300), (2, 600), (3, 60)])
def test_relation_witnesses_reevaluate(k, count):
    alg = make_algebra(k)
    rng = random.Random(k * 1000 + 7)
    n = alg.size ** 3
    failures_seen = 0
    for _ in range(count):
        rel = TernaryRelation(alg, rng.getrandbits(n))
        for report in (check_eca(rel), check_extca(rel)):
            for result in report.results:
                if not result.passed:
                    failures_seen += 1
                    assert reevaluate_relation(rel, result.axiom, result.witness), (
                        result.axiom,
                        result.witness,
                    )
    assert failures_seen > 0


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200)])
def test_operator_witnesses_reevaluate(k, count):
    alg = make_algebra(k)
    rng = random.Random(k * 77 + 1)
    n = alg.size ** 3
    failures_seen = 0
    for _ in range(count):
        table = tuple(rng.randrange(alg.size) for _ in range(n))
        op = TernaryOperator(alg, table)
        for report in (check_3bamo(op), check_psi(op), check_strict(op)):
            for result in report.results:
                if not result.passed:
                    failures_seen += 1
                    assert reevaluate_operator(op, result.axiom, result.witness), (
                        result.axiom,
                        result.witness,
                    )
    assert failures_seen > 0


def test_operator_witnesses_on_structured_near_misses():
    """Monotone tables perturbed by one entry: failures land in the PI/R/S
    laws rather than the MO ones, exercising those witnesses too."""
    alg = make_algebra(2)
    rng = random.Random(31)
    failures_seen = 0
    for base in sample_3bamos(alg, count=12, seed=13):
        table = list(base.table)
        spot = rng.randrange(len(table))
        table[spot] = rng.randrange(alg.size)
        op = TernaryOperator(alg, tuple(table))
        for report in (check_3bamo(op), check_psi(op), check_strict(op)):
            for result in report.results:
                if not result.passed:
                    failures_seen += 1
                    assert reevaluate_operator(op, result.axiom, result.witness)
    assert failures_seen > 0


def documented_sweep(axiom, top):
    """Every tuple in the order the checker documents for the axiom: MO1
    sweeps (0,b,c), then (a,0,c), then (a,b,0); the cuts PI1 and
    EC1/ExtCA1 run top-down; all other laws ascend in their witness order."""
    up = range(top + 1)
    if axiom == "MO1":
        return chain(
            ((0, b, c) for b in up for c in up),
            ((a, 0, c) for a in up for c in up),
            ((a, b, 0) for a in up for b in up),
        )
    if axiom in ("EC1", "ExtCA1", "PI1"):
        return product(range(top, -1, -1), repeat=5)
    arity = {"EC3": 2, "EC2": 3, "EC4": 3, "ExtCA2": 3, "ExtCA3": 3, "ExtCA4": 3}.get(axiom, 4)
    return product(up, repeat=arity)


def first_violation(reevaluate, structure, axiom):
    top = structure.alg.top
    return next((w for w in documented_sweep(axiom, top) if reevaluate(structure, axiom, w)), None)


def _relations(alg, rng, count):
    n = alg.size ** 3
    bases = [largest_eca(alg).bits] + [r.bits for r in enumerate_ecas(alg)]
    for _ in range(count):
        density = rng.random()
        yield TernaryRelation(alg, sum(1 << i for i in range(n) if rng.random() < density))
        bits = rng.choice(bases)
        for _ in range(rng.choice((1, 1, 2))):
            bits ^= 1 << rng.randrange(n)
        yield TernaryRelation(alg, bits)


def _operators(alg, rng, count):
    n = alg.size ** 3
    bases = [smallest_diamond(alg).table] + [op.table for op in sample_3bamos(alg, count=4, seed=3)]
    zero_arg = [i for i, (a, b, c) in enumerate(product(range(alg.size), repeat=3)) if 0 in (a, b, c)]
    for _ in range(count):
        yield TernaryOperator(alg, tuple(rng.randrange(alg.size) if rng.random() < 0.3 else 0 for _ in range(n)))
        table = list(rng.choice(bases))
        spots = range(n) if rng.random() < 0.3 else zero_arg  # mostly MO1 near-misses
        table[rng.choice(spots)] = rng.randrange(1, alg.size)
        yield TernaryOperator(alg, tuple(table))


@pytest.mark.parametrize("k,count", [(1, 150), (2, 100)])
def test_relation_witnesses_are_first_in_sweep(k, count):
    rng = random.Random(k * 31 + 5)
    failures_seen = set()
    for rel in _relations(make_algebra(k), rng, count):
        for report in (check_eca(rel), check_extca(rel)):
            for result in report.results:
                assert result.witness == first_violation(reevaluate_relation, rel, result.axiom), result.axiom
                if not result.passed:
                    failures_seen.add(result.axiom)
    assert len(failures_seen) == 10


@pytest.mark.parametrize("k,count", [(1, 150), (2, 100), (3, 15)])
def test_mo_witnesses_are_first_in_sweep(k, count):
    """MO1-MO4 and PI1 report the first violation of their documented
    sweep, on perturbed tables and on the unperturbed monotone samples they
    come from.  PI1 is decided on atom pairs only under MO1-MO3: at three
    atoms some near-misses pass PI1 on every atom pair yet fail it."""
    alg = make_algebra(k)
    rng = random.Random(k * 17 + 2)
    unperturbed = sample_3bamos(alg, count=4, seed=3) + ([example_3bamo()] if k == 2 else [])
    failures_seen = set()
    for op in chain(_operators(alg, rng, count), unperturbed):
        for result in check_3bamo(op).results + (check_psi(op).result("PI1"),):
            assert result.witness == first_violation(reevaluate_operator, op, result.axiom), result.axiom
            if not result.passed:
                failures_seen.add(result.axiom)
    assert {"MO1", "PI1"} <= failures_seen


@pytest.mark.parametrize("entry", [(3, 1, 2), (1, 3, 2)])
def test_pi1_needs_distribution_in_each_coordinate(entry):
    """The smallest diamond on two atoms with one entry raised from 0 to 2:
    MO1, PI1 at every atom pair and the distribution law of one coordinate
    still hold, the other coordinate's law fails, and so does PI1."""
    alg = make_algebra(2)
    table = tuple(
        2 if (a, b, c) == entry else a & b & c for a, b, c in product(range(alg.size), repeat=3)
    )
    op = TernaryOperator(alg, table)
    r = check_psi(op).result("PI1")
    assert not r.passed
    assert r.witness == first_violation(reevaluate_operator, op, "PI1")
