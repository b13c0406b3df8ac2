"""The atom-cover deciders agree with the full sweeps of their laws, and
the verdict-only is_eca/is_extca agree with the reports.

MO2-MO4 and EC0 are decided on rows with an atom parameter u, and their
own sentences are swept only to name a witness.  check_3bamo and
check_eca would hide a wrong decider (a false failure falls back to the
full sweep), so the deciders are compared here directly."""
import random
from itertools import product

import pytest

from psiforge import (
    TernaryRelation,
    check_eca,
    check_extca,
    enumerate_ecas,
    example_3bamo,
    is_eca,
    is_extca,
    largest_eca,
    make_algebra,
    smallest_diamond,
)
from psiforge.contact_relation import _chi_table, _holds, _witness
from psiforge.enumeration import sample_3bamos
from psiforge.ternary_operator import TernaryOperator, _atom_form_holds, _sweep


def _operators(k, rng, count):
    """Random tables of every density, the monotone samples, and one- and
    two-entry near-misses of them; many of all three kinds fail MO1."""
    alg = make_algebra(k)
    size, n = alg.size, alg.size ** 3
    bases = [smallest_diamond(alg).table] + [op.table for op in sample_3bamos(alg, count=4, seed=k)]
    bases += [example_3bamo().table] if k == 2 else []
    tables = list(bases)
    for _ in range(count):
        density = rng.random()
        tables.append([rng.randrange(size) if rng.random() < density else 0 for _ in range(n)])
    for _ in range(count):
        table = list(rng.choice(bases))
        for _ in range(rng.choice((1, 2))):
            table[rng.randrange(n)] = rng.randrange(size)
        tables.append(table)
    return [TernaryOperator(alg, tuple(t)) for t in tables]


def _relations(k, rng, count):
    """Random relations of every density, the ECAs, and one- and two-bit
    flips of them."""
    alg = make_algebra(k)
    n = alg.size ** 3
    bases = [largest_eca(alg).bits] + [r.bits for r in enumerate_ecas(alg)]
    rels = list(bases)
    for _ in range(count):
        density = rng.random()
        rels.append(sum(1 << i for i in range(n) if rng.random() < density))
    for _ in range(count):
        bits = rng.choice(bases)
        for _ in range(rng.choice((1, 2))):
            bits ^= 1 << rng.randrange(n)
        rels.append(bits)
    return [TernaryRelation(alg, bits) for bits in rels]


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_mo_atom_forms_decide_mo2_to_mo4(k, count):
    verdicts = set()
    for op in _operators(k, random.Random(k), count):
        mo1 = _sweep(op, "MO1").passed
        for axiom in ("MO2", "MO3", "MO4"):
            verdict = _sweep(op, axiom).passed
            assert _atom_form_holds(op, f"{axiom}-atom") == verdict, (axiom, op.table)
            verdicts.add((axiom, mo1, verdict))
    # each law passes and fails, both with and without MO1, except that on
    # one atom MO1 implies MO2-MO4
    laws = ("MO2", "MO3", "MO4")
    expected = set(product(laws, (False, True), (False, True)))
    assert verdicts == (expected - set(product(laws, (True,), (False,))) if k == 1 else expected)


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_ec0_cover_decides_ec0(k, count):
    verdicts = set()
    for rel in _relations(k, random.Random(k), count):
        chi = _chi_table(rel)
        verdict = _witness(rel, chi, "EC0") is None
        assert _holds(rel, chi, "EC0") == verdict, rel.bits
        verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("k,count", [(1, 200), (2, 200), (3, 60)])
def test_verdict_only_path_agrees_with_reports(k, count):
    first_failures = set()
    for rel in _relations(k, random.Random(k + 10), count):
        eca, extca = check_eca(rel), check_extca(rel)
        assert is_eca(rel) == eca.passed and is_extca(rel) == extca.passed, rel.bits
        first_failures.add(next((r.axiom for r in eca.results if not r.passed), None))
    # the walk passes, and stops at EC0, EC1 and at least one later law
    assert {"EC0", "EC1", None} < first_failures
