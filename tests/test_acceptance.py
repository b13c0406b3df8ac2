"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the per-criterion lines while running)."""
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from psiforge import (
    Filter,
    TernaryRelation,
    box_op,
    check_3bamo,
    check_eca,
    check_extca,
    check_psi,
    check_strict,
    classify_eca_morphism,
    discriminator_check,
    dual_frame,
    enumerate_ecas,
    enumerate_homs,
    enumerate_operators,
    example_3bamo,
    is_relational,
    is_simple,
    is_total,
    largest_eca,
    make_algebra,
    morphism_duality_check,
    mu,
    mu_iter,
    named_axioms,
    op_to_rel,
    posets_dual_iso_check,
    rel_to_op,
    smallest_diamond,
)
from psiforge.duality_frames import (
    box_r,
    check_psi_frame,
    check_psi_space,
    complex_algebra,
    diamond_r,
)
from psiforge.enumeration import (
    brute_force_operators,
    brute_force_relations,
    canonical_operator_table,
    canonical_relation_bits,
)
from psiforge.filter_congruence import (
    all_filters_classified,
    congruence_from_filter,
    congruence_respects_op,
    congruence_to_filter,
    filter_is_closed,
)
from psiforge.ternary_operator import example_3bamo_nonzero_entries
from psiforge.topo_models import eca_from_topology, random_topologies, three_point_space
from psiforge.verify import bamo_operator_pool, psi_operator_pool

SEED = 0xEC0


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    outcome = {"ok": True}
    try:
        yield outcome
    except Exception:
        outcome["ok"] = False
        raise
    finally:
        elapsed = time.perf_counter() - t0
        mark = "pass" if outcome["ok"] and elapsed < seconds else "FAIL"
        print(f"[{mark}] {name}  ({elapsed:.2f}s of {seconds}s budget)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def algs():
    return make_algebra(1), make_algebra(2)


@pytest.fixture(scope="module")
def enumerations(algs):
    alg1, alg2 = algs
    ecas = {1: enumerate_ecas(alg1), 2: enumerate_ecas(alg2)}
    rel_ops = {k: [rel_to_op(r) for r in ecas[k]] for k in ecas}
    return ecas, rel_ops


@pytest.fixture(scope="module")
def psi_pool():
    return psi_operator_pool(3, SEED)


def test_criterion_01_axiom_equivalence(algs):
    alg1, alg2 = algs
    with budget("criterion 1: eca/extca equivalence", 10):
        for bits in range(256):
            rel = TernaryRelation(alg1, bits)
            assert check_eca(rel).passed == check_extca(rel).passed
        rng = random.Random(SEED)
        for _ in range(10_000):
            rel = TernaryRelation(alg2, rng.getrandbits(64))
            assert check_eca(rel).passed == check_extca(rel).passed


def test_criterion_02_translation_bijection(algs, enumerations):
    alg1, alg2 = algs
    ecas, rel_ops = enumerations
    with budget("criterion 2: translation bijection", 30):
        for k, alg in ((1, alg1), (2, alg2)):
            for rel in ecas[k]:
                op = rel_to_op(rel)
                assert op_to_rel(op).bits == rel.bits
                assert is_relational(op)[0]
                assert check_psi(op).passed
            for op in rel_ops[k]:
                assert rel_to_op(op_to_rel(op)).table == op.table
            assert posets_dual_iso_check(alg, ecas[k]).passed


def test_criterion_03_strictness_simplicity(algs, enumerations):
    alg1, _ = algs
    _, rel_ops = enumerations
    with budget("criterion 3: strictness and simplicity", 60):
        for k in (1, 2):
            for op in rel_ops[k]:
                strict = check_strict(op)
                assert strict.result("R1").passed
                assert strict.result("R2").passed
                assert strict.result("S").passed
                assert is_simple(op)
                disc = discriminator_check(op)
                assert disc.result("d-contract").passed
                assert disc.result("t-contract").passed
        for op in enumerate_operators(alg1, named_axioms("psi")).operators:
            if is_simple(op) and check_strict(op).passed:
                assert is_relational(op)[0]
            if is_relational(op)[0]:
                assert is_simple(op) and check_strict(op).passed


def test_criterion_04_mu_properties(psi_pool, enumerations):
    _, rel_ops = enumerations
    with budget("criterion 4: mu property suite", 60):
        assert len(psi_pool) >= 20
        for op in psi_pool + rel_ops[1] + rel_ops[2]:
            alg = op.alg
            assert mu(op, 0) == 0
            for x in alg.elements():
                mx = mu(op, x)
                assert alg.leq(mx, x)
                assert (mx == alg.top) == (x == alg.top)
                for y in alg.elements():
                    if alg.leq(x, y):
                        assert alg.leq(mx, mu(op, y))
                for n in range(5):
                    assert alg.leq(mu_iter(op, x, n + 1), mu_iter(op, x, n))
            if check_strict(op).result("S").passed:
                for a in alg.elements():
                    nma = alg.neg(mu(op, a))
                    assert mu(op, nma) == nma
                    for l in range(5):
                        assert mu_iter(op, nma, l) == nma


def test_criterion_05_filter_suite(psi_pool):
    with budget("criterion 5: filter suite", 30):
        assert len(psi_pool) >= 20
        assert any(op.alg.atom_count == 3 for op in psi_pool)
        small_tables = {
            k: smallest_diamond(make_algebra(k)).table for k in (1, 2, 3)
        }
        assert all(
            any(op.alg.atom_count == k and op.table == t for op in psi_pool)
            for k, t in small_tables.items()
        )
        for op in psi_pool:
            alg = op.alg
            strict = check_strict(op)
            r1r2 = strict.result("R1").passed and strict.result("R2").passed
            for cf in all_filters_classified(op):
                if cf.is_closed:
                    assert cf.is_modal
                if r1r2 and cf.is_modal:
                    assert cf.is_closed
                assert cf.is_closed == cf.closed_via_su_mid
                assert cf.is_modal == cf.modal_via_generator
            for g in alg.elements():
                flt = Filter(alg, g)
                theta = congruence_from_filter(alg, flt)
                assert congruence_to_filter(theta).generator == g
                assert congruence_from_filter(
                    alg, congruence_to_filter(theta)
                ).reps == theta.reps
                assert congruence_respects_op(op, theta) == filter_is_closed(op, flt)


def test_criterion_06_duality_objects():
    with budget("criterion 6: duality object suite", 120):
        pool = bamo_operator_pool(3, SEED)
        tables = {(op.alg.atom_count, op.table) for op in pool}
        assert (2, example_3bamo().table) in tables
        assert (3, smallest_diamond(make_algebra(3)).table) in tables
        for op in pool:
            alg = op.alg
            frame = dual_frame(op, monotone=True)
            assert check_psi_frame(frame).passed
            for a in alg.elements():
                for b in alg.elements():
                    for c in alg.elements():
                        u = (a, b, c)
                        assert diamond_r(frame, u) == op(a, b, c)
                        assert box_r(frame, u) == box_op(op, a, b, c)
                        comp = (alg.neg(a), alg.neg(b), alg.neg(c))
                        assert box_r(frame, u) == alg.neg(diamond_r(frame, comp))
            psi_rep = check_psi(op)
            space_rep = check_psi_space(frame)
            for i in (1, 2, 3, 4):
                assert (
                    psi_rep.result(f"PI{i}").passed
                    == space_rep.result(f"PIF{i}").passed
                )
            _, back = complex_algebra(frame)
            assert back.table == op.table
            assert is_total(frame)[0] == is_relational(op)[0]


def test_criterion_07_example_regression():
    with budget("criterion 7: counterexample table regression", 1):
        op = example_3bamo()
        entries = example_3bamo_nonzero_entries()
        assert len(entries) == 15
        for (a, b, c), v in entries.items():
            assert op(a, b, c) == v
        assert sum(1 for v in op.table if v) == 15
        assert check_3bamo(op).passed
        rep = check_psi(op)
        pi1 = rep.result("PI1")
        assert not pi1.passed
        assert pi1.witness == (3, 1, 3, 2, 1)
        alg = op.alg
        a, b, f, d, e = pi1.witness
        lhs = op(a, b, f)
        rhs = op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f)
        assert lhs == 3 and rhs == 1 and not alg.leq(lhs, rhs)


def test_criterion_08_topological_suite():
    with budget("criterion 8: topological suite", 10):
        rca, rel = eca_from_topology(three_point_space())
        assert rca.alg.atom_count == 2
        i12 = rca.element_for(rca.topology.mask_of([1, 2]))
        i23 = rca.element_for(rca.topology.mask_of([2, 3]))
        assert i12 & i23 == 0
        assert not rel.holds(i12, i23, 0)  # in contact
        for top in random_topologies(100, seed=SEED, max_points=4):
            _, r = eca_from_topology(top)
            assert check_eca(r).passed


def test_criterion_09_morphism_duality(algs, enumerations):
    alg1, alg2 = algs
    ecas, rel_ops = enumerations
    with budget("criterion 9: morphism duality suite", 60):
        algebras = {1: alg1, 2: alg2}
        combos = 0
        for ks, alg_s in algebras.items():
            for kt, alg_t in algebras.items():
                for h in enumerate_homs(alg_s, alg_t):
                    for i_s in range(len(rel_ops[ks])):
                        for i_t in range(len(rel_ops[kt])):
                            combos += 1
                            assert morphism_duality_check(
                                h, rel_ops[ks][i_s], rel_ops[kt][i_t]
                            ).passed
                            _, rep = classify_eca_morphism(
                                h, ecas[ks][i_s], ecas[kt][i_t]
                            )
                            assert rep.passed
        assert combos <= 1000
        # composition closure and contravariance
        from psiforge import classify_psi_morphism
        from psiforge.morphisms import dual_map

        homs = enumerate_homs(alg2, alg2)
        for g in homs:
            for h in homs:
                comp = h.compose(g)
                assert dual_map(comp) == tuple(dual_map(g)[i] for i in dual_map(h))
                for o1 in rel_ops[2]:
                    for o2 in rel_ops[2]:
                        for o3 in rel_ops[2]:
                            m1 = classify_psi_morphism(g, o1, o2)
                            m2 = classify_psi_morphism(h, o2, o3)
                            mc = classify_psi_morphism(comp, o1, o3)
                            if m1.semi and m2.semi:
                                assert mc.semi
                            if m1.hemi and m2.hemi:
                                assert mc.hemi


def test_criterion_10_enumeration_oracle(algs, enumerations):
    alg1, alg2 = algs
    ecas, _ = enumerations
    with budget("criterion 10: enumeration oracle", 10):
        brute = brute_force_relations(alg1)
        canon = sorted({canonical_relation_bits(alg1, r.bits) for r in brute})
        assert canon == [r.bits for r in ecas[1]]
        psi_brute = brute_force_operators(alg1, named_axioms("psi"))
        psi_enum = enumerate_operators(alg1, named_axioms("psi")).operators
        assert sorted(
            {canonical_operator_table(alg1, op.table) for op in psi_brute}
        ) == [op.table for op in psi_enum]
        again = [r.bits for r in enumerate_ecas(alg2)]
        assert again == [r.bits for r in ecas[2]]


def test_criterion_11_cli_contract(tmp_path):
    with budget("criterion 11: command-line contract", 10):
        example_path = tmp_path / "example_3bamo.json"
        example_path.write_text(json.dumps(example_3bamo().to_json()))
        rel_path = tmp_path / "largest_eca_k2.json"
        rel_path.write_text(json.dumps(largest_eca(make_algebra(2)).to_json()))

        def cli(*args, stdin=None):
            return subprocess.run(
                [sys.executable, "-m", "psiforge.cli", *args],
                input=stdin,
                capture_output=True,
                text=True,
            )

        # pipeline 1: the counterexample table fails PI1 with the pinned witness
        first = cli("check", "--kind", "psi", str(example_path))
        second = cli("check", "--kind", "psi", str(example_path))
        assert first.returncode == 1
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        pi1 = next(r for r in report["results"] if r["axiom"] == "PI1")
        assert pi1["witness"] == [3, 1, 3, 2, 1]

        # pipeline 2: convert | check strict exits 0
        conv1 = cli("convert", "--to", "op", str(rel_path))
        chk1 = cli("check", "--kind", "strict", "-", stdin=conv1.stdout)
        conv2 = cli("convert", "--to", "op", str(rel_path))
        chk2 = cli("check", "--kind", "strict", "-", stdin=conv2.stdout)
        assert conv1.returncode == 0 and chk1.returncode == 0
        assert conv1.stdout == conv2.stdout and chk1.stdout == chk2.stdout

        # pipeline 3: the scoreboard exits 0 and is byte-stable
        suite1 = cli("verify-suite", "--k", "2")
        suite2 = cli("verify-suite", "--k", "2")
        assert suite1.returncode == 0
        assert suite1.stdout == suite2.stdout
        lines = suite1.stdout.strip().splitlines()
        assert all(line.startswith("[pass]") for line in lines[:-1])
