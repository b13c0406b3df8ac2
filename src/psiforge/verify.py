"""The full verification suite: every structural law the package encodes,
run end to end at desk scale and reported as a lemma-by-lemma scoreboard.

Each item sweeps a documented pool (exhaustive enumerations on one and two
atoms, seeded samples on three) and reports pass/fail with a short detail
string.  The command line exposes this as ``psiforge verify-suite``.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import topo_models
from .boolean_core import make_algebra
from .contact_relation import (
    _bits_of_rows,
    characteristic_lemma_check,
    check_derived_eca_props,
    is_eca,
    largest_eca,
    op_to_rel,
    pool_verdicts,
    posets_dual_iso_check,
    rel_to_op,
)
from .duality_frames import (
    box_table,
    check_psi_frame,
    check_psi_space,
    complex_algebra,
    diamond_table,
    dual_frame,
    is_total,
    pif2_strong_form_separation,
)
from .enumeration import (
    brute_force_operators,
    brute_force_relations,
    canonical_relation_bits,
    enumerate_ecas,
    enumerate_psi_operators,
    named_axioms,
    permute_operator_table,
    sample_3bamos,
    sample_psi_operators,
)
from .filter_congruence import (
    all_filters_classified,
    congruence_from_filter,
    congruence_respects_op,
    congruence_to_filter,
    is_simple,
    is_subdirectly_irreducible,
    relational_iff_simple_strict_check,
    variety_spot_checks,
)
from .morphisms import (
    classify_eca_morphism,
    classify_psi_morphism,
    enumerate_homs,
    morphism_duality_check,
)
from .terms import holds, parse
from .ternary_operator import (
    DEFAULT_SEED,
    TernaryOperator,
    box_op,
    check_3bamo,
    check_psi,
    check_strict,
    discriminator_check,
    example_3bamo,
    example_3bamo_nonzero_entries,
    is_relational,
    smallest_diamond,
)


@dataclass(frozen=True)
class SuiteItem:
    lemma: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.lemma}{detail}"


def _dedup(pool: list[TernaryOperator]) -> list[TernaryOperator]:
    seen = set()
    out = []
    for op in pool:
        key = (op.alg.atom_count, op.table)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


def psi_operator_pool(k: int, seed: int = DEFAULT_SEED) -> list[TernaryOperator]:
    """Pseudo-inference operators on up to k atoms: every table on one and
    two atoms, plus seeded three-atom samples (structured, topological,
    and the least and largest-relation-induced tables)."""
    pool = enumerate_psi_operators(make_algebra(1)) + enumerate_psi_operators(make_algebra(2))
    if k >= 3:
        alg3 = make_algebra(3)
        pool.append(smallest_diamond(alg3))
        pool.extend(rel_to_op(r) for r in enumerate_ecas(alg3))
        pool.extend(sample_psi_operators(alg3, count=8, seed=seed))
        for top in topo_models.random_topologies(30, seed=seed, max_points=4):
            rca, rel = topo_models.eca_from_topology(top)
            if rca.alg.atom_count == 3:
                pool.append(rel_to_op(rel))
            if len(pool) >= 32:
                break
    return _dedup(pool)


def bamo_operator_pool(k: int, seed: int = DEFAULT_SEED) -> list[TernaryOperator]:
    """Monotone ternary operators for the duality suite: the standard
    counterexample, the least tables, every single-atom table, the
    relational two-atom tables, and seeded monotone samples."""
    alg1 = make_algebra(1)
    alg2 = make_algebra(2)
    pool = [example_3bamo(), smallest_diamond(alg1), smallest_diamond(alg2)]
    if k >= 3:
        alg3 = make_algebra(3)
        pool.append(smallest_diamond(alg3))
        pool.extend(rel_to_op(r) for r in enumerate_ecas(alg3))
    pool.extend(brute_force_operators(alg1, named_axioms("3bamo")))
    pool.extend(rel_to_op(r) for r in enumerate_ecas(alg2))
    pool.extend(sample_3bamos(alg2, count=6, seed=seed))
    return _dedup(pool)


class _Suite:
    def __init__(self, k: int, seed: int):
        self.k = max(1, min(k, 3))
        self.seed = seed
        self.items: list[SuiteItem] = []
        self.alg1 = make_algebra(1)
        self.alg2 = make_algebra(2)
        self.alg3 = make_algebra(3)
        self.ecas1 = enumerate_ecas(self.alg1)
        self.ecas2 = enumerate_ecas(self.alg2)
        self.rel_ops = {
            1: [rel_to_op(r) for r in self.ecas1],
            2: [rel_to_op(r) for r in self.ecas2],
        }
        self.k1_psi = enumerate_psi_operators(self.alg1)
        self.k2_psi = enumerate_psi_operators(self.alg2)

    def record(self, lemma: str, passed: bool, detail: str, t0: float):
        self.items.append(SuiteItem(lemma, passed, detail, time.perf_counter() - t0))

    # one method per scoreboard item -------------------------------------

    def axiom_equivalence(self):
        # each pool is one int, relation i in bits i*size^3 and up
        t0 = time.perf_counter()
        every = int.from_bytes(bytes(range(256)), "little")  # relation i is the bitset i
        ok = _systems_agree(self.alg1, every, 256)
        self.record("eca-extca-agree-k1-exhaustive", ok, "256 relations", t0)

        t0 = time.perf_counter()
        rng = random.Random(self.seed)
        n = 10_000
        # one draw of 64n bits is the n draws of 64 bits, the first lowest;
        # random relations all fail at EC0 = ExtCA0, the flips reach the other laws
        flips = b"".join((r.bits ^ 1 << i).to_bytes(8, "little") for r in self.ecas2 for i in range(64))
        m = len(flips) // 8
        pool = rng.getrandbits(64 * n) | int.from_bytes(flips, "little") << 64 * n
        ok = _systems_agree(self.alg2, pool, n + m)
        detail = f"{n} seeded relations, {m} one-bit flips of the {len(self.ecas2)} ECAs"
        self.record("eca-extca-agree-k2-random", ok, detail, t0)

    def translations(self):
        t0 = time.perf_counter()
        ok = True
        for alg, ecas in ((self.alg1, self.ecas1), (self.alg2, self.ecas2)):
            for rel in ecas:
                op = rel_to_op(rel)
                if op_to_rel(op).bits != rel.bits:
                    ok = False
                if not is_relational(op)[0] or not check_psi(op).passed:
                    ok = False
            for op in self.rel_ops[alg.atom_count]:
                if rel_to_op(op_to_rel(op)).table != op.table:
                    ok = False
        self.record(
            "translation-round-trip-and-image",
            ok,
            f"{len(self.ecas1)}+{len(self.ecas2)} relations",
            t0,
        )

        t0 = time.perf_counter()
        ok = (
            posets_dual_iso_check(self.alg1, self.ecas1).passed
            and posets_dual_iso_check(self.alg2, self.ecas2).passed
        )
        self.record("translation-order-reversal", ok, "all enumerated pairs", t0)

        t0 = time.perf_counter()
        ok = all(r.is_subset_of(largest_eca(self.alg2)) for r in self.ecas2)
        small = rel_to_op(largest_eca(self.alg2))
        ok = ok and all(small.pointwise_leq(o) for o in self.rel_ops[2])
        self.record("largest-relation-smallest-operator", ok, "", t0)

    def strictness_simplicity(self):
        t0 = time.perf_counter()
        ok = True
        for kk in (1, 2):
            for op in self.rel_ops[kk]:
                if not check_strict(op).passed:
                    ok = False
                if not is_simple(op):
                    ok = False
                if not discriminator_check(op).passed:
                    ok = False
        self.record("relational-implies-strict-simple-discriminator", ok, "k<=2", t0)

        t0 = time.perf_counter()
        ok = True
        for op in self.k1_psi:
            want = is_simple(op) and check_strict(op).passed
            if is_relational(op)[0] != want:
                ok = False
        self.record("k1-relational-iff-simple-strict", ok, f"{len(self.k1_psi)} ops", t0)

        t0 = time.perf_counter()
        ok = all(
            relational_iff_simple_strict_check(op).passed for op in self.k2_psi
        )
        self.record(
            "k2-relational-iff-simple-strict", ok, f"{len(self.k2_psi)} ops", t0
        )

    def mu_properties(self) -> list[TernaryOperator]:
        t0 = time.perf_counter()
        pool = psi_operator_pool(self.k, self.seed)
        laws = [
            "mu(0) = 0",
            "mu(1) = 1",
            "mu(x) = 1 => x = 1",
            "x or y = y => mu(x) or mu(y) = mu(y)",
        ] + [f"{_mu_power(n + 1, 'x')} <= {_mu_power(n, 'x')}" for n in range(5)]
        ok = _all_hold(laws, pool)
        self.record("mu-properties", ok, f"{len(pool)} operators", t0)

        t0 = time.perf_counter()
        laws = [f"{_mu_power(n, 'not mu(a)')} = not mu(a)" for n in range(1, 5)]
        ok = _all_hold(laws, [op for op in pool if check_strict(op).result("S").passed])
        self.record("mu-complement-fixed-under-s", ok, "", t0)

        t0 = time.perf_counter()
        laws = [
            "a or a2 = a2 => dia(a, b, c) or dia(a2, b, c) = dia(a2, b, c)",
            "a or a2 = a2 => dia(b, a, c) or dia(b, a2, c) = dia(b, a2, c)",
            "a or a2 = a2 => dia(b, c, a) or dia(b, c, a2) = dia(b, c, a2)",
        ]
        ok = _all_hold(laws, pool)
        self.record("monotone-in-each-coordinate", ok, "", t0)
        return pool

    def filters(self, pool):
        # the classification, read by several items, is charged to the first
        detail = f"{len(pool)} operators"
        t0 = time.perf_counter()
        rows = [(op, cf) for op in pool for cf in all_filters_classified(op)]
        ok = not any(cf.is_closed and not cf.is_modal for _, cf in rows)
        self.record("closed-implies-modal", ok, detail, t0)

        t0 = time.perf_counter()
        ok = all(cf.closed_via_su_mid == cf.is_closed for _, cf in rows)
        self.record("su-mid-iff-closed", ok, detail, t0)

        t0 = time.perf_counter()
        r1r2 = {}
        for op in pool:
            strict = check_strict(op)
            r1r2[op] = strict.result("R1").passed and strict.result("R2").passed
        ok = not any(r1r2[op] and cf.is_modal and not cf.is_closed for op, cf in rows)
        self.record("modal-implies-closed-under-r1r2", ok, detail, t0)

        t0 = time.perf_counter()
        ok = all(cf.modal_via_generator == cf.is_modal for _, cf in rows)
        self.record("modal-generator-shortcut-agrees", ok, detail, t0)

        t0 = time.perf_counter()
        ok = True
        for op, cf in rows:
            alg, flt = op.alg, cf.filter
            theta = congruence_from_filter(alg, flt)
            if congruence_to_filter(theta).generator != flt.generator:
                ok = False
            back = congruence_from_filter(alg, congruence_to_filter(theta))
            if back.reps != theta.reps:
                ok = False
            if congruence_respects_op(op, theta) != cf.is_closed:
                ok = False
        self.record("filter-congruence-round-trip", ok, "", t0)

        t0 = time.perf_counter()
        ok = True
        for op in pool:
            if is_subdirectly_irreducible(op) and check_strict(op).passed:
                if not is_simple(op):
                    ok = False
        self.record("si-implies-simple-on-strict", ok, "", t0)

    def variety(self):
        t0 = time.perf_counter()
        strict_ops = [
            op
            for op in self.k1_psi + self.k2_psi
            if check_strict(op).passed
        ]
        rep = variety_spot_checks(strict_ops)
        self.record(
            "cep-permutability-distributivity",
            rep.passed,
            f"{len(strict_ops)} strict ops",
            t0,
        )

    def duality(self):
        t0 = time.perf_counter()
        frames = [(op, dual_frame(op)) for op in bamo_operator_pool(self.k, self.seed)]
        ok = all(check_psi_frame(fr).passed for _, fr in frames)
        self.record("dual-frame-descriptive", ok, f"{len(frames)} frames", t0)

        t0 = time.perf_counter()
        ok = True
        for op, fr in frames:
            alg = op.alg
            elements = alg.elements()
            dia, box = diamond_table(fr), box_table(fr)
            ok = ok and dia == op.table
            ok = ok and box == tuple(box_op(op, a, b, c) for a in elements for b in elements for c in elements)
            # the complement of U sits at the mirrored index
            ok = ok and box == tuple(alg.neg(v) for v in reversed(dia))
        self.record("stone-commutation", ok, "dia, box, and complement laws", t0)

        t0 = time.perf_counter()
        ok = True
        details = []
        for op, fr in frames:
            psi_rep = check_psi(op)
            space_rep = check_psi_space(fr)
            for i in range(1, 5):
                if (
                    psi_rep.result(f"PI{i}").passed
                    != space_rep.result(f"PIF{i}").passed
                ):
                    ok = False
                    details.append(f"PI{i}")
        self.record("pi-pif-componentwise", ok, ";".join(details), t0)

        t0 = time.perf_counter()
        ok = all(complex_algebra(fr)[1].table == op.table for op, fr in frames)
        self.record("double-dual-identity", ok, "", t0)

        t0 = time.perf_counter()
        ok = all(is_total(fr)[0] == is_relational(op)[0] for op, fr in frames)
        self.record("totality-iff-relational", ok, "", t0)

        t0 = time.perf_counter()
        found, note = pif2_strong_form_separation([fr for _, fr in frames])
        self.record("pif2-strong-form-search", found is None, note, t0)

    def example_regression(self):
        t0 = time.perf_counter()
        op = example_3bamo()
        ok = len(example_3bamo_nonzero_entries()) == 15
        for (a, b, c), v in example_3bamo_nonzero_entries().items():
            if op(a, b, c) != v:
                ok = False
        nonzero = sum(1 for v in op.table if v)
        ok = ok and nonzero == 15
        ok = ok and check_3bamo(op).passed
        rep = check_psi(op)
        pi1 = rep.result("PI1")
        ok = ok and not pi1.passed and pi1.witness == (3, 1, 3, 2, 1)
        ok = ok and rep.result("PI2").passed and rep.result("PI3").passed and rep.result("PI4").passed
        # the witness family re-evaluates to a violation
        a, b, f, d, e = 3, 1, 3, 2, 1
        alg = op.alg
        lhs = op(a, b, f)
        rhs = op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f)
        ok = ok and not alg.leq(lhs, rhs)
        self.record("example-3bamo-regression", ok, "15 entries, PI1 witness (3,1,3,2,1)", t0)

    def topological(self):
        t0 = time.perf_counter()
        rca, rel = topo_models.eca_from_topology(topo_models.three_point_space())
        ok = rca.alg.atom_count == 2
        i12 = rca.element_for(rca.topology.mask_of([1, 2]))
        i23 = rca.element_for(rca.topology.mask_of([2, 3]))
        ok = ok and (i12 & i23) == 0
        ok = ok and not rel.holds(i12, i23, 0)
        ok = ok and rel.holds(i12, i23, i23)
        ok = ok and rel.bits != largest_eca(rca.alg).bits
        ok = ok and check_derived_eca_props(rel).passed
        ok = ok and characteristic_lemma_check(rel).passed
        self.record("three-point-space-witness", ok, "lattice meet 0 yet in contact", t0)

        t0 = time.perf_counter()
        spaces = topo_models.random_topologies(100, seed=self.seed, max_points=4)
        distinct = {}  # algebra -> its distinct relation bitsets
        for top in spaces:
            _, rel = topo_models.eca_from_topology(top)
            distinct.setdefault(rel.alg, set()).add(rel.bits)
        ok = True
        for alg, bits in distinct.items():  # one packed pool per algebra
            pool, n = _bits_of_rows(sorted(bits), alg.size ** 3), len(bits)
            ok = ok and all(pool_verdicts(alg, pool, n, system) == b"\x01" * n for system in ("eca", "extca"))
        self.record("random-topologies-give-ecas", ok, f"{len(spaces)} seeded spaces", t0)

    def morphisms(self):
        t0 = time.perf_counter()
        algs = {1: self.alg1, 2: self.alg2}
        ops_by_k = {1: self.rel_ops[1], 2: self.rel_ops[2]}
        rels_by_k = {1: self.ecas1, 2: self.ecas2}
        combos = [
            (h, ks, i_s, kt, i_t)
            for ks, alg_s in algs.items()
            for kt, alg_t in algs.items()
            for h in enumerate_homs(alg_s, alg_t)
            for i_s in range(len(ops_by_k[ks]))
            for i_t in range(len(ops_by_k[kt]))
        ]
        ok = all(
            morphism_duality_check(h, ops_by_k[ks][i_s], ops_by_k[kt][i_t]).passed
            for h, ks, i_s, kt, i_t in combos
        )
        self.record("morphism-duality-biconditionals", ok, f"{len(combos)} combinations", t0)

        t0 = time.perf_counter()
        ok = all(
            classify_eca_morphism(h, rels_by_k[ks][i_s], rels_by_k[kt][i_t])[1].passed
            for h, ks, i_s, kt, i_t in combos
        )
        self.record("eca-morphism-equivalences", ok, "", t0)

        t0 = time.perf_counter()
        ok = True
        # composition closure and contravariance over k=2 endo-homs
        homs = enumerate_homs(self.alg2, self.alg2)
        ops = self.k2_psi[:4]
        # each classification once, by atom map: every composite h o g is
        # one of the homs
        kinds = {
            (m.atom_map, i, j): classify_psi_morphism(m, oi, oj)
            for m in homs
            for i, oi in enumerate(ops)
            for j, oj in enumerate(ops)
        }
        idx = range(len(ops))
        for g in homs:
            for h in homs:
                comp = h.compose(g)
                if comp.atom_map != tuple(g.atom_map[i] for i in h.atom_map):
                    ok = False
                for i1 in idx:
                    for i3 in idx:
                        mc = kinds[comp.atom_map, i1, i3]
                        for i2 in idx:
                            m1, m2 = kinds[g.atom_map, i1, i2], kinds[h.atom_map, i2, i3]
                            if m1.semi and m2.semi and not mc.semi:
                                ok = False
                            if m1.hemi and m2.hemi and not mc.hemi:
                                ok = False
        self.record("morphism-composition-contravariance", ok, "", t0)

        t0 = time.perf_counter()
        ok = True
        for h in enumerate_homs(self.alg2, self.alg2):
            if not h.is_bijective:
                continue
            inv = h.inverse()
            for op in self.k2_psi[:4]:
                img = TernaryOperator(h.target, permute_operator_table(h.target, inv.atom_map, op.table))
                mc = classify_psi_morphism(h, op, img)
                if not mc.full:
                    ok = False
                back = classify_psi_morphism(inv, img, op)
                if not back.full:
                    ok = False
        self.record("bijective-full-inverts", ok, "", t0)

    def enumeration_oracle(self):
        t0 = time.perf_counter()
        brute = brute_force_relations(self.alg1)
        canon = sorted({canonical_relation_bits(self.alg1, r.bits) for r in brute})
        ok = canon == [r.bits for r in self.ecas1]
        ops_brute = brute_force_operators(self.alg1, named_axioms("psi"))
        ok = ok and len(ops_brute) == len(self.k1_psi)
        self.record("enumeration-oracle-k1", ok, f"{len(brute)} relations brute forced", t0)

        t0 = time.perf_counter()
        rels = [op_to_rel(op) for op in self.k2_psi if is_relational(op)[0]]
        canon = sorted({canonical_relation_bits(self.alg2, r.bits) for r in rels})
        ok = canon == [r.bits for r in self.ecas2]
        detail = f"{len(rels)} of {len(self.k2_psi)} tables relational"
        self.record("relational-psi-iff-eca-k2", ok, detail, t0)

        t0 = time.perf_counter()
        ok = all(is_eca(r) for r in self.ecas1 + self.ecas2)
        self.record("enumeration-sound", ok, "", t0)

    def run(self) -> list[SuiteItem]:
        self.axiom_equivalence()
        self.translations()
        self.strictness_simplicity()
        pool = self.mu_properties()
        self.filters(pool)
        self.variety()
        self.duality()
        self.example_regression()
        self.topological()
        self.morphisms()
        self.enumeration_oracle()
        return self.items


def _systems_agree(alg, pool: int, n: int) -> bool:
    """Whether EC0-EC4 and ExtCA0-ExtCA4 give each of the n packed
    relations the same verdict."""
    return pool_verdicts(alg, pool, n, "eca") == pool_verdicts(alg, pool, n, "extca")


def _mu_power(n: int, x: str) -> str:
    """The term mu(mu(...mu(x)...)) with n applications."""
    return "mu(" * n + x + ")" * n


def _all_hold(laws: list[str], pool: list[TernaryOperator]) -> bool:
    sentences = [parse(law) for law in laws]
    return all(holds(s, op)[0] for op in pool for s in sentences)


def run_suite(k: int = 2, seed: int = DEFAULT_SEED) -> list[SuiteItem]:
    """Run every scoreboard item.  k=1 and k=2 run the same items on the
    same one- and two-atom pools; k=3 adds the three-atom pools (k is
    clamped to 1..3)."""
    return _Suite(k, seed).run()


def scoreboard(items: list[SuiteItem]) -> str:
    lines = [item.line() for item in items]
    n_pass = sum(1 for i in items if i.passed)
    lines.append(f"{n_pass}/{len(items)} lemmas verified")
    return "\n".join(lines)
