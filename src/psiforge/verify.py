"""The full verification suite: every structural law the package encodes,
run end to end at desk scale and reported as a lemma-by-lemma scoreboard.

Each item sweeps a documented pool (exhaustive enumerations on one and two
atoms, seeded samples on three) and reports pass/fail with a short detail
string.  The command line exposes this as ``psiforge verify-suite``.

The items come in groups, one generator method of ``_Suite`` per group,
which yields ``(lemma, passed, detail)`` once per item in scoreboard
order.  ``_Suite.run`` is the only code that reads the clock: it stamps
each yield and builds the ``SuiteItem``, so an item's seconds run from the
previous item's yield (or the start of the run) to its own.

A run decides each structure once: while ``run_suite`` runs, the checks
and constructions marked ``report.run_memo`` (``check_psi``,
``check_strict``, ``is_eca``, ``rel_to_op``, ``dual_frame`` and the
like) keep their result for each distinct argument, and the memo is
dropped when the run ends.  Work that several items read, such as the
operator pool, a group's local tables and every memoised result, is
charged to the first item that reads it.
"""
from __future__ import annotations

import random
import time
from functools import cached_property
from itertools import chain

from . import report, topo_models
from .boolean_core import _pack, make_algebra
from .contact_relation import (
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
from .report import Record
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


class SuiteItem(Record):
    lemma: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.lemma}{detail}"


def psi_operator_pool(k: int, seed: int = DEFAULT_SEED) -> list[TernaryOperator]:
    """Pseudo-inference operators on up to k atoms: every table on one and
    two atoms, plus the least three-atom table, the operator of each
    three-atom EC relation up to automorphism, and seeded samples."""
    pool = enumerate_psi_operators(make_algebra(1)) + enumerate_psi_operators(make_algebra(2))
    if k >= 3:
        alg3 = make_algebra(3)
        pool.append(smallest_diamond(alg3))
        pool.extend(rel_to_op(r) for r in enumerate_ecas(alg3))
        pool.extend(sample_psi_operators(alg3, count=8, seed=seed))
    return list(dict.fromkeys(pool))


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
    return list(dict.fromkeys(pool))


class _Suite:
    """The scoreboard's items, one generator per group (see the module docstring)."""

    def __init__(self, k: int, seed: int):
        self.k = max(1, min(k, 3))
        self.seed = seed
        self.algs = {kk: make_algebra(kk) for kk in (1, 2)}
        self.ecas = {kk: enumerate_ecas(alg) for kk, alg in self.algs.items()}
        self.rel_ops = {kk: [rel_to_op(r) for r in ecas] for kk, ecas in self.ecas.items()}
        self.psi = {kk: enumerate_psi_operators(alg) for kk, alg in self.algs.items()}

    @cached_property
    def pool(self) -> list[TernaryOperator]:
        return psi_operator_pool(self.k, self.seed)

    def run(self) -> list[SuiteItem]:
        groups = (
            self.axiom_equivalence(),
            self.translations(),
            self.strictness_simplicity(),
            self.mu_properties(),
            self.filters(),
            self.variety(),
            self.duality(),
            self.example_regression(),
            self.topological(),
            self.morphisms(),
            self.enumeration_oracle(),
        )
        items, t0 = [], time.perf_counter()
        for lemma, passed, detail in chain(*groups):
            t1 = time.perf_counter()
            items.append(SuiteItem(lemma, passed, detail, t1 - t0))
            t0 = t1
        return items

    # one generator per group of scoreboard items --------------------------

    def axiom_equivalence(self):
        # each pool is one int, relation i in bits i*size^3 and up
        every = _pack(range(256), 8)  # relation i is the bitset i
        yield "eca-extca-agree-k1-exhaustive", _systems_agree(self.algs[1], every, 256), "256 relations"

        rng = random.Random(self.seed)
        n = 10_000
        # one draw of 64n bits is the n draws of 64 bits, the first lowest;
        # random relations all fail at EC0 = ExtCA0, the flips reach the other laws
        flips = [r.bits ^ 1 << i for r in self.ecas[2] for i in range(64)]
        pool = rng.getrandbits(64 * n) | _pack(flips, 64) << 64 * n
        detail = f"{n} seeded relations, {len(flips)} one-bit flips of the {len(self.ecas[2])} ECAs"
        yield "eca-extca-agree-k2-random", _systems_agree(self.algs[2], pool, n + len(flips)), detail

    def translations(self):
        ok = all(
            op_to_rel(op).bits == rel.bits
            and is_relational(op)[0]
            and check_psi(op).passed
            and rel_to_op(op_to_rel(op)).table == op.table
            for kk in (1, 2)
            for rel, op in zip(self.ecas[kk], self.rel_ops[kk])
        )
        yield "translation-round-trip-and-image", ok, f"{len(self.ecas[1])}+{len(self.ecas[2])} relations"

        ok = all(posets_dual_iso_check(alg, self.ecas[kk]).passed for kk, alg in self.algs.items())
        yield "translation-order-reversal", ok, "all enumerated pairs"

        largest = largest_eca(self.algs[2])
        ok = all(r.is_subset_of(largest) for r in self.ecas[2])
        small = rel_to_op(largest)
        ok = ok and all(small.pointwise_leq(o) for o in self.rel_ops[2])
        yield "largest-relation-smallest-operator", ok, ""

    def strictness_simplicity(self):
        ok = all(
            check_strict(op).passed and is_simple(op) and discriminator_check(op).passed
            for op in self.rel_ops[1] + self.rel_ops[2]
        )
        yield "relational-implies-strict-simple-discriminator", ok, "k<=2"

        ok = all(relational_iff_simple_strict_check(op).passed for op in self.psi[1])
        yield "k1-relational-iff-simple-strict", ok, f"{len(self.psi[1])} ops"

        ok = all(relational_iff_simple_strict_check(op).passed for op in self.psi[2])
        yield "k2-relational-iff-simple-strict", ok, f"{len(self.psi[2])} ops"

    def mu_properties(self):
        laws = [
            "mu(0) = 0",
            "mu(1) = 1",
            "mu(x) = 1 => x = 1",
            "x or y = y => mu(x) or mu(y) = mu(y)",
        ] + [f"{_mu_power(n + 1, 'x')} <= {_mu_power(n, 'x')}" for n in range(5)]
        yield "mu-properties", _all_hold(laws, self.pool), f"{len(self.pool)} operators"

        laws = [f"{_mu_power(n, 'not mu(a)')} = not mu(a)" for n in range(1, 5)]
        ok = _all_hold(laws, [op for op in self.pool if check_strict(op).result("S").passed])
        yield "mu-complement-fixed-under-s", ok, ""

        laws = [
            "a or a2 = a2 => dia(a, b, c) or dia(a2, b, c) = dia(a2, b, c)",
            "a or a2 = a2 => dia(b, a, c) or dia(b, a2, c) = dia(b, a2, c)",
            "a or a2 = a2 => dia(b, c, a) or dia(b, c, a2) = dia(b, c, a2)",
        ]
        yield "monotone-in-each-coordinate", _all_hold(laws, self.pool), ""

    def filters(self):
        detail = f"{len(self.pool)} operators"
        rows = [(op, cf) for op in self.pool for cf in all_filters_classified(op)]
        ok = not any(cf.is_closed and not cf.is_modal for _, cf in rows)
        yield "closed-implies-modal", ok, detail

        ok = all(cf.closed_via_su_mid == cf.is_closed for _, cf in rows)
        yield "su-mid-iff-closed", ok, detail

        ok = not any(
            cf.is_modal and not cf.is_closed and all(check_strict(op).result(law).passed for law in ("R1", "R2"))
            for op, cf in rows
        )
        yield "modal-implies-closed-under-r1r2", ok, detail

        ok = all(cf.modal_via_generator == cf.is_modal for _, cf in rows)
        yield "modal-generator-shortcut-agrees", ok, detail

        ok = True
        for op, cf in rows:
            theta = congruence_from_filter(op.alg, cf.filter)
            flt = congruence_to_filter(theta)
            ok = ok and flt.generator == cf.filter.generator
            ok = ok and congruence_from_filter(op.alg, flt).reps == theta.reps
            ok = ok and congruence_respects_op(op, theta) == cf.is_closed
        yield "filter-congruence-round-trip", ok, ""

        strict_si = [op for op in self.pool if is_subdirectly_irreducible(op) and check_strict(op).passed]
        yield "si-implies-simple-on-strict", all(is_simple(op) for op in strict_si), ""

    def variety(self):
        # the pool holds every one- and two-atom operator
        strict_ops = [op for op in self.psi[1] + self.psi[2] if check_strict(op).passed]
        ok = variety_spot_checks(strict_ops).passed
        yield "cep-permutability-distributivity", ok, f"{len(strict_ops)} strict ops"

    def duality(self):
        frames = [(op, dual_frame(op)) for op in bamo_operator_pool(self.k, self.seed)]
        ok = all(check_psi_frame(fr).passed for _, fr in frames)
        yield "dual-frame-descriptive", ok, f"{len(frames)} frames"

        ok = True
        for op, fr in frames:
            alg = op.alg
            elements = alg.elements()
            dia, box = diamond_table(fr), box_table(fr)
            ok = ok and dia == op.table
            ok = ok and box == tuple(box_op(op, a, b, c) for a in elements for b in elements for c in elements)
            # the complement of U sits at the mirrored index
            ok = ok and box == tuple(alg.neg(v) for v in reversed(dia))
        yield "stone-commutation", ok, "dia, box, and complement laws"

        failing = []
        for op, fr in frames:
            psi_rep, space_rep = check_psi(op), check_psi_space(fr)
            for i in range(1, 5):
                if psi_rep.result(f"PI{i}").passed != space_rep.result(f"PIF{i}").passed:
                    failing.append(f"PI{i}")
        yield "pi-pif-componentwise", not failing, ";".join(failing)

        ok = all(complex_algebra(fr)[1].table == op.table for op, fr in frames)
        yield "double-dual-identity", ok, ""

        ok = all(is_total(fr)[0] == is_relational(op)[0] for op, fr in frames)
        yield "totality-iff-relational", ok, ""

        found, note = pif2_strong_form_separation([fr for _, fr in frames])
        yield "pif2-strong-form-search", found is None, note

    def example_regression(self):
        op = example_3bamo()
        entries = example_3bamo_nonzero_entries()
        ok = len(entries) == 15 and all(op(a, b, c) == v for (a, b, c), v in entries.items())
        ok = ok and sum(1 for v in op.table if v) == 15 and check_3bamo(op).passed
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
        yield "example-3bamo-regression", ok, "15 entries, PI1 witness (3,1,3,2,1)"

    def topological(self):
        rca, rel = topo_models.eca_from_topology(topo_models.three_point_space())
        i12 = rca.element_for(rca.topology.mask_of([1, 2]))
        i23 = rca.element_for(rca.topology.mask_of([2, 3]))
        ok = (
            rca.alg.atom_count == 2
            and (i12 & i23) == 0
            and not rel.holds(i12, i23, 0)
            and rel.holds(i12, i23, i23)
            and rel.bits != largest_eca(rca.alg).bits
            and check_derived_eca_props(rel).passed
            and characteristic_lemma_check(rel).passed
        )
        yield "three-point-space-witness", ok, "lattice meet 0 yet in contact"

        spaces = topo_models.random_topologies(100, seed=self.seed)
        distinct = {}  # algebra -> its distinct relation bitsets
        for top in spaces:
            _, rel = topo_models.eca_from_topology(top)
            distinct.setdefault(rel.alg, set()).add(rel.bits)
        ok = True
        for alg, bits in distinct.items():  # one packed pool per algebra
            pool, n = _pack(sorted(bits), alg.size ** 3), len(bits)
            ok = ok and all(pool_verdicts(alg, pool, n, system) == b"\x01" * n for system in ("eca", "extca"))
        yield "random-topologies-give-ecas", ok, f"{len(spaces)} seeded spaces"

    def morphisms(self):
        pairs = {kk: list(zip(self.ecas[kk], self.rel_ops[kk])) for kk in (1, 2)}
        combos = [
            (h, source, target)
            for ks, alg_s in self.algs.items()
            for kt, alg_t in self.algs.items()
            for h in enumerate_homs(alg_s, alg_t)
            for source in pairs[ks]
            for target in pairs[kt]
        ]
        ok = all(morphism_duality_check(h, op_s, op_t).passed for h, (_, op_s), (_, op_t) in combos)
        yield "morphism-duality-biconditionals", ok, f"{len(combos)} combinations"

        ok = all(classify_eca_morphism(h, rel_s, rel_t)[1].passed for h, (rel_s, _), (rel_t, _) in combos)
        yield "eca-morphism-equivalences", ok, ""

        ok = True
        # composition closure and contravariance over k=2 endo-homs
        homs = enumerate_homs(self.algs[2], self.algs[2])
        ops = self.psi[2][:4]
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
        yield "morphism-composition-contravariance", ok, ""

        ok = True
        for h in homs:
            if not h.is_bijective:
                continue
            inv = h.inverse()
            for op in ops:
                img = TernaryOperator(h.target, permute_operator_table(h.target, inv.atom_map, op.table))
                ok = ok and classify_psi_morphism(h, op, img).full
                ok = ok and classify_psi_morphism(inv, img, op).full
        yield "bijective-full-inverts", ok, ""

    def enumeration_oracle(self):
        alg1, alg2 = self.algs[1], self.algs[2]
        brute = brute_force_relations(alg1)
        ok = sorted({canonical_relation_bits(alg1, r.bits) for r in brute}) == [r.bits for r in self.ecas[1]]
        ok = ok and len(brute_force_operators(alg1, named_axioms("psi"))) == len(self.psi[1])
        yield "enumeration-oracle-k1", ok, f"{len(brute)} relations brute forced"

        rels = [op_to_rel(op) for op in self.psi[2] if is_relational(op)[0]]
        ok = sorted({canonical_relation_bits(alg2, r.bits) for r in rels}) == [r.bits for r in self.ecas[2]]
        yield "relational-psi-iff-eca-k2", ok, f"{len(rels)} of {len(self.psi[2])} tables relational"

        yield "enumeration-sound", all(is_eca(r) for r in self.ecas[1] + self.ecas[2]), ""


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
    clamped to 1..3).  While it runs, each checker or construction marked
    report.run_memo decides each distinct argument once; the memo is
    dropped when the run ends, also when an item raises."""
    outer = report._run_memo
    report._run_memo = {}
    try:
        return _Suite(k, seed).run()
    finally:
        report._run_memo = outer


def scoreboard(items: list[SuiteItem]) -> str:
    lines = [item.line() for item in items]
    n_pass = sum(1 for i in items if i.passed)
    lines.append(f"{n_pass}/{len(items)} lemmas verified")
    return "\n".join(lines)
