"""The full verification suite: every structural law the package encodes,
run end to end at desk scale and reported as a lemma-by-lemma scoreboard.

Each item is a claim over a named space.  A ``Claim`` names its lemma, the
``_Suite`` space it quantifies over and its test; a ``Space`` holds its
members, their number and what they are, and says whether it is the whole
family it names (the one-atom relations, the ECAs or the PSI operators of
at most two atoms up to isomorphism, every finite space of at most four
points) or a choice from one, seeded draws included.  One runner,
``_Suite.run``, goes through the claims in scoreboard order and derives
each item's detail from its space: "all 256 one-atom relations" for a
whole space, the count and the seeded share otherwise.  A failing item
also names its first counterexample: its position in the space, counted
from 0, and its value when that is a number or a tuple of numbers; the
member itself is ``SuiteItem.counterexample``.

Three spaces draw from the seed: ``eca-extca-agree-k2-random`` draws
10000 two-atom relations, the duality items' frames come from a bamo pool
with six seeded monotone two-atom tables (``sample_3bamos``) at every k,
and at k=3 the operator pool of the mu, monotonicity and filter items
holds eight seeded three-atom pseudo-inference tables
(``sample_psi_operators``).  The command line exposes the suite as
``psiforge verify-suite``.

Most tests take one member and say whether the lemma holds on it; the
runner stops at the first member where it does not.  A test marked
``at_once`` takes its whole space and returns the first counterexample
itself, so that a packed relation pool is decided by one
``pool_verdicts`` call per axiom system, with no loop over its members.

``_Suite.run`` is the only code that reads the clock: an item's seconds
run from the previous item's verdict (or the start of the run) to its
own.  The spaces are cached properties, each built by the first claim
that reads it, and a run decides each structure once: while
``run_suite`` runs, the checks and constructions marked
``report.run_memo`` (``check_psi``, ``check_strict``, ``is_eca``,
``rel_to_op``, ``dual_frame`` and the like, and this module's enumerator
results) keep their result for each distinct argument, and the memo is
dropped when the run ends.  So work that several items read, such as the
operator pool, a space or a memoised result, is charged to the first
item that reads it.
"""
from __future__ import annotations

import random
import time
from functools import cached_property
from itertools import compress, count, product
from operator import ne

from . import report, topo_models
from .boolean_core import _pack, make_algebra
from .contact_relation import characteristic_lemma_check, check_derived_eca_props, is_eca, largest_eca, op_to_rel
from .contact_relation import pool_verdicts, posets_dual_iso_check, rel_to_op
from .duality_frames import box_table, check_psi_frame, check_psi_space, complex_algebra, diamond_table, dual_frame
from .duality_frames import is_total, pif2_strong_form_separates
from .enumeration import brute_force_operators, brute_force_relations, canonical_operator_table, enumerate_ecas
from .enumeration import enumerate_psi_operators, named_axioms, permute_operator_table, sample_3bamos
from .enumeration import sample_psi_operators
from .filter_congruence import all_filters_classified, congruence_from_filter, congruence_respects_op
from .filter_congruence import congruence_to_filter, is_simple, is_subdirectly_irreducible
from .filter_congruence import relational_iff_simple_strict_check, variety_spot_checks
from .morphisms import classify_eca_morphism, classify_psi_morphism, enumerate_homs, morphism_duality_check
from .report import Record, run_memo
from .terms import holds, parse
from .ternary_operator import DEFAULT_SEED, TernaryOperator, box_op, check_3bamo, check_psi, check_strict
from .ternary_operator import discriminator_check, example_3bamo, example_3bamo_nonzero_entries, is_relational
from .ternary_operator import smallest_diamond

_PSI_DRAWS = 8  # seeded three-atom tables in the k=3 operator pool
_BAMO_DRAWS = 6  # seeded two-atom tables in the bamo pool
_MORPHISM_OPS = 4  # the two-atom PSI operators the endomorphism items take


class SuiteItem(Record):
    lemma: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0
    counterexample: object = None

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.lemma}{detail}"


class Space(Record):
    """What a claim quantifies over.  members is a sequence, or for a
    packed relation pool the pair (algebra, int) holding relation i at bits
    i*size^3 and up; size is their number and noun says what they are.
    whole is true when the members are every member of the family the
    noun names, not a choice from it or seeded draws."""

    members: object
    size: int
    noun: str
    whole: bool = False

    @property
    def detail(self) -> str:
        return f"{'all ' if self.whole else ''}{self.size} {self.noun}"


class Claim(Record):
    """One scoreboard item: its lemma, the name of the _Suite space it
    quantifies over, and its test.  test(member) is true where the lemma
    holds; an at_once test takes the whole space and returns its first
    counterexample as (position, member), or None."""

    lemma: str
    space: str
    test: object
    at_once: bool = False


def psi_operator_pool(k: int, seed: int = DEFAULT_SEED) -> list[TernaryOperator]:
    """Pseudo-inference operators on up to k atoms: every table on one and
    two atoms, plus the least three-atom table, the operator of each
    three-atom EC relation up to automorphism, and seeded samples."""
    pool = enumerate_psi_operators(make_algebra(1)) + enumerate_psi_operators(make_algebra(2))
    if k >= 3:
        alg3 = make_algebra(3)
        pool.append(smallest_diamond(alg3))
        pool.extend(rel_to_op(r) for r in enumerate_ecas(alg3))
        pool.extend(sample_psi_operators(alg3, count=_PSI_DRAWS, seed=seed))
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
    pool.extend(sample_3bamos(alg2, count=_BAMO_DRAWS, seed=seed))
    return list(dict.fromkeys(pool))


# what the tests read beside their member, once per run ------------------


@run_memo
def _ecas(k: int) -> list:
    return enumerate_ecas(make_algebra(k))


@run_memo
def _psi(k: int) -> list[TernaryOperator]:
    return enumerate_psi_operators(make_algebra(k))


@run_memo
def _listed_k1() -> tuple[set, set, set, set]:
    """The one-atom ECA bitsets and pseudo-inference tables, by brute force
    and as the enumerators list them."""
    alg = make_algebra(1)
    tables = brute_force_operators(alg, named_axioms("psi"))
    return ({r.bits for r in brute_force_relations(alg)}, {r.bits for r in _ecas(1)},
            {op.table for op in tables}, {op.table for op in _psi(1)})


@run_memo
def _eca_operators(k: int) -> set:
    """The canonical tables of the operators of the k-atom ECAs."""
    alg = make_algebra(k)
    return {canonical_operator_table(alg, rel_to_op(r).table) for r in _ecas(k)}


@run_memo
def _endomorphism_kinds() -> dict:
    """classify_psi_morphism of each two-atom endomorphism between each
    pair of the first _MORPHISM_OPS two-atom PSI operators, keyed by
    (atom map, i, j): every composite of two endomorphisms is one of them."""
    alg, ops = make_algebra(2), _psi(2)[:_MORPHISM_OPS]
    return {(m.atom_map, i, j): classify_psi_morphism(m, oi, oj)
            for m in enumerate_homs(alg, alg) for i, oi in enumerate(ops) for j, oj in enumerate(ops)}


# the tests -----------------------------------------------------------------


def _systems_agree(space: Space):
    """The first packed relation to which EC0-EC4 and ExtCA0-ExtCA4 give
    different verdicts, or None."""
    (alg, pool), n = space.members, space.size
    eca, extca = (pool_verdicts(alg, pool, n, system) for system in ("eca", "extca"))
    if eca == extca:
        return None
    i = next(compress(count(), map(ne, eca, extca)))
    width = alg.size ** 3
    return i, pool >> i * width & (1 << width) - 1


def _spaces_give_ecas(space: Space):
    """The first finite space whose relation fails EC0-EC4 or
    ExtCA0-ExtCA4, or None; each distinct relation is decided in one
    packed pool per algebra."""
    rels = [topo_models.eca_from_topology(top)[1] for top in space.members]
    failing = set()
    for alg in dict.fromkeys(rel.alg for rel in rels):
        bits = sorted({rel.bits for rel in rels if rel.alg == alg})
        pool = _pack(bits, alg.size ** 3)
        verdicts = [pool_verdicts(alg, pool, len(bits), system) for system in ("eca", "extca")]
        failing |= {(alg, b) for b, *ok in zip(bits, *verdicts) if not all(ok)}
    return next(((i, space.members[i]) for i, rel in enumerate(rels) if (rel.alg, rel.bits) in failing), None)


def _round_trips(rel) -> bool:
    op = rel_to_op(rel)
    back = op_to_rel(op)
    return back.bits == rel.bits and is_relational(op)[0] and check_psi(op).passed and rel_to_op(back).table == op.table


def _below_largest(rel) -> bool:
    """Below the largest relation, so its operator lies above the least one."""
    largest = largest_eca(rel.alg)
    return rel.is_subset_of(largest) and rel_to_op(largest).pointwise_leq(rel_to_op(rel))


def _strict_simple_discriminator(rel) -> bool:
    op = rel_to_op(rel)
    return check_strict(op).passed and is_simple(op) and discriminator_check(op).passed


def _mu_power(n: int, x: str) -> str:
    """The term mu(mu(...mu(x)...)) with n applications."""
    return "mu(" * n + x + ")" * n


def _laws(*laws: str):
    """The test that every law holds on an operator."""
    sentences = [parse(law) for law in laws]
    return lambda op: all(holds(s, op)[0] for s in sentences)


_mu_laws = _laws(
    "mu(0) = 0",
    "mu(1) = 1",
    "mu(x) = 1 => x = 1",
    "x or y = y => mu(x) or mu(y) = mu(y)",
    *(f"{_mu_power(n + 1, 'x')} <= {_mu_power(n, 'x')}" for n in range(5)),
)
_mu_complement_fixed = _laws(*(f"{_mu_power(n, 'not mu(a)')} = not mu(a)" for n in range(1, 5)))
_monotone = _laws(
    "a or a2 = a2 => dia(a, b, c) or dia(a2, b, c) = dia(a2, b, c)",
    "a or a2 = a2 => dia(b, a, c) or dia(b, a2, c) = dia(b, a2, c)",
    "a or a2 = a2 => dia(b, c, a) or dia(b, c, a2) = dia(b, c, a2)",
)


def _modal_closed_under_r1r2(row) -> bool:
    op, cf = row
    return not cf.is_modal or cf.is_closed or not all(check_strict(op).result(law).passed for law in ("R1", "R2"))


def _congruence_round_trips(row) -> bool:
    op, cf = row
    theta = congruence_from_filter(op.alg, cf.filter)
    flt = congruence_to_filter(theta)
    return (flt.generator == cf.filter.generator and congruence_from_filter(op.alg, flt).reps == theta.reps
            and congruence_respects_op(op, theta) == cf.is_closed)


def _stone_commutes(pair) -> bool:
    op, frame = pair
    alg = op.alg
    elements = alg.elements()
    dia, box = diamond_table(frame), box_table(frame)
    # the complement of U sits at the mirrored index
    return (dia == op.table and box == tuple(alg.neg(v) for v in reversed(dia))
            and box == tuple(box_op(op, a, b, c) for a in elements for b in elements for c in elements))


def _pi_is_pif(pair) -> bool:
    op, frame = pair
    psi, space = check_psi(op), check_psi_space(frame)
    return all(psi.result(f"PI{i}").passed == space.result(f"PIF{i}").passed for i in range(1, 5))


def _example_regression(op) -> bool:
    """The 15 nonzero entries, and PI1's witness, which re-evaluates to a
    violation, while PI2-PI4 hold."""
    entries = example_3bamo_nonzero_entries()
    rep = check_psi(op)
    pi1 = rep.result("PI1")
    a, b, f, d, e = 3, 1, 3, 2, 1
    alg = op.alg
    rhs = op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f)
    return (len(entries) == 15 and all(op(a, b, c) == v for (a, b, c), v in entries.items())
            and sum(1 for v in op.table if v) == 15 and check_3bamo(op).passed
            and not pi1.passed and pi1.witness == (a, b, f, d, e) and not alg.leq(op(a, b, f), rhs)
            and all(rep.result(f"PI{i}").passed for i in (2, 3, 4)))


def _meet_zero_yet_in_contact(top) -> bool:
    """The atoms {1,2} and {2,3} meet in 0 as regular closed sets, yet
    they overlap, so the relation holds them in contact."""
    rca, rel = topo_models.eca_from_topology(top)
    i12 = rca.element_for(top.mask_of([1, 2]))
    i23 = rca.element_for(top.mask_of([2, 3]))
    return (rca.alg.atom_count == 2 and (i12 & i23) == 0 and not rel.holds(i12, i23, 0) and rel.holds(i12, i23, i23)
            and rel.bits != largest_eca(rca.alg).bits
            and check_derived_eca_props(rel).passed and characteristic_lemma_check(rel).passed)


def _composes(pair) -> bool:
    """h after g has the composite atom map, and semi- and hemimorphisms
    compose, over the first _MORPHISM_OPS two-atom PSI operators."""
    g, h = pair
    comp, kinds = h.compose(g), _endomorphism_kinds()
    if comp.atom_map != tuple(g.atom_map[i] for i in h.atom_map):
        return False
    for i1, i2, i3 in product(range(_MORPHISM_OPS), repeat=3):
        m1, m2, mc = kinds[g.atom_map, i1, i2], kinds[h.atom_map, i2, i3], kinds[comp.atom_map, i1, i3]
        if m1.semi and m2.semi and not mc.semi or m1.hemi and m2.hemi and not mc.hemi:
            return False
    return True


def _full_both_ways(pair) -> bool:
    h, op = pair
    inv = h.inverse()
    img = TernaryOperator(h.target, permute_operator_table(h.target, inv.atom_map, op.table))
    return classify_psi_morphism(h, op, img).full and classify_psi_morphism(inv, img, op).full


def _enumerated_iff_brute_forced(i: int) -> bool:
    """Relation i is an enumerated ECA iff brute force finds it, and so is
    the table whose entry t is bit t of i as a pseudo-inference table.  At
    one atom every automorphism is the identity, so each canonical form
    is the structure itself."""
    brute_relations, relations, brute_tables, tables = _listed_k1()
    table = tuple(i >> t & 1 for t in range(8))
    return (i in brute_relations) == (i in relations) and (table in brute_tables) == (table in tables)


class _Suite:
    """The scoreboard's spaces and claims (see the module docstring)."""

    def __init__(self, k: int, seed: int):
        self.k = max(1, min(k, 3))
        self.seed = seed

    # the spaces ---------------------------------------------------------

    @cached_property
    def relations_k1(self) -> Space:
        # relation i is the bitset i
        return Space((make_algebra(1), _pack(range(256), 8)), 256, "one-atom relations", True)

    @cached_property
    def relations_k2(self) -> Space:
        n, ecas = 10_000, _ecas(2)
        # one draw of 64n bits is the n draws of 64 bits, the first lowest;
        # random relations all fail at EC0 = ExtCA0, the flips reach the other laws
        flips = [r.bits ^ 1 << i for r in ecas for i in range(64)]
        pool = random.Random(self.seed).getrandbits(64 * n) | _pack(flips, 64) << 64 * n
        noun = f"two-atom relations: {n} seeded and the {len(flips)} one-bit flips of the {len(ecas)} ECAs"
        return Space((make_algebra(2), pool), n + len(flips), noun)

    @cached_property
    def ecas(self) -> Space:
        ecas = _ecas(1) + _ecas(2)
        return Space(ecas, len(ecas), "ECAs of at most two atoms up to isomorphism", True)

    @cached_property
    def eca_posets(self) -> Space:
        posets = [(make_algebra(k), _ecas(k)) for k in (1, 2)]
        return Space(posets, 2, "posets of the ECAs of one and two atoms up to isomorphism", True)

    @cached_property
    def psi_k1(self) -> Space:
        return Space(_psi(1), len(_psi(1)), "one-atom PSI operators up to isomorphism", True)

    @cached_property
    def psi_k2(self) -> Space:
        return Space(_psi(2), len(_psi(2)), "two-atom PSI operators up to isomorphism", True)

    @cached_property
    def pool(self) -> Space:
        ops = psi_operator_pool(self.k, self.seed)
        if self.k < 3:
            return Space(ops, len(ops), "PSI operators of at most two atoms up to isomorphism", True)
        return Space(ops, len(ops), f"PSI operators of at most three atoms, {_PSI_DRAWS} of them seeded")

    @cached_property
    def filters(self) -> Space:
        pool = self.pool
        rows = [(op, cf) for op in pool.members for cf in all_filters_classified(op)]
        return Space(rows, len(rows), f"filters of the {pool.size} {pool.noun}", pool.whole)

    @cached_property
    def strict(self) -> Space:
        ops = [op for op in _psi(1) + _psi(2) if check_strict(op).passed]
        return Space(ops, len(ops), "strict PSI operators of at most two atoms up to isomorphism", True)

    @cached_property
    def frames(self) -> Space:
        frames = [(op, dual_frame(op)) for op in bamo_operator_pool(self.k, self.seed)]
        atoms = "three" if self.k == 3 else "two"
        noun = f"dual frames of monotone operators of at most {atoms} atoms, {_BAMO_DRAWS} of them seeded"
        return Space(frames, len(frames), noun)

    @cached_property
    def example(self) -> Space:
        return Space([example_3bamo()], 1, "operator: the two-atom 3BAMO example")

    @cached_property
    def three_point(self) -> Space:
        return Space([topo_models.three_point_space()], 1, "space: the points 1, 2, 3 with basis {1}, {3}")

    @cached_property
    def finite_spaces(self) -> Space:
        spaces = topo_models.finite_spaces()
        noun = f"finite spaces of at most {topo_models.FINITE_SPACE_POINTS} points up to homeomorphism and T0 quotient"
        return Space(spaces, len(spaces), noun, True)

    @cached_property
    def eca_homs(self) -> Space:
        algs = [make_algebra(1), make_algebra(2)]
        homs = [(h, s, t) for a, b in product(algs, repeat=2) for h in enumerate_homs(a, b)
                for s in _ecas(a.atom_count) for t in _ecas(b.atom_count)]
        return Space(homs, len(homs), "Boolean homomorphisms between ECAs of at most two atoms up to isomorphism", True)

    @cached_property
    def endomorphism_pairs(self) -> Space:
        alg = make_algebra(2)
        homs = enumerate_homs(alg, alg)
        pairs = [(g, h) for g in homs for h in homs]
        noun = f"pairs of two-atom Boolean endomorphisms, over the first {_MORPHISM_OPS} two-atom PSI operators"
        return Space(pairs, len(pairs), noun)

    @cached_property
    def automorphism_pairs(self) -> Space:
        alg = make_algebra(2)
        pairs = [(h, op) for h in enumerate_homs(alg, alg) if h.is_bijective for op in _psi(2)[:_MORPHISM_OPS]]
        noun = f"pairs of a two-atom Boolean automorphism and one of the first {_MORPHISM_OPS} two-atom PSI operators"
        return Space(pairs, len(pairs), noun)

    @cached_property
    def bits_k1(self) -> Space:
        return Space(range(256), 256, "one-atom relations, each with the table of the same 8 bits", True)

    # the claims, in scoreboard order ------------------------------------

    claims = [
        Claim("eca-extca-agree-k1-exhaustive", "relations_k1", _systems_agree, at_once=True),
        Claim("eca-extca-agree-k2-random", "relations_k2", _systems_agree, at_once=True),
        Claim("translation-round-trip-and-image", "ecas", _round_trips),
        Claim("translation-order-reversal", "eca_posets", lambda poset: posets_dual_iso_check(*poset).passed),
        Claim("largest-relation-smallest-operator", "ecas", _below_largest),
        Claim("relational-implies-strict-simple-discriminator", "ecas", _strict_simple_discriminator),
        Claim("k1-relational-iff-simple-strict", "psi_k1", lambda op: relational_iff_simple_strict_check(op).passed),
        Claim("k2-relational-iff-simple-strict", "psi_k2", lambda op: relational_iff_simple_strict_check(op).passed),
        Claim("mu-properties", "pool", _mu_laws),
        Claim("mu-complement-fixed-under-s", "pool",
              lambda op: not check_strict(op).result("S").passed or _mu_complement_fixed(op)),
        Claim("monotone-in-each-coordinate", "pool", _monotone),
        Claim("closed-implies-modal", "filters", lambda row: not row[1].is_closed or row[1].is_modal),
        Claim("su-mid-iff-closed", "filters", lambda row: row[1].closed_via_su_mid == row[1].is_closed),
        Claim("modal-implies-closed-under-r1r2", "filters", _modal_closed_under_r1r2),
        Claim("modal-generator-shortcut-agrees", "filters", lambda row: row[1].modal_via_generator == row[1].is_modal),
        Claim("filter-congruence-round-trip", "filters", _congruence_round_trips),
        Claim("si-implies-simple-on-strict", "pool",
              lambda op: not (is_subdirectly_irreducible(op) and check_strict(op).passed) or is_simple(op)),
        Claim("cep-permutability-distributivity", "strict", lambda op: variety_spot_checks([op]).passed),
        Claim("dual-frame-descriptive", "frames", lambda pair: check_psi_frame(pair[1]).passed),
        Claim("stone-commutation", "frames", _stone_commutes),
        Claim("pi-pif-componentwise", "frames", _pi_is_pif),
        Claim("double-dual-identity", "frames", lambda pair: complex_algebra(pair[1])[1].table == pair[0].table),
        Claim("totality-iff-relational", "frames", lambda pair: is_total(pair[1])[0] == is_relational(pair[0])[0]),
        Claim("pif2-strong-form-search", "frames", lambda pair: not pif2_strong_form_separates(pair[1])),
        Claim("example-3bamo-regression", "example", _example_regression),
        Claim("three-point-space-witness", "three_point", _meet_zero_yet_in_contact),
        Claim("finite-spaces-give-ecas", "finite_spaces", _spaces_give_ecas, at_once=True),
        Claim("morphism-duality-biconditionals", "eca_homs",
              lambda m: morphism_duality_check(m[0], rel_to_op(m[1]), rel_to_op(m[2])).passed),
        Claim("eca-morphism-equivalences", "eca_homs", lambda m: classify_eca_morphism(*m)[1].passed),
        Claim("morphism-composition-contravariance", "endomorphism_pairs", _composes),
        Claim("bijective-full-inverts", "automorphism_pairs", _full_both_ways),
        Claim("enumeration-oracle-k1", "bits_k1", _enumerated_iff_brute_forced),
        Claim("relational-psi-iff-eca-k2", "psi_k2",
              lambda op: is_relational(op)[0] == (op.table in _eca_operators(2))),
        Claim("enumeration-sound", "ecas", is_eca),
    ]

    def run(self) -> list[SuiteItem]:
        items, t0 = [], time.perf_counter()
        for claim in self.claims:
            space = getattr(self, claim.space)
            if claim.at_once:
                found = claim.test(space)
            else:
                found = next(((i, m) for i, m in enumerate(space.members) if not claim.test(m)), None)
            detail = space.detail if found is None else f"{space.detail}; first counterexample {_named(*found)}"
            t1 = time.perf_counter()
            items.append(SuiteItem(claim.lemma, found is None, detail, t1 - t0, None if found is None else found[1]))
            t0 = t1
        return items


def _named(i: int, member) -> str:
    """A counterexample by its position, with its value when that is a
    number or a tuple of numbers."""
    if isinstance(member, int) or isinstance(member, tuple) and all(isinstance(x, int) for x in member):
        return f"#{i}: {member}"
    return f"#{i}"


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
