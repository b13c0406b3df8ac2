from collections import Counter
from functools import cache

import pytest

from psiforge import TernaryRelation, check_eca, check_extca, check_psi, example_3bamo, make_algebra
from psiforge import cli, contact_relation, report, ternary_operator, topo_models, verify
from psiforge.enumeration import enumerate_psi_operators
from psiforge.ternary_operator import DEFAULT_SEED
from psiforge.verify import (
    SuiteItem,
    bamo_operator_pool,
    psi_operator_pool,
    run_suite,
    scoreboard,
)

# every lemma, verdict and detail in order; k=1 and k=2 run the same pools
SCOREBOARD = """\
[pass] eca-extca-agree-k1-exhaustive  (all 256 one-atom relations)
[pass] eca-extca-agree-k2-random  (10128 two-atom relations: 10000 seeded and the 128 one-bit flips of the 2 ECAs)
[pass] translation-round-trip-and-image  (all 3 ECAs of at most two atoms up to isomorphism)
[pass] translation-order-reversal  (all 2 posets of the ECAs of one and two atoms up to isomorphism)
[pass] largest-relation-smallest-operator  (all 3 ECAs of at most two atoms up to isomorphism)
[pass] relational-implies-strict-simple-discriminator  (all 3 ECAs of at most two atoms up to isomorphism)
[pass] k1-relational-iff-simple-strict  (all 1 one-atom PSI operators up to isomorphism)
[pass] k2-relational-iff-simple-strict  (all 10 two-atom PSI operators up to isomorphism)
[pass] mu-properties  ({pool})
[pass] mu-complement-fixed-under-s  ({pool})
[pass] monotone-in-each-coordinate  ({pool})
[pass] closed-implies-modal  ({filters})
[pass] su-mid-iff-closed  ({filters})
[pass] modal-implies-closed-under-r1r2  ({filters})
[pass] modal-generator-shortcut-agrees  ({filters})
[pass] filter-congruence-round-trip  ({filters})
[pass] si-implies-simple-on-strict  ({pool})
[pass] cep-permutability-distributivity  (all 4 strict PSI operators of at most two atoms up to isomorphism)
[pass] dual-frame-descriptive  ({frames})
[pass] stone-commutation  ({frames})
[pass] pi-pif-componentwise  ({frames})
[pass] double-dual-identity  ({frames})
[pass] totality-iff-relational  ({frames})
[pass] pif2-strong-form-search  ({frames})
[pass] example-3bamo-regression  (1 operator: the two-atom 3BAMO example)
[pass] three-point-space-witness  (1 space: the points 1, 2, 3 with basis {{1}}, {{3}})
[pass] finite-spaces-give-ecas  (all 50 finite spaces of at most 4 points up to homeomorphism and T0 quotient)
[pass] morphism-duality-biconditionals  \
(all 23 Boolean homomorphisms between ECAs of at most two atoms up to isomorphism)
[pass] eca-morphism-equivalences  (all 23 Boolean homomorphisms between ECAs of at most two atoms up to isomorphism)
[pass] morphism-composition-contravariance  \
(16 pairs of two-atom Boolean endomorphisms, over the first 4 two-atom PSI operators)
[pass] bijective-full-inverts  \
(8 pairs of a two-atom Boolean automorphism and one of the first 4 two-atom PSI operators)
[pass] enumeration-oracle-k1  (all 256 one-atom relations, each with the table of the same 8 bits)
[pass] relational-psi-iff-eca-k2  (all 10 two-atom PSI operators up to isomorphism)
[pass] enumeration-sound  (all 3 ECAs of at most two atoms up to isomorphism)
34/34 lemmas verified"""

@pytest.fixture(scope="module")
def suite():
    """run_suite(k) for k = 1..3, run once per k for the whole module."""
    return cache(lambda k: run_suite(k=k))


@pytest.mark.parametrize("k, ops, frames", [(1, 11, 12), (2, 11, 12), (3, 27, 20)])
def test_scoreboard_pinned(suite, k, ops, frames):
    # the pool is every PSI operator of at most two atoms below k=3
    atoms, filters, whole = ("two", 42, "all ") if k < 3 else ("three", 170, "")
    pool = f"{ops} PSI operators of at most {atoms} atoms" + (" up to isomorphism" if whole else ", 8 of them seeded")
    details = {
        "pool": whole + pool,
        "filters": f"{whole}{filters} filters of the {pool}",
        "frames": f"{frames} dual frames of monotone operators of at most {atoms} atoms, 6 of them seeded",
    }
    assert scoreboard(suite(k)) == SCOREBOARD.format(**details)


def test_suite_all_pass_at_default_scale(suite):
    items = suite(2)
    assert items
    failures = [i.lemma for i in items if not i.passed]
    assert failures == []
    assert all(i.counterexample is None for i in items)
    details = {i.lemma: i.detail for i in items}
    assert details["eca-extca-agree-k2-random"] == (
        "10128 two-atom relations: 10000 seeded and the 128 one-bit flips of the 2 ECAs"
    )
    assert details["finite-spaces-give-ecas"] == (
        "all 50 finite spaces of at most 4 points up to homeomorphism and T0 quotient"
    )


@pytest.mark.parametrize("k", [1, 3])
def test_each_detail_names_its_space_and_size(suite, k):
    """An item's detail is its space's: the size first, after "all" only
    where the space is the whole family it names."""
    spaces = verify._Suite(k, DEFAULT_SEED)
    for claim, item in zip(verify._Suite.claims, suite(k)):
        space = getattr(spaces, claim.space)
        assert item.detail == space.detail, claim.lemma
        words = item.detail.split()
        assert words[:2] == ["all", str(space.size)] if space.whole else words[0] == str(space.size), claim.lemma
        assert ("all" in words) == space.whole, claim.lemma
        if claim.space in ("relations_k1", "relations_k2"):  # a packed pool of relations
            alg, pool = space.members
            assert (space.size - 1) * alg.size ** 3 < pool.bit_length() <= space.size * alg.size ** 3
        else:
            assert len(space.members) == space.size, claim.lemma


def _failing(monkeypatch, lemma, test) -> int:
    """Give the claim named lemma the test, and return its position."""
    claims = list(verify._Suite.claims)
    i = next(i for i, claim in enumerate(claims) if claim.lemma == lemma)
    claims[i] = verify.Claim(lemma, claims[i].space, test)
    monkeypatch.setattr(verify._Suite, "claims", claims)
    return i


def test_a_failing_claim_names_its_first_counterexample(monkeypatch, capsys):
    chosen = enumerate_psi_operators(make_algebra(2))[3]
    i = _failing(monkeypatch, "k2-relational-iff-simple-strict", lambda op: op != chosen)
    items = run_suite(k=1)
    assert [item.passed for item in items] == [n != i for n in range(34)]
    assert items[i].counterexample == chosen
    line = "[FAIL] k2-relational-iff-simple-strict  (all 10 two-atom PSI operators up to isomorphism; first counterexample #3)"
    assert items[i].line() == line
    assert cli.main(["verify-suite", "--k", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[i] == line and out[-1] == "33/34 lemmas verified"

    # a member that is a number is printed with its position
    i = _failing(monkeypatch, "enumeration-oracle-k1", lambda bits: bits < 37)
    item = run_suite(k=1)[i]
    assert (item.passed, item.counterexample) == (False, 37)
    assert item.detail.endswith("; first counterexample #37: 37")

    # a whole-space test names the member itself: one ExtCA verdict flipped
    # in the one-atom pool, where relation i is the bitset i
    monkeypatch.undo()
    verdicts = verify.pool_verdicts

    def flipped(alg, pool, n, system):
        out = verdicts(alg, pool, n, system)
        return out[:200] + bytes([1 - out[200]]) + out[201:] if n == 256 and system == "extca" else out

    monkeypatch.setattr(verify, "pool_verdicts", flipped)
    items = run_suite(k=1)
    assert [item.lemma for item in items if not item.passed] == ["eca-extca-agree-k1-exhaustive"]
    assert (items[0].counterexample, items[0].detail) == (200, "all 256 one-atom relations; first counterexample #200: 200")


def test_eca_agreement_flips_reach_laws_past_ec0(ecas_k2):
    """Random 2-atom relations all fail at EC0 = ExtCA0 first, so the
    agreement item also checks the one-bit flips of the two ECAs, which
    fail first at later laws."""
    flips = [TernaryRelation(r.alg, r.bits ^ 1 << i) for r in ecas_k2 for i in range(64)]
    assert len(flips) == 128
    for check, first_law in ((check_eca, "EC0"), (check_extca, "ExtCA0")):
        first = {next((r.axiom for r in check(rel).results if not r.passed), None) for rel in flips}
        assert first - {first_law, None}


def test_scoreboard_format():
    items = [SuiteItem("alpha", True, "detail"), SuiteItem("beta", False)]
    text = scoreboard(items)
    lines = text.splitlines()
    assert lines[0] == "[pass] alpha  (detail)"
    assert lines[1] == "[FAIL] beta"
    assert lines[2] == "1/2 lemmas verified"


def test_pools_are_deterministic():
    a = [(op.alg.atom_count, op.table) for op in psi_operator_pool(3, seed=1)]
    b = [(op.alg.atom_count, op.table) for op in psi_operator_pool(3, seed=1)]
    assert a == b
    c = [(op.alg.atom_count, op.table) for op in bamo_operator_pool(2, seed=1)]
    d = [(op.alg.atom_count, op.table) for op in bamo_operator_pool(2, seed=1)]
    assert c == d


def test_psi_pool_contents():
    pool = psi_operator_pool(3)
    assert len(pool) >= 20
    for op in pool:
        assert check_psi(op).passed


def test_filter_items_timed_apart(suite):
    # the fixture runs each scoreboard once, fresh, for the whole module
    seconds = {i.lemma: i.seconds for i in suite(1)}
    filter_items = [
        "closed-implies-modal",
        "su-mid-iff-closed",
        "modal-implies-closed-under-r1r2",
        "modal-generator-shortcut-agrees",
    ]
    times = [seconds[lemma] for lemma in filter_items]
    # timed from one shared start, each would report about the total
    assert len(set(times)) > 1
    assert sum(times) < 3 * max(times)


def _count_bodies(monkeypatch, module, name, key) -> Counter:
    """Replace module.name, a callee of memoised checkers, by a wrapper
    counting its calls by key(*args); calls keyed None are not counted."""
    fn, runs = getattr(module, name), Counter()

    def counted(*args):
        if (k := key(*args)) is not None:
            runs[k] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return runs


def test_memo_is_dropped_when_the_run_ends(monkeypatch):
    assert report._run_memo is None
    run_suite(k=1)
    assert report._run_memo is None

    seen = []

    def failing_test(rel):
        seen.append(len(report._run_memo))  # the spaces' enumerations are stored
        raise RuntimeError("planted failure")

    _failing(monkeypatch, "translation-round-trip-and-image", failing_test)
    with pytest.raises(RuntimeError, match="planted failure"):
        run_suite(k=1)
    assert seen and seen[0] > 0
    assert report._run_memo is None


def test_outside_a_run_every_call_computes(monkeypatch):
    runs = _count_bodies(monkeypatch, ternary_operator, "_check", lambda op, kind: kind)
    op = example_3bamo()
    assert check_psi(op) == check_psi(op)
    assert runs == {"psi": 2}


def test_run_decides_each_structure_once(monkeypatch):
    """Inside one run, the bodies of check_psi, check_strict, is_eca and
    eca_from_topology run once per distinct argument, although the items
    ask for each many times."""
    checks = _count_bodies(
        monkeypatch, ternary_operator, "_check", lambda op, kind: (kind, op) if kind != "3bamo" else None
    )
    ecas = _count_bodies(
        monkeypatch, contact_relation, "pool_verdicts", lambda alg, pool, n, system: (alg, pool) if system == "eca" else None
    )
    spaces = _count_bodies(monkeypatch, topo_models, "regular_closed_algebra", lambda top: top)
    assert all(item.passed for item in run_suite(k=2))
    for runs in (checks, ecas, spaces):
        assert runs and set(runs.values()) == {1}
    assert {kind for kind, _ in checks} == {"psi", "strict"}
