from collections import Counter
from functools import cache

import pytest

from psiforge import TernaryRelation, check_eca, check_extca, check_psi, example_3bamo
from psiforge import contact_relation, report, ternary_operator, topo_models, verify
from psiforge.verify import (
    SuiteItem,
    bamo_operator_pool,
    psi_operator_pool,
    run_suite,
    scoreboard,
)

# every lemma, verdict and detail in order; k=1 and k=2 run the same pools
SCOREBOARD = """\
[pass] eca-extca-agree-k1-exhaustive  (256 relations)
[pass] eca-extca-agree-k2-random  (10000 seeded relations, 128 one-bit flips of the 2 ECAs)
[pass] translation-round-trip-and-image  (1+2 relations)
[pass] translation-order-reversal  (all enumerated pairs)
[pass] largest-relation-smallest-operator
[pass] relational-implies-strict-simple-discriminator  (k<=2)
[pass] k1-relational-iff-simple-strict  (1 ops)
[pass] k2-relational-iff-simple-strict  (10 ops)
[pass] mu-properties  ({ops} operators)
[pass] mu-complement-fixed-under-s
[pass] monotone-in-each-coordinate
[pass] closed-implies-modal  ({ops} operators)
[pass] su-mid-iff-closed  ({ops} operators)
[pass] modal-implies-closed-under-r1r2  ({ops} operators)
[pass] modal-generator-shortcut-agrees  ({ops} operators)
[pass] filter-congruence-round-trip
[pass] si-implies-simple-on-strict
[pass] cep-permutability-distributivity  (4 strict ops)
[pass] dual-frame-descriptive  ({frames} frames)
[pass] stone-commutation  (dia, box, and complement laws)
[pass] pi-pif-componentwise
[pass] double-dual-identity
[pass] totality-iff-relational
[pass] pif2-strong-form-search  (no separation: with closure the identity, \
the strong form is an instance of the basic condition on every finite discrete frame)
[pass] example-3bamo-regression  (15 entries, PI1 witness (3,1,3,2,1))
[pass] three-point-space-witness  (lattice meet 0 yet in contact)
[pass] random-topologies-give-ecas  (100 seeded spaces)
[pass] morphism-duality-biconditionals  (23 combinations)
[pass] eca-morphism-equivalences
[pass] morphism-composition-contravariance
[pass] bijective-full-inverts
[pass] enumeration-oracle-k1  (1 relations brute forced)
[pass] relational-psi-iff-eca-k2  (2 of 10 tables relational)
[pass] enumeration-sound
34/34 lemmas verified"""


@pytest.fixture(scope="module")
def suite():
    """run_suite(k) for k = 1..3, run once per k for the whole module."""
    return cache(lambda k: run_suite(k=k))


@pytest.mark.parametrize("k, ops, frames", [(1, 11, 12), (2, 11, 12), (3, 27, 20)])
def test_scoreboard_pinned(suite, k, ops, frames):
    assert scoreboard(suite(k)) == SCOREBOARD.format(ops=ops, frames=frames)


def test_suite_all_pass_at_default_scale(suite):
    items = suite(2)
    assert items
    failures = [i.lemma for i in items if not i.passed]
    assert failures == []
    details = {i.lemma: i.detail for i in items}
    assert details["eca-extca-agree-k2-random"] == "10000 seeded relations, 128 one-bit flips of the 2 ECAs"
    assert details["random-topologies-give-ecas"] == "100 seeded spaces"


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

    def failing_item(self):
        seen.append(len(report._run_memo))  # the pools' rel_to_op calls are stored
        raise RuntimeError("planted failure")
        yield

    monkeypatch.setattr(verify._Suite, "translations", failing_item)
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
