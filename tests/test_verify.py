from psiforge import TernaryRelation, check_eca, check_extca
from psiforge.verify import (
    SuiteItem,
    bamo_operator_pool,
    psi_operator_pool,
    run_suite,
    scoreboard,
)


def test_suite_all_pass_at_default_scale():
    items = run_suite(k=2)
    assert items
    failures = [i.lemma for i in items if not i.passed]
    assert failures == []
    details = {i.lemma: i.detail for i in items}
    assert details["eca-extca-agree-k2-random"] == "10000 seeded relations, 128 one-bit flips of the 2 ECAs"


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
    from psiforge import check_psi

    for op in pool:
        assert check_psi(op).passed


def test_filter_items_timed_apart():
    seconds = {i.lemma: i.seconds for i in run_suite(k=1)}
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
