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
