import pytest

from psiforge.report import AxiomResult, CheckReport, failed, first_violation, passed


def test_report_accessors():
    rep = CheckReport("demo", (passed("A"), failed("B", (1, 2), "note")))
    assert not rep.passed
    assert rep.result("A").passed
    assert rep.failures() == [rep.result("B")]
    with pytest.raises(KeyError):
        rep.result("C")


def test_report_json_shape():
    rep = CheckReport("demo", (passed("A", "fine"), failed("B", (0,))))
    data = rep.to_json()
    assert data["kind"] == "demo"
    assert data["passed"] is False
    assert data["results"][0] == {"axiom": "A", "passed": True, "note": "fine"}
    assert data["results"][1] == {"axiom": "B", "passed": False, "witness": [0]}


def test_first_violation_takes_first():
    r = first_violation("X", iter([(3, 3), (0, 0)]))
    assert r == AxiomResult("X", False, (3, 3))
    assert first_violation("X", iter([])).passed


def test_run_memo_hits_an_equal_but_distinct_structure(monkeypatch):
    """While a run is open the memo is keyed by value: an equal operator
    built anew hits the stored report.  The hash each structure keeps is
    the hash of its fields, as a dataclass's own would be."""
    from psiforge import report
    from psiforge.boolean_core import make_algebra
    from psiforge.contact_relation import largest_eca
    from psiforge.duality_frames import dual_frame
    from psiforge.ternary_operator import TernaryOperator, check_psi, smallest_diamond

    op = smallest_diamond(make_algebra(2))
    twin = TernaryOperator(op.alg, tuple(list(op.table)))
    assert twin == op and twin.table is not op.table
    monkeypatch.setattr(report, "_run_memo", {})
    first = check_psi(op)
    assert check_psi(twin) is first
    rel, frame = largest_eca(op.alg), dual_frame(op)
    for obj, fields in ((op, (op.alg, op.table)), (rel, (rel.alg, rel.bits)), (frame, (frame.point_count, frame.rows))):
        assert hash(obj) == hash(fields) == hash(obj)
