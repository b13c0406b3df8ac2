import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

from psiforge.report import AxiomResult, CheckReport, Record, first_violation, result


def test_report_accessors():
    rep = CheckReport("demo", (result("A", None), result("B", (1, 2), "note")))
    assert not rep.passed
    assert rep.result("A").passed
    assert rep.failures() == [rep.result("B")]
    with pytest.raises(KeyError):
        rep.result("C")


def test_report_json_shape():
    rep = CheckReport("demo", (result("A", None, "fine"), result("B", (0,))))
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
    the hash of its fields, as a record's own would be."""
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
    for obj, fields in (
        (op, (op.alg, op.table)),
        (rel, (rel.alg, rel.bits)),
        (frame, (frame.point_count, frame.rows)),
        (op.alg, (op.alg.atom_count, op.alg.atom_names)),
    ):
        assert hash(obj) == hash(fields) == hash(obj)


def _records():
    """One record of each record class, built anew on each call."""
    from psiforge.boolean_core import Filter, make_algebra
    from psiforge.contact_relation import largest_eca
    from psiforge.duality_frames import dual_frame
    from psiforge.enumeration import enumerate_operators, find_counterexample, named_axioms
    from psiforge.filter_congruence import all_filters_classified, congruence_from_filter
    from psiforge.morphisms import classify_eca_morphism, classify_psi_morphism, enumerate_homs
    from psiforge.terms import Binary, Const, Identity, Inequality, QuasiIdentity, Ternary, Unary, Var, parse
    from psiforge.ternary_operator import check_psi, smallest_diamond
    from psiforge.topo_models import make_topology, regular_closed_algebra
    from psiforge.verify import SuiteItem

    alg1, alg2 = make_algebra(1), make_algebra(2)
    op, rel = smallest_diamond(alg1), largest_eca(alg1)
    hom = enumerate_homs(alg1, alg1)[0]
    topology = make_topology([1, 2, 3], [[1], [3]])
    x, one = Var("x"), Const(True)
    return [
        alg2,
        Filter(alg2, 1),
        op,
        rel,
        dual_frame(op),
        check_psi(op),
        enumerate_operators(alg1, named_axioms("psi"), mode="exhaustive"),
        find_counterexample(parse("dia(a, b, c) <= a"), alg1, named_axioms("psi")),
        all_filters_classified(op)[1],
        congruence_from_filter(alg2, Filter(alg2, 1)),
        hom,
        classify_psi_morphism(hom, op, op),
        classify_eca_morphism(hom, rel, rel)[0],
        one,
        x,
        Unary("not", x),
        Binary("and", x, one),
        Ternary("dia", (x, x, one)),
        Identity(x, one),
        Inequality(x, one),
        QuasiIdentity((Identity(x, one),), Identity(one, x)),
        topology,
        regular_closed_algebra(topology),
        SuiteItem("lemma", True),
    ]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_frozen_and_equal_by_its_fields():
    records, twins = _records(), _records()
    assert {type(r) for r in records} == set(_subclasses(Record))
    for r, twin in zip(records, twins):
        assert r == twin and hash(r) == hash(twin), type(r)
        assert r._fields and all(hasattr(r, name) for name in r._fields)
        for name in (*r._fields, "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)


def test_records_compare_by_class_and_repr_as_dataclasses():
    from psiforge.boolean_core import make_algebra
    from psiforge.terms import Identity, Inequality, Var, parse
    from psiforge.ternary_operator import smallest_diamond

    x, y = Var("x"), Var("y")
    assert Identity(x, y) != Inequality(x, y) and Identity(x, y) == Identity(x, y)
    assert repr(smallest_diamond(make_algebra(1))) == (
        "TernaryOperator(alg=FiniteBooleanAlgebra(atom_count=1, atom_names=('a0',)), "
        "table=(0, 0, 0, 0, 0, 0, 0, 1))"
    )
    assert repr(parse("dia(a, 1, not b) <= mu(a) and 0")) == (
        "Inequality(lhs=Ternary(op='dia', args=(Var(name='a'), Const(top=True), "
        "Unary(op='not', arg=Var(name='b')))), rhs=Binary(op='and', "
        "left=Unary(op='mu', arg=Var(name='a')), right=Const(top=False)))"
    )


def test_records_take_keywords_and_defaults():
    from psiforge.boolean_core import Filter, make_algebra
    from psiforge.filter_congruence import ClassifiedFilter
    from psiforge.ternary_operator import TernaryOperator
    from psiforge.verify import SuiteItem

    alg = make_algebra(1)
    f = Filter(alg, 1)
    by_name = ClassifiedFilter(filter=f, is_closed=True, is_modal=False, closed_via_su_mid=True, modal_via_generator=False)
    assert by_name == ClassifiedFilter(f, True, False, True, False)
    assert by_name.filter is f and by_name.is_modal is False
    assert ClassifiedFilter(f, True, False, modal_via_generator=False, closed_via_su_mid=True) == by_name
    item = SuiteItem("lemma", True)
    assert (item.detail, item.seconds) == ("", 0.0)
    assert SuiteItem("lemma", True, seconds=2.0).seconds == 2.0
    assert CheckReport("k").results == ()
    assert TernaryOperator(table=(0,) * 8, alg=alg) == TernaryOperator(alg, (0,) * 8)
    for call in (
        lambda: CheckReport(),
        lambda: CheckReport("k", (), ()),
        lambda: CheckReport("k", structure_kind="j"),
        lambda: CheckReport("k", bogus=1),
        lambda: SuiteItem("lemma"),
        lambda: ClassifiedFilter(f, True),
        lambda: TernaryOperator(alg),
        lambda: Filter(alg, 1, 2),
    ):
        with pytest.raises(TypeError):
            call()


_DUMP = """\
import pickle, sys
from psiforge.boolean_core import make_algebra
from psiforge.terms import parse
from psiforge.ternary_operator import smallest_diamond
records = (smallest_diamond(make_algebra(1)), parse("dia(a, b, c) <= a"))
print({hash(r) for r in records}, file=sys.stderr)
sys.stdout.buffer.write(pickle.dumps(records))
"""

_LOAD = """\
import pickle, sys
from psiforge.boolean_core import make_algebra
from psiforge.terms import parse
from psiforge.ternary_operator import smallest_diamond
fresh = (smallest_diamond(make_algebra(1)), parse("dia(a, b, c) <= a"))
for loaded, made in zip(pickle.loads(sys.stdin.buffer.read()), fresh):
    print(loaded == made, len({loaded, made}), hash(loaded) == hash(made))
"""


def test_a_record_pickled_after_hashing_hashes_anew_where_it_is_loaded():
    """The kept hash belongs to the process that computed it (string
    hashes are salted per process), so pickling leaves it out: a record
    hashed and pickled under one hash seed and loaded under another is
    one set member with a fresh equal record."""

    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, check=True).stdout

    out = run(_LOAD, "123", run(_DUMP, "7")).decode().split("\n")
    assert out == ["True 1 True", "True 1 True", ""]


def test_pickling_keeps_fields_and_computed_values_but_not_the_hash():
    from psiforge.boolean_core import make_algebra

    alg = make_algebra(3)
    hash(alg), alg.top
    back = pickle.loads(pickle.dumps(alg))
    assert back == alg and "_hash" not in vars(back) and vars(back)["top"] == 7
