import ast
import base64
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from psiforge import (
    check_eca,
    dual_frame,
    empty_relation,
    example_3bamo,
    largest_eca,
    make_algebra,
    smallest_diamond,
)
from psiforge import cli
from psiforge.contact_relation import relation_from_json
from psiforge.ternary_operator import operator_from_json


def run_cli(*args, stdin=None, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "psiforge.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def example_op_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "example_3bamo.json"
    path.write_text(json.dumps(example_3bamo().to_json()))
    return str(path)


@pytest.fixture(scope="module")
def largest_rel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "largest_eca_k2.json"
    path.write_text(json.dumps(largest_eca(make_algebra(2)).to_json()))
    return str(path)


def test_pipeline_check_psi_example(example_op_file):
    r1 = run_cli("check", "--kind", "psi", example_op_file)
    r2 = run_cli("check", "--kind", "psi", example_op_file)
    assert r1.returncode == 1
    assert r1.stdout == r2.stdout  # byte-identical across runs
    report = json.loads(r1.stdout)
    pi1 = next(x for x in report["results"] if x["axiom"] == "PI1")
    assert pi1["witness"] == [3, 1, 3, 2, 1]


def test_pipeline_convert_then_strict(largest_rel_file):
    first = run_cli("convert", "--to", "op", largest_rel_file)
    assert first.returncode == 0
    second = run_cli("check", "--kind", "strict", "-", stdin=first.stdout)
    assert second.returncode == 0
    again = run_cli("check", "--kind", "strict", "-", stdin=first.stdout)
    assert second.stdout == again.stdout
    assert json.loads(second.stdout)["passed"] is True


def test_pipeline_verify_suite():
    r = run_cli("verify-suite", "--k", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(line.startswith("[pass]") for line in lines[:-1])
    assert lines[-1].endswith("lemmas verified")
    r2 = run_cli("verify-suite", "--k", "2", "--timings")
    assert r2.stdout == r.stdout  # byte-identical across runs, with or without timings
    timings = r2.stderr.splitlines()
    assert [t.split()[-1] for t in timings] == [line.split()[1] for line in lines[:-1]]
    assert all(float(t.split()[0]) >= 0 for t in timings)


def test_check_eca_pass(largest_rel_file):
    r = run_cli("check", "--kind", "eca", largest_rel_file)
    assert r.returncode == 0
    r = run_cli("check", "--kind", "extca", largest_rel_file)
    assert r.returncode == 0


def test_convert_round_trip(example_op_file, largest_rel_file):
    rel_out = run_cli("convert", "--to", "op", largest_rel_file)
    back = run_cli("convert", "--to", "rel", "-", stdin=rel_out.stdout)
    assert back.returncode == 0
    rel = relation_from_json(json.loads(back.stdout))
    assert rel.bits == largest_eca(make_algebra(2)).bits
    # non-relational operators get flagged on the way back
    warn = run_cli("convert", "--to", "rel", example_op_file)
    assert "warning" in json.loads(warn.stdout)


def test_dualize_complex_round_trip():
    op = smallest_diamond(make_algebra(2))
    dual = run_cli("dualize", "-", stdin=json.dumps(op.to_json()))
    assert dual.returncode == 0
    back = run_cli("complex", "-", stdin=dual.stdout)
    assert back.returncode == 0
    assert operator_from_json(json.loads(back.stdout)).table == op.table


def test_dualize_complex_round_trip_at_five_points():
    """A 5-point compact frame goes through complex within the timeout:
    the complex algebra is built from the frame's bitsets, not one sweep
    of the frame per triple.  Its space conditions are checked too, with
    no size cap."""
    op = smallest_diamond(make_algebra(5))
    dual = run_cli("dualize", "--compact", "-", stdin=json.dumps(op.to_json()), timeout=60)
    assert dual.returncode == 0
    back = run_cli("complex", "-", stdin=dual.stdout, timeout=60)
    assert back.returncode == 0
    assert operator_from_json(json.loads(back.stdout)).table == op.table
    space = run_cli("check", "--kind", "space", "-", stdin=dual.stdout, timeout=60)
    assert space.returncode == 0
    assert json.loads(space.stdout)["passed"]


def test_check_frame_and_total():
    fr = dual_frame(smallest_diamond(make_algebra(2)))
    payload = json.dumps(fr.to_json())
    assert run_cli("check", "--kind", "frame", "-", stdin=payload).returncode == 0
    assert run_cli("check", "--kind", "space", "-", stdin=payload).returncode == 0
    r = run_cli("check", "--kind", "total", "-", stdin=payload)
    assert r.returncode == 1  # the least operator is not relational


def test_enumerate_ecas_stream():
    r = run_cli("enumerate", "--what", "ecas", "--k", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rel = relation_from_json(json.loads(line))
        assert check_eca(rel).passed
    r2 = run_cli("enumerate", "--what", "ecas", "--k", "2")
    assert r2.stdout == r.stdout


def test_enumerate_operators_labelled():
    r = run_cli("enumerate", "--what", "operators", "--k", "1", "--axioms", "psi")
    assert r.returncode == 0
    line = json.loads(r.stdout.strip().splitlines()[0])
    assert line["label"] == "exhaustive"


def test_enumerate_output_feeds_check():
    rels = run_cli("enumerate", "--what", "ecas", "--k", "2")
    for line in rels.stdout.strip().splitlines():
        assert run_cli("check", "--kind", "eca", "-", stdin=line).returncode == 0
    ops = run_cli("enumerate", "--what", "operators", "--k", "2", "--axioms", "psi")
    for line in ops.stdout.strip().splitlines():
        assert run_cli("check", "--kind", "psi", "-", stdin=line).returncode == 0


def test_find_exhausted_and_found():
    r = run_cli("find", "--sentence", "dia(a,b,f) <= dia(b,a,f)", "--k", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["found"] is False
    r = run_cli("find", "--sentence", "dia(a,b,c) = 0", "--k", "1")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["found"] is True and payload["assignment"] == {"a": 1, "b": 1, "c": 1}


@pytest.mark.parametrize(
    "sentence",
    [
        "mu(" * 40 + "x" + ")" * 40 + " = x",
        "mu(" * 40 + "x" + ")" * 40 + " = " + "mu(" * 40 + "x" + ")" * 40,
        "d(" * 40 + "x" + ")" * 40 + " = " + "not mu(not " * 40 + "x" + ")" * 40,
    ],
    ids=["nested", "equal-sides", "d-against-its-definition"],
)
def test_nested_mu_compiles_in_linear_time(sentence):
    """mu writes its argument's negation twice, so nested mu expands to a
    term whose shared subterms have exponentially many paths, and here
    both sides can expand to equal terms; compiling stays linear in the
    sentence text."""
    r = run_cli("find", "--sentence", sentence, "--k", "1", timeout=3)
    assert r.returncode == 0
    assert json.loads(r.stdout)["found"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--what", "ecas", "--k", "3"],
        ["enumerate", "--what", "operators", "--k", "2"],
        ["find", "--sentence", "dia(a, b, c) <= dia(b, a, c)", "--k", "2"],
        ["find", "--sentence", "mu(x) = 0", "--k", "2"],
        ["check", "--kind", "psi", "EXAMPLE"],
    ],
)
def test_unsampled_verbs_are_byte_deterministic(argv, example_op_file):
    """The same argv gives the same stdout in fresh processes (each with
    its own string-hash seed) and under any PSIFORGE_SEED."""
    argv = [example_op_file if t == "EXAMPLE" else t for t in argv]
    runs = [run_cli(*argv), run_cli(*argv)] + [run_cli(*argv, env={"PSIFORGE_SEED": s}) for s in ("1", "2")]
    assert runs[0].returncode in (0, 1) and runs[0].stdout
    assert {(r.returncode, r.stdout) for r in runs} == {(runs[0].returncode, runs[0].stdout)}


def test_topo_three_point():
    payload = json.dumps({"points": [1, 2, 3], "basis": [[1], [3]]})
    r = run_cli("topo", "-", stdin=payload)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["algebra"]["atoms"] == 2
    assert [[1, 2], [2, 3]] == out["regular_closed_sets"][1:3]


def test_bad_inputs_exit_2(example_op_file):
    assert run_cli("check", "--kind", "psi", "/nonexistent.json").returncode == 2
    assert run_cli("check", "--kind", "psi", "-", stdin="not json").returncode == 2
    assert run_cli("check", "--kind", "bogus", example_op_file).returncode == 2
    assert run_cli("enumerate", "--what", "ecas", "--k", "9").returncode == 2
    assert run_cli("nonsense").returncode == 2


def test_seed_env_respected():
    for argv in (
        ("enumerate", "--what", "operators", "--k", "2", "--mode", "sampled"),
        ("find", "--sentence", "dia(a,b,c) <= mu(dia(a,b,c))", "--k", "2", "--mode", "sampled"),
    ):
        a = run_cli(*argv, env={"PSIFORGE_SEED": "7"})
        b = run_cli(*argv, env={"PSIFORGE_SEED": "7"})
        assert a.stdout == b.stdout
        assert "sampled(seed=7)" in a.stdout, argv


def test_output_file(tmp_path, largest_rel_file):
    out = tmp_path / "report.json"
    r = run_cli("check", "--kind", "eca", largest_rel_file, "-o", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["passed"] is True


def assert_usage_error(r):
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("psiforge: ")
    assert len(r.stderr.splitlines()) == 1  # one message, no traceback


def test_bad_seed_env_exits_2(example_op_file):
    assert_usage_error(run_cli("check", "--kind", "psi", example_op_file, env={"PSIFORGE_SEED": "xyz"}))


def test_check_psi_above_four_atoms(tmp_path):
    """At five atoms PI1 is decided exactly, with no seed and no note: the
    smallest diamond passes with the same bytes under any PSIFORGE_SEED,
    and a table failing MO1-MO3 fails with a witness that re-evaluates
    to a violation."""
    alg = make_algebra(5)
    good = tmp_path / "smallest5.json"
    good.write_text(json.dumps(smallest_diamond(alg).to_json()))
    runs = [run_cli("check", "--kind", "psi", str(good), env={"PSIFORGE_SEED": s}) for s in ("1", "2")]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    table = [a & b & c for a in range(32) for b in range(32) for c in range(32)]
    table[(31 * 32 + 1) * 32 + 31] = 31
    bad = tmp_path / "not_mo5.json"
    bad.write_text(json.dumps({"alg": alg.to_json(), "table": table}))
    r = run_cli("check", "--kind", "psi", str(bad))
    assert r.returncode == 1, r.stderr
    results = json.loads(r.stdout)["results"]
    assert all("note" not in result for result in results)
    pi1 = results[0]
    assert pi1["axiom"] == "PI1" and pi1["witness"] == [31, 1, 31, 31, 29]
    a, b, f, d, e = pi1["witness"]

    def dia(x, y, z):
        return table[(x * 32 + y) * 32 + z]

    assert dia(a, b, f) & ~(dia(a, b, 31 ^ d) | dia(a, b, 31 ^ e) | dia(d, e, f))


def test_json_array_input_exits_2():
    assert_usage_error(run_cli("check", "--kind", "psi", "-", stdin="[1, 2]"))
    # nesting past the decoder's recursion limit is an input error too
    assert_usage_error(run_cli("check", "--kind", "psi", "-", stdin="[" * 100000))


def test_output_file_kept_on_input_error(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("previous\n")
    r = run_cli("check", "--kind", "psi", str(tmp_path / "missing.json"), "-o", str(out))
    assert_usage_error(r)
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_oversized_frames_refused_at_parse():
    """Frames above the 6-point cap are refused before R or bits is read."""
    huge = json.dumps({"points": 10**19, "R": []})
    assert_usage_error(run_cli("check", "--kind", "total", "-", stdin=huge))
    nine = json.dumps({"points": 9, "R": []})
    assert_usage_error(run_cli("check", "--kind", "frame", "-", stdin=nine))
    packed = json.dumps({"points": 40, "bits": ""})
    assert_usage_error(run_cli("check", "--kind", "frame", "-", stdin=packed))
    seven = json.dumps({"points": 7, "R": [[0, [0], [0], [0]]]})
    r = run_cli("complex", "-", stdin=seven)
    assert_usage_error(r)
    assert "cap" in r.stderr


_OVER_CAP = " or ".join(f"v{i}" for i in range(21)) + " = v0"  # one variable over the sweep cap


@pytest.mark.parametrize(
    "argv, axioms",
    [
        (["find", "--sentence", _OVER_CAP, "--k", "1"], "psi"),
        (["find", "--sentence", _OVER_CAP, "--k", "1"], ["0 = 1"]),
        (["enumerate", "--what", "operators", "--k", "1"], ["0 = 1", _OVER_CAP]),
    ],
    ids=["find-psi", "find-empty-space", "enumerate-empty-space"],
)
def test_over_cap_sentences_refused_before_any_sweep(argv, axioms, tmp_path):
    """A sentence over the 20-variable cap is refused whether or not any
    table passes the axioms: no table passes 0 = 1, so a sentence compiled
    only when a table reaches it would never be refused."""
    if isinstance(axioms, list):
        path = tmp_path / "axioms.txt"
        path.write_text("\n".join(axioms) + "\n")
        axioms = f"@{path}"
    r = run_cli(*argv, "--axioms", axioms)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "psiforge: sweeps are capped at 20 variables\n")


@pytest.mark.parametrize("mode", ["relational", "sampled"])
def test_over_cap_axioms_refused_before_any_table(mode, tmp_path, monkeypatch, capsys):
    """enumerate compiles every axiom before it builds or draws a table."""
    from psiforge import enumeration

    def unreachable(*args):
        raise AssertionError("a table was built before the axioms compiled")

    monkeypatch.setattr(enumeration, "enumerate_ecas", unreachable)
    monkeypatch.setattr(enumeration, "sample_psi_operators", unreachable)
    path = tmp_path / "axioms.txt"
    path.write_text(_OVER_CAP + "\n")
    code = cli.main(["enumerate", "--what", "operators", "--k", "3", "--mode", mode, "--axioms", f"@{path}"])
    assert (code, *capsys.readouterr()) == (2, "", "psiforge: sweeps are capped at 20 variables\n")


@pytest.mark.parametrize("k", ["0", "4"])
def test_verify_suite_k_outside_1_to_3_exits_2(k, capsys):
    with mock.patch("psiforge.verify.run_suite", side_effect=AssertionError("run_suite ran")):
        code = cli.main(["verify-suite", "--k", k])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"argument --k: invalid choice: {k}" in err


def test_compact_frame_trailing_bit_exits_2():
    # a one-point frame has 1 x 8 bits; "AAE=" sets bit 8, one past the end
    trailing = json.dumps({"points": 1, "bits": "AAE="})
    r = run_cli("check", "--kind", "frame", "-", stdin=trailing)
    assert_usage_error(r)
    assert "out of range" in r.stderr


def test_compact_bits_outside_base64_exit_2():
    # "!!" holds no base64 character; a decoder that skipped them would read
    # an empty bitset, a frame that passes and a relation that fails.  The
    # other payloads hold a byte count other than (bits + 7) // 8: a two-atom
    # relation has 64 bits, a one-atom one 8, a two-point frame 2 x 64 and
    # a one-point frame 8; read as they stand they would check as valid
    for kind, payload in (
        ("frame", {"points": 1, "bits": "!!"}),
        ("eca", {"alg": {"atoms": 1}, "bits": "!!"}),
        ("eca", {"alg": {"atoms": 2}, "bits": "AA=="}),
        ("eca", {"alg": {"atoms": 1}, "bits": "AAAA"}),
        ("frame", {"points": 2, "bits": ""}),
        ("frame", {"points": 1, "bits": "AAA="}),
        # a frame without points, in either form, is refused: its complex
        # algebra would be degenerate
        ("frame", {"points": 0, "bits": ""}),
        ("frame", {"points": 0, "R": []}),
        ("space", {"points": 0, "R": []}),
        ("total", {"points": 0, "R": []}),
        # a payload giving both forms is refused, not read by one of them
        ("eca", {"alg": {"atoms": 1}, "bits": "AA==", "triples": [[1, 1, 1]]}),
        ("frame", {"points": 1, "bits": "AA==", "R": [[0, [0], [0], [0]]]}),
    ):
        r = run_cli("check", "--kind", kind, "-", stdin=json.dumps(payload))
        assert_usage_error(r)
        assert r.stderr.startswith("psiforge: bad input: ")
    # complex reads frames through the same reader and refuses the same way
    r = run_cli("complex", "-", stdin=json.dumps({"points": 0, "R": []}))
    assert_usage_error(r)
    assert r.stderr.startswith("psiforge: bad input: frame has 0 points")
    r = run_cli("topo", "-", stdin=json.dumps({"points": 1, "basis": [[0]], "opens": []}))
    assert_usage_error(r)
    assert r.stderr.startswith("psiforge: bad input: ")


def test_compact_frame_empty_coordinate_exits_2():
    # a one-point frame's bit 3 is the triple ({}, {0}, {0}) of point 0
    empty_y1 = json.dumps({"points": 1, "bits": base64.b64encode(bytes([1 << 3])).decode("ascii")})
    r = run_cli("check", "--kind", "frame", "-", stdin=empty_y1)
    assert_usage_error(r)
    assert "nonempty" in r.stderr


@pytest.mark.parametrize(
    "payload",
    [
        '{"alg": {"atoms": 1.5}, "table": [0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"alg": {"atoms": true}, "table": [0, 0, 0, 0, 0, 0, 0, 0]}',
        # the smallest diamond on two atoms with its (1, 1, 1) entry as 1.5
        json.dumps({"alg": {"atoms": 2}, "table": [
            1.5 if (a, b, c) == (1, 1, 1) else a & b & c
            for a in range(4) for b in range(4) for c in range(4)
        ]}),
        '{"alg": {"atoms": 1e400}, "table": [0]}',
    ],
    ids=["atoms-float", "atoms-bool", "table-float", "atoms-overflow"],
)
def test_json_integers_not_coerced(payload):
    r = run_cli("check", "--kind", "psi", "-", stdin=payload)
    assert_usage_error(r)
    assert "must be an integer" in r.stderr


_SMALLEST_K2 = [a & b & c for a in range(4) for b in range(4) for c in range(4)]


@pytest.mark.parametrize(
    "verb, payload",
    [
        # a string is not read as the list of its characters
        (("convert", "--to", "rel"), {"alg": {"atoms": 2, "names": "ab"}, "table": _SMALLEST_K2}),
        (("convert", "--to", "rel"), {"alg": {"atoms": 1, "names": [None]}, "table": [0] * 7 + [1]}),
        (("topo",), {"points": "ab"}),
        (("topo",), {"points": ["a", "b"], "opens": ["ab"]}),
        # repeated labels are not merged into one point
        (("topo",), {"points": [True, 1]}),
        (("topo",), {"points": [1, 1]}),
        # a basis member names a point only as a label of its own JSON type
        (("topo",), {"points": 2, "basis": [[True]]}),
        (("topo",), {"points": 2, "basis": [[1.0]]}),
        (("topo",), {"points": [1, 2], "basis": [[True]]}),
        (("topo",), {"points": [True, 2], "basis": [[1]]}),
        # a label is a JSON scalar and a basis a list of lists
        (("topo",), {"points": [1, 2], "basis": [[[1]]]}),
        (("topo",), {"points": [[1], 2], "basis": [[2]]}),
        (("topo",), {"points": [1, 2], "basis": [[{"a": 1}]]}),
        (("topo",), {"points": [1, 2], "basis": [1]}),
        (("topo",), {"points": [1, 2], "basis": 5}),
        # the atom count is read first, so a missing algebra stays a bad input
        (("check", "--kind", "psi"), {"alg": None, "table": [0]}),
    ],
    ids=[
        "names-string",
        "names-null",
        "points-string",
        "open-string",
        "points-true-1",
        "points-1-1",
        "basis-true-counted",
        "basis-float-counted",
        "basis-true-1",
        "basis-1-true",
        "basis-label-list",
        "points-label-list",
        "basis-label-object",
        "basis-set-int",
        "basis-int",
        "alg-null",
    ],
)
def test_json_lists_not_coerced(verb, payload):
    r = run_cli(*verb, "-", stdin=json.dumps(payload))
    assert_usage_error(r)
    assert r.stderr.startswith("psiforge: bad input: ")
    assert len(r.stderr.splitlines()) == 1


# Runs cli.main in a fresh interpreter and prints the psiforge modules it
# loaded, one per line.
_FOOTPRINT = """\
import sys
from psiforge import cli
cli.main(sys.argv[1:])
print("\\n".join(sorted(m for m in sys.modules if m.startswith("psiforge."))), file=sys.stderr)
"""


def _loaded_modules(*argv):
    r = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, text=True)
    return {line.removeprefix("psiforge.") for line in r.stderr.splitlines() if line.startswith("psiforge.")}


def test_each_verb_loads_only_what_it_runs(example_op_file, largest_rel_file, tmp_path):
    operator_checker = {"cli", "errors", "boolean_core", "report", "terms", "ternary_operator"}
    # the failing example compiles sentences to name its witnesses; a
    # passing table is decided on planes and never loads the compiler
    assert _loaded_modules("check", "--kind", "psi", example_op_file) == operator_checker | {"planes"}
    passing = tmp_path / "smallest_diamond_k2.json"
    passing.write_text(json.dumps(smallest_diamond(make_algebra(2)).to_json()))
    assert _loaded_modules("check", "--kind", "psi", str(passing)) == operator_checker - {"terms"} | {"planes"}
    # likewise a passing relation is decided on masks, and a failing one
    # compiles the sentence of its first failing law
    relation_checker = operator_checker - {"terms"} | {"contact_relation"}
    for kind in ("eca", "extca"):
        assert _loaded_modules("check", "--kind", kind, largest_rel_file) == relation_checker
    failing = tmp_path / "empty_relation_k2.json"
    failing.write_text(json.dumps(empty_relation(make_algebra(2)).to_json()))
    assert _loaded_modules("check", "--kind", "eca", str(failing)) == relation_checker | {"terms"}
    # the translations and the topological model sweep no sentence
    assert _loaded_modules("convert", "--to", "op", largest_rel_file) == relation_checker
    assert _loaded_modules("convert", "--to", "rel", str(passing)) == relation_checker
    topology = tmp_path / "three_point_topology.json"
    topology.write_text(json.dumps({"points": [1, 2, 3], "basis": [[1], [3]]}))
    assert _loaded_modules("topo", str(topology)) == relation_checker | {"topo_models"}
    # enumeration and search build their tables without the frame module
    searcher = relation_checker | {"enumeration", "terms"}
    assert _loaded_modules("enumerate", "--what", "ecas", "--k", "2") == searcher
    for mode in ("auto", "relational", "sampled"):
        assert _loaded_modules("enumerate", "--what", "operators", "--k", "2", "--mode", mode) == searcher
    assert _loaded_modules("find", "--sentence", "dia(a, b, c) <= a", "--k", "2") == searcher
    # PIF1 is decided by the PI1 row test; the other frame checks load no plane test
    frame = tmp_path / "smallest_diamond_k2_frame.json"
    frame.write_text(json.dumps(dual_frame(smallest_diamond(make_algebra(2))).to_json()))
    assert "planes" in _loaded_modules("check", "--kind", "space", str(frame))
    assert "planes" not in _loaded_modules("check", "--kind", "frame", str(frame))
    assert "planes" not in _loaded_modules("check", "--kind", "total", str(frame))
    assert _loaded_modules("--help") == {"cli", "errors"}


def test_only_the_samplers_import_random():
    """random is imported by enumeration (its two samplers) and verify (the
    seeded scoreboard draws) only, so the seed reaches no other layer."""

    def imports_random(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "random" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "random"

    importers = {
        path.stem
        for path in Path(cli.__file__).parent.glob("*.py")
        if any(imports_random(node) for node in ast.walk(ast.parse(path.read_text())))
    }
    assert importers == {"enumeration", "verify"}


_IMPORTS = """\
import sys
from psiforge import cli
cli.main(sys.argv[1:])
print("loaded:", *sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""


def test_no_verb_imports_dataclasses(example_op_file, largest_rel_file, tmp_path):
    """psiforge's value classes and result rows are records (report.Record),
    which make their dataclass fields only when something asks for them, so
    no verb imports dataclasses, nor inspect, which dataclasses imports; a
    new @dataclass, or an import of either, fails here."""
    frame = tmp_path / "smallest_diamond_k2_frame.json"
    frame.write_text(json.dumps(dual_frame(smallest_diamond(make_algebra(2))).to_json()))
    topology = tmp_path / "three_point_topology.json"
    topology.write_text(json.dumps({"points": [1, 2, 3], "basis": [[1], [3]]}))
    for argv in (
        ("check", "--kind", "psi", example_op_file),
        ("check", "--kind", "eca", largest_rel_file),
        ("check", "--kind", "space", str(frame)),
        ("convert", "--to", "op", largest_rel_file),
        ("dualize", example_op_file),
        ("complex", str(frame)),
        ("enumerate", "--what", "ecas", "--k", "2"),
        ("enumerate", "--what", "operators", "--k", "2", "--mode", "auto"),
        ("find", "--sentence", "dia(a, b, c) <= a", "--k", "2"),
        ("verify-suite", "--k", "1"),
        ("topo", str(topology)),
    ):
        r = subprocess.run([sys.executable, "-c", _IMPORTS, *argv], capture_output=True, text=True)
        assert r.stderr.splitlines()[-1:] == ["loaded:"], (argv, r.stderr)


def test_package_names_are_the_submodule_objects(monkeypatch):
    import psiforge
    import psiforge.contact_relation

    star: dict = {}
    exec("from psiforge import *", star)
    exported = {name: getattr(psiforge, name) for name in psiforge.__all__}
    modules = {name: obj for name, obj in exported.items() if inspect.ismodule(obj)}
    assert all(obj is sys.modules[f"psiforge.{name}"] for name, obj in modules.items())
    for name, obj in exported.items():
        assert star[name] is obj
        assert name in modules or any(getattr(m, name, None) is obj for m in modules.values()), name
    with pytest.raises(AttributeError):
        psiforge.no_such_name
    # read through, not cached: a patched submodule shows at once
    monkeypatch.setattr(psiforge.contact_relation, "check_eca", len)
    assert psiforge.check_eca is len


# ---------------------------------------------------------------------------
# exit contract: 0, 1 or 2 for any input, never an exception, and nothing
# on stdout with a 2.  Each verb gets inputs of its own shape, every field
# mostly valid, and at times any JSON value in its place.

_scalars = st.none() | st.booleans() | st.integers(-2, 9) | st.integers() | st.floats() | st.text(max_size=3)
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)


def _field(valid):
    """A field's value: mostly valid, else any JSON value."""
    return st.one_of(valid, valid, valid, _json)


def _spoiled(values):
    """A list of values, at times with one of its first entries replaced by
    a scalar (or the scalar appended, which changes its length)."""
    def spoil(args):
        vals, i, bad = args
        return vals[:i] + [bad] + vals[i + 1:]

    return values | st.tuples(values, st.integers(0, 7), _scalars).map(spoil)


def _packed(n_bytes):
    return st.binary(min_size=n_bytes, max_size=n_bytes).map(lambda raw: base64.b64encode(raw).decode())


def _alg(k):
    return _field(st.just({"atoms": k})) | st.fixed_dictionaries({"atoms": _scalars}, optional={"names": _json})


_operators = st.integers(1, 2).flatmap(lambda k: st.fixed_dictionaries({
    "alg": _alg(k),
    "table": _field(_spoiled(st.lists(st.integers(0, (1 << k) - 1), min_size=8 ** k, max_size=8 ** k))),
}))
# a compact "bits" field, when drawn, is read in place of the long form
_relations = st.integers(1, 2).flatmap(lambda k: st.fixed_dictionaries({
    "alg": _alg(k),
    "triples": _field(st.lists(_spoiled(st.lists(st.integers(0, (1 << k) - 1), min_size=3, max_size=3)), max_size=12)),
}, optional={"bits": _field(_packed(8 ** k // 8))}))


def _point_lists(n):
    return _spoiled(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))


_frames = st.integers(0, 3).flatmap(lambda n: st.fixed_dictionaries({
    "points": _field(st.just(n)),
    "R": _field(st.lists(_spoiled(st.tuples(st.integers(0, max(n - 1, 0)), *[_point_lists(max(n, 1))] * 3).map(list)), max_size=8)),
}, optional={"bits": _field(_packed((n * 8 ** n + 7) // 8))}))
_topologies = st.integers(1, 5).flatmap(lambda n: st.fixed_dictionaries(
    {"points": _field(st.just(n) | st.lists(st.integers(0, 9), min_size=n, max_size=n))},
    optional={"basis": _field(st.lists(_point_lists(n), max_size=4)), "opens": _json},
))

_VERBS = [
    *((["check", "--kind", kind], _operators) for kind in ("3bamo", "psi", "strict")),
    *((["check", "--kind", kind], _relations) for kind in ("eca", "extca")),
    *((["check", "--kind", kind], _frames) for kind in ("frame", "space", "total")),
    (["convert", "--to", "op"], _relations),
    (["convert", "--to", "rel"], _operators),
    (["dualize"], _operators),
    (["complex"], _frames),
    (["topo"], _topologies),
]
_calls = st.sampled_from(_VERBS).flatmap(
    lambda verb: st.tuples(st.just(verb[0]), st.one_of(verb[1], verb[1], verb[1], _json))
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=_calls, compact=st.booleans())
@example(call=(["check", "--kind", "psi"], {"alg": {"atoms": float("inf")}, "table": [0]}), compact=False)
@example(call=(["check", "--kind", "frame"], {"points": 2, "R": [[0, [10 ** 12], [0], [0]]]}), compact=False)
@example(call=(["topo"], {"points": 10 ** 12}), compact=False)
def test_exit_contract_on_any_json(call, compact):
    argv, payload = call
    argv = argv + ["--compact"] * compact + ["-"]
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), (argv, payload, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, payload)
        assert err.getvalue().startswith("psiforge: ")


# Random argv for the verbs that take options rather than a JSON input.
# Values are drawn mostly invalid: a valid call runs real work, and the
# test should stay within a few seconds.
_SENTENCES = st.one_of(
    st.sampled_from(["x = x", "dia(a, b, c) <= dia(b, a, c)", "mu(x) = 0", "a and b = b and a"]),
    st.text(max_size=12),
    st.integers(1, 3000).map(lambda n: "(" * n + "x" + ")" * n + " = x"),
    st.integers(1, 3000).map(lambda n: "not " * n + "x = x"),
    st.integers(1, 3000).map(lambda n: "dia(" * n + "x" + ", x, x)" * n + " = x"),
)
_VALUES = {
    "--k": st.sampled_from(["1", "1", "2", "3", "0", "7", "-1", "9" * 40, "1.5", "x", "", " 2", "0x2", "1e3"]),
    "--what": st.sampled_from(["ecas", "operators", "op", "", "ECAS"]),
    "--axioms": st.sampled_from(["psi", "3bamo", "strict", "nope", "", "@", "@MISSING", "@BAD_AXIOMS", "@DIR"]),
    "--mode": st.sampled_from(["auto", "exhaustive", "relational", "sampled", "fast", ""]),
    "--sentence": _SENTENCES,
    "-o": st.sampled_from(["-", "OUT", "MISSING/out.json", "DIR"]),
}
_ARGV_OPTIONS = {
    "enumerate": ["--what", "--k", "--axioms", "--mode", "-o", "--compact"],
    "find": ["--sentence", "--k", "--axioms", "--mode", "-o", "--compact"],
    "verify-suite": ["--k", "-o", "--compact", "--timings"],
}
_STRAY = st.sampled_from(["--kk", "--help", "-x", "--", "extra", "--what", "--sentence", "--compact=1"])


def _option(verb):
    """One option token with its value, or without one, or a stray token."""
    def tokens(name):
        if name in ("--compact", "--timings"):
            return st.just([name])
        value = _VALUES[name]
        return st.one_of(
            value.map(lambda v: [name, v]),
            value.map(lambda v: [f"{name}={v}"]) if name.startswith("--") else value.map(lambda v: [name + v]),
            st.just([name]),
        )

    return st.sampled_from(_ARGV_OPTIONS[verb]).flatmap(tokens) | _STRAY.map(lambda t: [t])


_argvs = st.sampled_from(sorted(_ARGV_OPTIONS)).flatmap(
    lambda verb: st.lists(_option(verb), max_size=5).map(lambda opts: [verb] + [t for o in opts for t in o])
)


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "bad.ax").write_text("dia(a, b = c\n")
    (root / "dir").mkdir()
    return {
        "ROOT": str(root),
        "OUT": str(root / "out.json"),
        "MISSING": str(root / "missing" / "x.ax"),
        "BAD_AXIOMS": str(root / "bad.ax"),
        "DIR": str(root / "dir"),
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs)
@example(argv=["find", "--sentence", "(" * 3000 + "x" + ")" * 3000 + " = x"])
@example(argv=["find", "--sentence", "not " * 3000 + "x = x"])
@example(argv=["enumerate", "--what", "operators", "--k", "9" * 40])
@example(argv=["verify-suite", "--k", "-7"])
def test_exit_contract_on_any_argv(argv, argv_paths):
    """enumerate, find and verify-suite exit 0, 1 or 2 on any argv, with
    no traceback and an empty stdout on exit 2.  run_suite is replaced by
    a stub: its work is tested elsewhere, and any integer --k runs it."""
    from psiforge import verify

    def path(token):
        for key, value in argv_paths.items():
            token = token.replace(key, value)
        return token

    argv = [path(t) for t in argv]
    out, err = io.StringIO(), io.StringIO()
    # a stray token can become a relative output path: write it in the tmp dir
    cwd = os.getcwd()
    os.chdir(argv_paths["ROOT"])
    try:
        with mock.patch.object(verify, "run_suite", lambda k, seed: []):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
