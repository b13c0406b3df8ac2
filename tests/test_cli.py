import json
import os
import subprocess
import sys

import pytest

from psiforge import (
    check_eca,
    dual_frame,
    example_3bamo,
    largest_eca,
    make_algebra,
    rel_to_op,
    smallest_diamond,
)
from psiforge.contact_relation import relation_from_json
from psiforge.ternary_operator import operator_from_json


def run_cli(*args, stdin=None, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "psiforge.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=full_env,
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
    r2 = run_cli("verify-suite", "--k", "2")
    assert r2.stdout == r.stdout


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
    a = run_cli(
        "enumerate", "--what", "operators", "--k", "2", "--mode", "sampled",
        env={"PSIFORGE_SEED": "7"},
    )
    b = run_cli(
        "enumerate", "--what", "operators", "--k", "2", "--mode", "sampled",
        env={"PSIFORGE_SEED": "7"},
    )
    assert a.stdout == b.stdout
    assert "sampled(seed=7)" in a.stdout


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
    """At five atoms PI1 is decided exactly, with no seed: the smallest
    diamond passes with the same bytes under any PSIFORGE_SEED, and a
    table failing MO1-MO3 is refused as a size-cap error."""
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
    assert_usage_error(r)
    assert "check --kind 3bamo" in r.stderr


def test_json_array_input_exits_2():
    assert_usage_error(run_cli("check", "--kind", "psi", "-", stdin="[1, 2]"))


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


def test_compact_frame_trailing_bit_exits_2():
    # a one-point frame has 1 x 8 bits; "AAE=" sets bit 8, one past the end
    trailing = json.dumps({"points": 1, "bits": "AAE="})
    r = run_cli("check", "--kind", "frame", "-", stdin=trailing)
    assert_usage_error(r)
    assert "out of range" in r.stderr
