"""Tests of the benchmark's own correctness gates: each must reject a
planted wrong answer.

    python3 bench/check_gates.py

The file name keeps these out of the package's pytest run; they test the
benchmark, not psiforge.
"""
from __future__ import annotations

import dataclasses
import itertools
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from psiforge.report import CheckReport  # noqa: E402


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


def with_result(report: CheckReport, axiom: str, **changes) -> CheckReport:
    rows = tuple(dataclasses.replace(r, **changes) if r.axiom == axiom else r for r in report.results)
    return CheckReport(report.structure_kind, rows)


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sweep = W.build_sweep(0)
        cls.search = W.build_search(0)

    def test_true_outputs_pass(self):
        for name in ("check_3bamo:near-MO2:k3", "check_eca:near-EC1:k3", "check_psi:near-PI1:k3"):
            op = op_named(self.sweep, name)
            self.assertIsNone(op.check(op.run(), O), name)

    def test_flipped_verdict_is_rejected(self):
        op = op_named(self.sweep, "check_3bamo:near-MO2:k3")
        flipped = with_result(op.run(), "MO2", passed=True, witness=None)
        self.assertIn("MO2 passed=True", op.check(flipped, O))
        op = op_named(self.sweep, "check_eca:largest:k3")
        flipped = with_result(op.run(), "EC4", passed=False, witness=(0, 0, 0))
        self.assertIsNotNone(op.check(flipped, O))

    def test_witness_that_is_no_violation_is_rejected(self):
        op = op_named(self.sweep, "check_3bamo:near-MO2:k3")
        planted = with_result(op.run(), "MO2", witness=(0, 0, 0, 0))
        self.assertIn("is not a violation", op.check(planted, O))
        op = op_named(self.sweep, "check_eca:near-EC1:k3")
        planted = with_result(op.run(), "EC1", witness=(7, 7, 7, 7, 7))
        self.assertIn("is not a violation", op.check(planted, O))

    def test_isomorphic_duplicate_in_a_census_is_rejected(self):
        op = op_named(self.search, "enumerate_ecas:k3:w1")
        census = op.run()
        self.assertIsNone(op.check(census, O))
        # an atom permutation that moves some member gives its isomorphic twin
        i, twin = next(
            (i, bits)
            for i, member in enumerate(census)
            for perm in itertools.permutations(range(3))
            if (bits := W.permuted_relation(3, member.bits, perm)) != member.bits
        )
        planted = sorted(census[:i] + [W.relation(3, twin)] + census[i + 1 :], key=lambda r: r.bits)
        self.assertIsNotNone(op.check(planted, O))
        op = op_named(self.search, "enumerate_psi_operators:k2")
        tables = op.run()
        swap = O.element_maps(2)[1]  # exchange the two atoms
        for i, member in enumerate(tables):
            A = O.table_array(2, member.table)
            twin = tuple(int(v) for v in swap[A[O.np.ix_(swap, swap, swap)]].ravel())
            if twin != member.table:
                break
        planted = sorted(tables[:i] + [W.operator(2, twin)] + tables[i + 1 :], key=lambda op: op.table)
        self.assertIn("not canonical", op.check(planted, O))

    def test_cli_exit_1_where_2_is_due_is_rejected(self):
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as workdir:
            ops = W.build_cli(0, BENCH.parent, Path(workdir), in_process=True)
            op = op_named(ops, "cli:usage-error")
            self.assertIsNone(op.check(op.run(), O))
        planted = W.CliResult(1, b"", b"psiforge: bad input\n", 0)
        self.assertEqual(op.check(planted, O), "exit 1, expected 2")

    def test_output_that_changes_between_rounds_fails(self):
        op = op_named(self.sweep, "check_psi:smallest:k2")
        good = op.run()
        other = with_result(good, "PI1", note="changed")
        rounds = run.Rounds([op])
        rounds.record([(0.001, good, None)])
        rounds.record([(0.001, other, None)])
        failures = run.judge(rounds, O)
        self.assertEqual([reason for _, reason in failures], ["output differs from an earlier round"])

    def test_repeated_cli_call_must_repeat_its_stdout(self):
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as workdir:
            ops = W.build_cli(0, BENCH.parent, Path(workdir), in_process=True)
            pair = [op_named(ops, "cli:check-psi-file"), op_named(ops, "cli:check-psi-file-again")]
            first, again = (op.run() for op in pair)
        rounds = run.Rounds(pair)
        rounds.record([(0.2, first, None), (0.2, again, None)])
        self.assertEqual(run.judge(rounds, O), [])
        spaced = dataclasses.replace(again, stdout=again.stdout.replace(b", ", b",  ", 1))
        rounds = run.Rounds(pair)
        rounds.record([(0.2, first, None), (0.2, spaced, None)])
        self.assertEqual([op.name for op, _ in run.judge(rounds, O)], ["cli:check-psi-file-again"])

    def test_known_faults_fail_every_time(self):
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as workdir:
            ops = W.build_cli(0, BENCH.parent, Path(workdir), in_process=True)
        faults = [op for op in ops if op.known_fault]
        self.assertEqual(len(faults), 2)
        for op in faults:
            self.assertIsNotNone(op.check(W.CliResult(1, b"", b"Traceback (most recent call last):\n", 0), O))
            self.assertIsNone(op.check(W.CliResult(2, b"", b"psiforge: bad input\n", 0), O))


if __name__ == "__main__":
    unittest.main()
