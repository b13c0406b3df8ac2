"""Command-line entry point.

Verbs: check, convert, dualize, complex, enumerate, find, verify-suite,
topo.  Inputs and outputs are JSON (one object, or one object per line for
enumerate); '-' means stdin/stdout.  Exit status: 0 all checked properties
hold, 1 a checked property failed (the witness is in the printed report),
2 usage or input error.  The environment variable PSIFORGE_SEED overrides
the seed of `enumerate --mode sampled` and `verify-suite` (default 0xEC0).
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import contextmanager

from .boolean_core import make_algebra
from .contact_relation import (
    check_eca,
    check_extca,
    op_to_rel,
    rel_to_op,
    relation_from_json,
)
from .duality_frames import (
    check_psi_frame,
    check_psi_space,
    complex_algebra,
    dual_frame,
    frame_from_json,
    is_total,
)
from .enumeration import (
    enumerate_ecas,
    enumerate_operators,
    find_counterexample,
    named_axioms,
)
from .errors import InternalCheckError, PsiforgeError
from .terms import parse, parse_axiom_file
from .ternary_operator import (
    DEFAULT_SEED,
    check_3bamo,
    check_psi,
    check_strict,
    operator_from_json,
)
from .topo_models import eca_from_topology, topology_from_json
from .verify import run_suite, scoreboard


def _read_json(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise PsiforgeError(f"bad input: expected a JSON object, got {type(data).__name__}")
    return data


@contextmanager
def _output(path: str):
    """The output stream.  A regular or new file is written beside its
    target and moved into place only when the run completes, so a failed
    run leaves the old file untouched; a device or pipe is written in place."""
    if path == "-":
        yield sys.stdout
        return
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    target = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives a new file
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_axioms(name_or_file: str):
    if name_or_file.startswith("@"):
        with open(name_or_file[1:], "r", encoding="utf-8") as fh:
            return parse_axiom_file(fh.read())
    return named_axioms(name_or_file)


def _cmd_check(args, out) -> int:
    kind = args.kind
    data = _read_json(args.input)
    if kind in ("3bamo", "psi", "strict"):
        op = operator_from_json(data)
        if kind == "3bamo":
            report = check_3bamo(op)
        elif kind == "psi":
            report = check_psi(op)
        else:
            report = check_strict(op)
    elif kind in ("eca", "extca"):
        rel = relation_from_json(data)
        report = check_eca(rel) if kind == "eca" else check_extca(rel)
    elif kind in ("frame", "space"):
        frame = frame_from_json(data)
        report = check_psi_frame(frame) if kind == "frame" else check_psi_space(frame)
    elif kind == "total":
        frame = frame_from_json(data)
        ok, witness = is_total(frame)
        payload = {"kind": "total", "passed": ok}
        if witness is not None:
            payload["witness"] = list(witness)
        _emit(payload, out)
        return 0 if ok else 1
    else:
        raise PsiforgeError(f"unknown check kind {kind!r}")
    _emit(report.to_json(), out)
    return 0 if report.passed else 1


def _cmd_convert(args, out) -> int:
    data = _read_json(args.input)
    if args.to == "op":
        rel = relation_from_json(data)
        _emit(rel_to_op(rel).to_json(), out)
        return 0
    op = operator_from_json(data)
    from .ternary_operator import is_relational

    rel = op_to_rel(op)
    payload = rel.to_json(compact=args.compact)
    ok, witness = is_relational(op)
    if not ok:
        payload["warning"] = (
            f"operator is not relational (entry at {list(witness)} is neither 0 nor top); "
            "the translation is not invertible"
        )
    _emit(payload, out)
    return 0


def _cmd_dualize(args, out) -> int:
    op = operator_from_json(_read_json(args.input))
    _emit(dual_frame(op).to_json(compact=args.compact), out)
    return 0


def _cmd_complex(args, out) -> int:
    frame = frame_from_json(_read_json(args.input))
    alg, op = complex_algebra(frame)
    _emit(op.to_json(), out)
    return 0


def _cmd_enumerate(args, out) -> int:
    alg = make_algebra(args.k)
    if args.what == "ecas":
        for rel in enumerate_ecas(alg):
            _emit(rel.to_json(compact=args.compact), out)
        return 0
    axioms = _load_axioms(args.axioms)
    enum = enumerate_operators(alg, axioms, mode=args.mode, seed=args.seed)
    for op in enum.operators:
        payload = op.to_json()
        payload["label"] = enum.label
        _emit(payload, out)
    return 0


def _cmd_find(args, out) -> int:
    sentence = parse(args.sentence)
    alg = make_algebra(args.k)
    axioms = _load_axioms(args.axioms)
    result = find_counterexample(sentence, alg, axioms, mode=args.mode)
    if result.found:
        payload = {
            "found": True,
            "space": result.space_label,
            "searched": result.searched,
            "operator": result.operator.to_json(),
            "assignment": result.assignment,
        }
        _emit(payload, out)
        return 1
    _emit(
        {
            "found": False,
            "space": result.space_label,
            "searched": result.searched,
            "certificate": result.exhausted_certificate,
        },
        out,
    )
    return 0


def _cmd_verify_suite(args, out) -> int:
    items = run_suite(k=args.k, seed=args.seed)
    out.write(scoreboard(items) + "\n")
    return 0 if all(i.passed for i in items) else 1


def _cmd_topo(args, out) -> int:
    top = topology_from_json(_read_json(args.input))
    rca, rel = eca_from_topology(top)
    payload = {
        "algebra": rca.alg.to_json(),
        "regular_closed_sets": [sorted(s) for s in rca.sets()],
        "relation": rel.to_json(compact=args.compact),
    }
    _emit(payload, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiforge",
        description="check, translate, dualize and enumerate ternary contact structures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="input JSON file, or - for stdin")
        p.add_argument("-o", "--output", default="-", help="output file, or - for stdout")
        p.add_argument("--compact", action="store_true", help="emit bitset JSON forms")

    p = sub.add_parser("check", help="run an axiom checker")
    p.add_argument(
        "--kind",
        required=True,
        choices=["3bamo", "psi", "strict", "eca", "extca", "frame", "space", "total"],
    )
    add_common(p)

    p = sub.add_parser("convert", help="translate relation <-> operator")
    p.add_argument("--to", required=True, choices=["op", "rel"])
    add_common(p)

    p = sub.add_parser("dualize", help="emit the dual frame of an operator")
    add_common(p)

    p = sub.add_parser("complex", help="emit the complex algebra of a frame")
    add_common(p)

    p = sub.add_parser("enumerate", help="stream canonical models")
    p.add_argument("--what", required=True, choices=["ecas", "operators"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--axioms", default="psi", help="named set (3bamo|psi|strict) or @file")
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "relational", "sampled"])
    add_common(p, needs_input=False)

    p = sub.add_parser("find", help="search for a counterexample to a sentence")
    p.add_argument("--sentence", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--axioms", default="psi")
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "relational", "sampled"])
    add_common(p, needs_input=False)

    p = sub.add_parser("verify-suite", help="run the full lemma scoreboard")
    p.add_argument(
        "--k", type=int, default=2,
        help="1 and 2 run the same items; 3 adds the three-atom pools",
    )
    add_common(p, needs_input=False)

    p = sub.add_parser("topo", help="build the topological entailment model")
    add_common(p)

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "convert": _cmd_convert,
    "dualize": _cmd_dualize,
    "complex": _cmd_complex,
    "enumerate": _cmd_enumerate,
    "find": _cmd_find,
    "verify-suite": _cmd_verify_suite,
    "topo": _cmd_topo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    seed = os.environ.get("PSIFORGE_SEED", str(DEFAULT_SEED))
    try:
        args.seed = int(seed, 0)
    except ValueError:
        print(f"psiforge: PSIFORGE_SEED must be an integer, got {seed!r}", file=sys.stderr)
        return 2
    try:
        with _output(args.output) as out:
            return _HANDLERS[args.verb](args, out)
    except InternalCheckError as exc:
        # a property that was asserted on an output failed: report as a
        # failed check, not a usage error
        print(f"psiforge: {exc}", file=sys.stderr)
        return 1
    except PsiforgeError as exc:
        print(f"psiforge: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"psiforge: bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
