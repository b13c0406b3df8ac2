"""Command-line entry point.

Verbs: check, convert, dualize, complex, enumerate, find, verify-suite,
topo.  Inputs and outputs are JSON (one object, or one object per line for
enumerate); '-' means stdin/stdout.  Exit status: 0 all checked properties
hold, 1 a checked property failed (the witness is in the printed report),
2 usage or input error.  `enumerate --mode sampled` keeps the tables,
among 200 seeded pseudo-inference samples, that satisfy the axioms; it
stops at 3 atoms like the sampler, and `find --mode sampled` searches the
same tables.  The environment variable PSIFORGE_SEED overrides the seed of
`enumerate --mode sampled`, `find --mode sampled` and `verify-suite`
(default 0xEC0).

Each verb's handler imports the modules it runs, so a call loads only those.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from importlib import import_module

from .errors import InternalCheckError, PsiforgeError


def _read_json(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise PsiforgeError("bad input: JSON nested too deeply") from None
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
    import tempfile

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


@contextmanager
def _sentences():
    """Parsing and compiling sentences, where the parser and the sweep
    compiler recurse once per nesting level."""
    try:
        yield
    except RecursionError:
        raise PsiforgeError("bad input: sentence nested too deeply") from None


def _load_axioms(name_or_file: str):
    from .enumeration import named_axioms
    from .terms import parse_axiom_file

    if name_or_file.startswith("@"):
        with open(name_or_file[1:], "r", encoding="utf-8") as fh:
            return parse_axiom_file(fh.read())
    return named_axioms(name_or_file)


# check --kind: the module holding the kind's reader and checker, and their names
_CHECKS = {
    "3bamo": ("ternary_operator", "operator_from_json", "check_3bamo"),
    "psi": ("ternary_operator", "operator_from_json", "check_psi"),
    "strict": ("ternary_operator", "operator_from_json", "check_strict"),
    "eca": ("contact_relation", "relation_from_json", "check_eca"),
    "extca": ("contact_relation", "relation_from_json", "check_extca"),
    "frame": ("duality_frames", "frame_from_json", "check_psi_frame"),
    "space": ("duality_frames", "frame_from_json", "check_psi_space"),
    "total": ("duality_frames", "frame_from_json", "is_total"),
}


def _cmd_check(args, out) -> int:
    data = _read_json(args.input)
    module, reader, checker = _CHECKS[args.kind]
    checks = import_module(f".{module}", __package__)
    result = getattr(checks, checker)(getattr(checks, reader)(data))
    if args.kind == "total":
        ok, witness = result
        payload = {"kind": "total", "passed": ok}
        if witness is not None:
            payload["witness"] = list(witness)
        _emit(payload, out)
        return 0 if ok else 1
    _emit(result.to_json(), out)
    return 0 if result.passed else 1


def _cmd_convert(args, out) -> int:
    from .contact_relation import op_to_rel, rel_to_op, relation_from_json
    from .ternary_operator import is_relational, operator_from_json

    data = _read_json(args.input)
    if args.to == "op":
        rel = relation_from_json(data)
        _emit(rel_to_op(rel).to_json(), out)
        return 0
    op = operator_from_json(data)
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
    from .duality_frames import dual_frame
    from .ternary_operator import operator_from_json

    op = operator_from_json(_read_json(args.input))
    _emit(dual_frame(op).to_json(compact=args.compact), out)
    return 0


def _cmd_complex(args, out) -> int:
    from .duality_frames import complex_algebra, frame_from_json

    frame = frame_from_json(_read_json(args.input))
    alg, op = complex_algebra(frame)
    _emit(op.to_json(), out)
    return 0


def _cmd_enumerate(args, out) -> int:
    from .boolean_core import make_algebra
    from .enumeration import enumerate_ecas, enumerate_operators

    alg = make_algebra(args.k)
    if args.what == "ecas":
        for rel in enumerate_ecas(alg):
            _emit(rel.to_json(compact=args.compact), out)
        return 0
    with _sentences():
        axioms = _load_axioms(args.axioms)
        enum = enumerate_operators(alg, axioms, mode=args.mode, seed=args.seed)
    for op in enum.operators:
        payload = op.to_json()
        payload["label"] = enum.label
        _emit(payload, out)
    return 0


def _cmd_find(args, out) -> int:
    from .boolean_core import make_algebra
    from .enumeration import find_counterexample
    from .terms import parse

    with _sentences():
        sentence = parse(args.sentence)
        alg = make_algebra(args.k)
        axioms = _load_axioms(args.axioms)
        result = find_counterexample(sentence, alg, axioms, mode=args.mode, seed=args.seed)
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
    from .verify import run_suite, scoreboard

    items = run_suite(k=args.k, seed=args.seed)
    if args.timings:
        for item in items:
            print(f"{item.seconds:.4f} s  {item.lemma}", file=sys.stderr)
    out.write(scoreboard(items) + "\n")
    return 0 if all(i.passed for i in items) else 1


def _cmd_topo(args, out) -> int:
    from .topo_models import eca_from_topology, topology_from_json

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
    p.add_argument("--kind", required=True, choices=list(_CHECKS))
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
        "--k", type=int, default=2, choices=(1, 2, 3),
        help="1 and 2 run the same items; 3 adds the three-atom pools",
    )
    p.add_argument("--timings", action="store_true", help="print each item's seconds to stderr")
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
    from .ternary_operator import DEFAULT_SEED

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
