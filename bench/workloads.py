"""The four workloads: inputs built from a seed, and the operations a round
runs on them, each with the check its output must pass.

Inputs are built in pure Python (numpy is kept out of set-up); checks run
after the timed phase and receive the oracle module.  A check returns None
when the output is right, or a one-line reason.
"""
from __future__ import annotations

import base64
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from psiforge import boolean_core as B
from psiforge import cli as CLI
from psiforge import contact_relation as C
from psiforge import duality_frames as D
from psiforge import enumeration as E
from psiforge import filter_congruence as F
from psiforge import terms as TM
from psiforge import ternary_operator as T
from psiforge import verify as V

import pin

# longest an operation may take: a CLI child is killed then, and an
# in-process call that returned later is counted as failed
LIMIT_S = 60.0

# letters usable as term variables (d and e stay free for the cut laws)
VAR_POOL = "abcfghkmnpqrstuvwxyz"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], "str | None"]
    # why the operation fails today, for the faults the benchmark keeps
    known_fault: str = ""
    # an operation whose output this one must repeat byte for byte
    same_as: str = ""
    # the part of the output that must repeat from round to round
    key: Callable[[Any], Any] = lambda out: (out.code, out.stdout) if isinstance(out, CliResult) else out


# ---------------------------------------------------------------------------
# tables, relations and frames as plain tuples and ints


def popcount(x: int) -> int:
    return bin(x).count("1")


def idx(k: int, a: int, b: int, c: int) -> int:
    s = 1 << k
    return (a * s + b) * s + c


def smallest(k: int) -> tuple:
    s = 1 << k
    return tuple(a & b & c for a in range(s) for b in range(s) for c in range(s))


def largest_op(k: int) -> tuple:
    """rel_to_op(largest_eca): top where a, b and c meet, else 0."""
    s = 1 << k
    return tuple(s - 1 if a & b & c else 0 for a in range(s) for b in range(s) for c in range(s))


def relation_op(k: int, bits: int) -> tuple:
    """rel_to_op by its formula: dia(a,b,c) = 0 if (a,b) |- not c, else top."""
    s = 1 << k
    top = s - 1
    return tuple(
        0 if bits >> idx(k, a, b, top ^ c) & 1 else top for a in range(s) for b in range(s) for c in range(s)
    )


def largest_bits(k: int) -> int:
    s = 1 << k
    top = s - 1
    bits = 0
    for a in range(s):
        for b in range(s):
            for c in range(s):
                if a & b & (top ^ c) == 0:
                    bits |= 1 << idx(k, a, b, c)
    return bits


def monotone_table(k: int, rng: random.Random) -> tuple:
    """Join over atom pairs u <= a, v <= b of random monotone maps m_uv(c)."""
    s = 1 << k
    by_size = sorted(range(1, s), key=lambda c: (popcount(c), c))
    maps = {}
    for u in range(k):
        for v in range(k):
            m = [0] * s
            for c in by_size:
                below = 0
                for i in range(k):
                    if c >> i & 1:
                        below |= m[c & ~(1 << i)]
                m[c] = below | (rng.randrange(s) if rng.random() < 0.5 else 0)
            maps[u, v] = m
    table = []
    for a in range(s):
        for b in range(s):
            row = [0] * s
            for u in range(k):
                if a >> u & 1:
                    for v in range(k):
                        if b >> v & 1:
                            row = [x | y for x, y in zip(row, maps[u, v])]
            table.extend(row)
    return tuple(table)


def changed(table: tuple, k: int, a: int, b: int, c: int, v: int) -> tuple:
    out = list(table)
    out[idx(k, a, b, c)] = v
    return tuple(out)


def pick(rng, pool):
    return pool[rng.randrange(len(pool))]


# Near-misses: one entry of a passing table changed so that the named law
# provably fails.  Each comment gives the violation that the change plants.


def near_miss(law: str, table: tuple, k: int, rng: random.Random) -> tuple:
    s = 1 << k
    top = s - 1
    nz = list(range(1, s))
    mid = list(range(1, top))
    if law == "MO1":  # dia(0, b, c) != 0
        return changed(table, k, 0, pick(rng, nz), pick(rng, nz), pick(rng, nz))
    if law in ("MO2", "MO3"):  # the entry is no longer the join over a split
        wide = [x for x in range(s) if popcount(x) >= 2]
        a, b = pick(rng, wide), pick(rng, nz)
        if law == "MO3":
            a, b = b, a
        c = pick(rng, nz)
        old = table[idx(k, a, b, c)]
        return changed(table, k, a, b, c, pick(rng, [v for v in range(s) if v != old]))
    if law == "MO4":  # dia(a,b,w) != 0 for some w < c, yet dia(a,b,c) = 0
        while True:
            a, b = pick(rng, nz), pick(rng, nz)
            c = pick(rng, [x for x in range(s) if popcount(x) >= 2])
            if any(table[idx(k, a, b, w)] for w in range(1, c) if w & c == w):
                return changed(table, k, a, b, c, 0)
    if law == "PI1":  # witness (a, b, f, top, top) on the smallest diamond
        while True:
            a, b, f = pick(rng, nz), pick(rng, nz), pick(rng, mid)
            if (a, b) != (top, top):
                w = 1 << pick(rng, [i for i in range(k) if not f >> i & 1])
                return changed(table, k, a, b, f, (a & b & f) | w)
    if law == "PI2":  # dia(a, b, not a) != 0
        a = pick(rng, mid)
        return changed(table, k, a, pick(rng, nz), top ^ a, pick(rng, nz))
    if law == "PI3":  # a and f not below dia(a, a, f)
        while True:
            a, f = pick(rng, nz), pick(rng, nz)
            if a & f:
                return changed(table, k, a, a, f, 0)
    if law == "PI4":  # dia(a, b, f) = top above dia(b, a, f)
        while True:
            a, b, f = pick(rng, nz), pick(rng, nz), pick(rng, nz)
            if a != b and table[idx(k, b, a, f)] != top:
                return changed(table, k, a, b, f, top)
    m = pick(rng, mid)
    if law == "R1":  # witness (m, m, m, 0) on the smallest diamond
        return changed(table, k, top, top, m, 0)
    if law == "R2":  # witness (m, m, 0, m)
        return changed(table, k, top, m, top, 0)
    if law == "S":  # mu(not m) = 0 below dia(not m, not m, not m) = not m
        return changed(table, k, top, top, m, top)
    if law == "relational":
        return changed(table, k, pick(rng, nz), pick(rng, nz), pick(rng, nz), pick(rng, mid))
    raise KeyError(law)


def near_miss_relation(law: str, bits: int, k: int, rng: random.Random) -> int:
    """One triple of largest_eca added or removed so that the law fails."""
    s = 1 << k
    top = s - 1
    while True:
        a, b, f = rng.randrange(s), rng.randrange(s), rng.randrange(s)
        if law == "EC0" and a and f & a == a:  # (0,b) |- f yet (a,b) |- f or a dropped
            return bits & ~(1 << idx(k, a, b, f))
        if law == "EC1" and b != top and (a & b) & f == a & b and f not in (a & b, top):
            # (a,b) |- a&b, (a,b) |- 1 and (a&b, 1) |- f, yet (a,b) |- f dropped
            return bits & ~(1 << idx(k, a, b, f))
        if law == "EC2" and f & a == a:  # (a,b) |- a or f dropped
            return bits & ~(1 << idx(k, a, b, f))
        if law == "EC3" and a and a & f != a:  # (a,a) |- f added with a not below f
            return bits | 1 << idx(k, a, a, f)
        if law == "EC4" and a != b and a & b & (top ^ f):  # (a,b) |- f added alone
            return bits | 1 << idx(k, a, b, f)
        if law not in ("EC0", "EC1", "EC2", "EC3", "EC4"):
            raise KeyError(law)


def mask_map(k: int, perm: tuple) -> list:
    """The map on element masks induced by an atom permutation."""
    return [sum(1 << perm[i] for i in range(k) if x >> i & 1) for x in range(1 << k)]


def permuted_relation(k: int, bits: int, perm: tuple) -> int:
    s = 1 << k
    p = mask_map(k, perm)
    out = 0
    for a in range(s):
        for b in range(s):
            for c in range(s):
                if bits >> idx(k, a, b, c) & 1:
                    out |= 1 << idx(k, p[a], p[b], p[c])
    return out


def seeded_perm(k: int, rng: random.Random) -> tuple:
    perm = list(range(k))
    rng.shuffle(perm)
    return tuple(perm)


def pinned_eca(k: int, rng: random.Random, pinned: dict) -> int:
    """The largest member of the pinned census under a seeded atom
    permutation: an EC relation that costs the same to sweep on every seed."""
    return permuted_relation(k, int(pinned["ecas"][str(k)][-1], 16), seeded_perm(k, rng))


def permuted_table(k: int, table: tuple, perm: tuple) -> tuple:
    """The isomorphic copy of a table under an atom permutation."""
    s = 1 << k
    p = mask_map(k, perm)
    out = [0] * (s ** 3)
    for a in range(s):
        for b in range(s):
            for c in range(s):
                out[idx(k, p[a], p[b], p[c])] = p[table[idx(k, a, b, c)]]
    return tuple(out)


def dual_entries(k: int, table: tuple) -> frozenset:
    s = 1 << k
    return frozenset(
        (i, y1, y2, y3)
        for y1 in range(1, s)
        for y2 in range(1, s)
        for y3 in range(1, s)
        for i in range(k)
        if table[idx(k, y1, y2, y3)] >> i & 1
    )


def operator(k: int, table: tuple):
    return T.TernaryOperator(B.make_algebra(k), table)


def relation(k: int, bits: int):
    return C.TernaryRelation(B.make_algebra(k), bits)


def frame(k: int, table: tuple):
    return D.PsiFrame(k, dual_entries(k, table))


# ---------------------------------------------------------------------------
# checks shared by the workloads


def results_of(report) -> list:
    """(axiom, passed, witness, note) rows of a CheckReport or its JSON."""
    if isinstance(report, dict):
        return [
            (r["axiom"], r["passed"], tuple(r["witness"]) if "witness" in r else None, r.get("note", ""))
            for r in report["results"]
        ]
    return [(r.axiom, r.passed, r.witness, r.note) for r in report.results]


def compare(report, expected: dict, violates=None, must_fail: str = "", must_pass: bool = False):
    """Verdict and first witness of every law against the oracle.

    A law whose note says its sweep is not exhaustive is held to its
    verdict and to a witness that really violates the law.
    """
    rows = results_of(report)
    if [r[0] for r in rows] != list(expected):
        return f"laws {[r[0] for r in rows]} != {list(expected)}"
    for law, passed, witness, note in rows:
        want = expected[law]
        if not passed and violates is not None and not violates(law, witness):
            return f"{law} witness {witness} is not a violation"
        if passed != (want is None):
            return f"{law} passed={passed}, oracle finds {want}"
        if "not exhaustive" not in note and witness != want:
            return f"{law} witness {witness} != first violation {want}"
    if must_fail and expected[must_fail] is None:
        return f"built to fail {must_fail}, oracle finds no violation"
    if must_pass and any(w is not None for w in expected.values()):
        return "built to pass, oracle finds a violation"
    return None


def op_laws(O, k, table, which):
    A = O.table_array(k, table)
    laws = {"3bamo": O.mo_laws, "psi": O.pi_laws, "strict": O.strict_laws}[which](A)
    return laws, lambda law, w: bool(O.op_violates(law, A, w))


def rel_laws(O, k, bits, which):
    R = O.relation_from_bits(k, bits)
    laws = O.ec_laws(R) if which == "eca" else O.extca_laws(R)
    return laws, lambda law, w: bool(O.rel_violates(law, R, w))


def check_op_report(k, table, which, must_fail="", must_pass=False):
    def check(report, O):
        laws, violates = op_laws(O, k, table, which)
        return compare(report, laws, violates, must_fail, must_pass)

    return check


def check_rel_report(k, bits, which, must_fail="", must_pass=False):
    def check(report, O):
        laws, violates = rel_laws(O, k, bits, which)
        return compare(report, laws, violates, must_fail, must_pass)

    return check


def check_space(k, table):
    """PIF_i holds on the dual frame exactly when PI_i holds on the table,
    and each PIF witness violates its condition."""

    def check(report, O):
        pi = O.pi_laws(O.table_array(k, table))
        rows = results_of(report)
        if [r[0] for r in rows] != ["PIF1", "PIF2", "PIF3", "PIF4"]:
            return f"laws {[r[0] for r in rows]}"
        entries = dual_entries(k, table)
        for (law, passed, witness, _), pi_w in zip(rows, pi.values()):
            if passed != (pi_w is None):
                return f"{law} passed={passed} but PI oracle finds {pi_w}"
            if not passed and not O.frame_violates(law, k, entries, witness):
                return f"{law} witness {witness} is not a violation"
        return None

    return check


def first_falsifying(O, k, table, variables, names, pred):
    w = O.first_falsifying(O.table_array(k, table), len(variables), pred)
    return None if w is None else {names[v]: x for v, x in zip(variables, w)}


# Sentences for counterexample search, as text templates with their
# variables in order of first appearance and the same law as a predicate.
THEOREMS = (
    ("dia({a}, {b}, {f}) <= dia({b}, {a}, {f})", "abf", lambda A, t, a, b, f: (A[a, b, f] & ~A[b, a, f]) == 0),
    ("dia({a}, {b}, {f}) = dia({b}, {a}, {f})", "abf", lambda A, t, a, b, f: A[a, b, f] == A[b, a, f]),
    ("dia({a}, {b}, not {a}) = 0", "ab", lambda A, t, a, b: A[a, b, t ^ a] == 0),
    ("{a} and {f} <= dia({a}, {a}, {f})", "af", lambda A, t, a, f: ((a & f) & ~A[a, a, f]) == 0),
    ("dia({a}, {b}, 0) = 0", "ab", lambda A, t, a, b: A[a, b, 0] == 0),
    ("dia({a} and {x}, {b}, {c}) <= dia({a}, {b}, {c})", "axbc", lambda A, t, a, x, b, c: (A[a & x, b, c] & ~A[a, b, c]) == 0),
)
NON_THEOREMS = (
    ("dia({a}, {b}, {c}) = {a}", "abc", lambda A, t, a, b, c: A[a, b, c] == a),
    ("dia({a}, {b}, {c}) = dia({a}, {b}, 1)", "abc", lambda A, t, a, b, c: A[a, b, c] == A[a, b, t]),
    ("dia({a}, {b}, {c}) <= 0", "abc", lambda A, t, a, b, c: A[a, b, c] == 0),
    ("mu({a}) = 0", "a", lambda A, t, a: (t ^ A[t, t, t ^ a]) & (t ^ A[t, t ^ a, t]) == 0),
    ("not dia({a}, {b}, {c}) = 1", "abc", lambda A, t, a, b, c: (t ^ A[a, b, c]) == t),
    ("dia({a}, {b}, {c}) = {a} and {b}", "abc", lambda A, t, a, b, c: A[a, b, c] == (a & b)),
)
CUT_SENTENCES = (
    (
        "dia({a}, {b}, {f}) <= dia({a}, {b}, not {d}) or dia({a}, {b}, not {e}) or dia({d}, {e}, {f})",
        "abfde",
        lambda A, t, a, b, f, d, e: (A[a, b, f] & ~(A[a, b, t ^ d] | A[a, b, t ^ e] | A[d, e, f])) == 0,
    ),
    (
        "dia({a}, {b}, not {d}) = 0 & dia({a}, {b}, not {e}) = 0 & dia({d}, {e}, not {f}) = 0 => dia({a}, {b}, not {f}) = 0",
        "abdef",
        lambda A, t, a, b, d, e, f: ~((A[a, b, t ^ d] == 0) & (A[a, b, t ^ e] == 0) & (A[d, e, t ^ f] == 0))
        | (A[a, b, t ^ f] == 0),
    ),
)
PSI_AXIOMS = (
    "dia(0, {b}, {c}) = 0",
    "dia({a}, 0, {c}) = 0",
    "dia({a}, {b}, 0) = 0",
    "dia({a} or {x}, {b}, {c}) = dia({a}, {b}, {c}) or dia({x}, {b}, {c})",
    "dia({a}, {b} or {x}, {c}) = dia({a}, {b}, {c}) or dia({a}, {x}, {c})",
    "dia({a}, {b}, {c}) or dia({a}, {b}, {x}) <= dia({a}, {b}, {c} or {x})",
    "dia({a}, {b}, {f}) <= dia({a}, {b}, not {d}) or dia({a}, {b}, not {e}) or dia({d}, {e}, {f})",
    "dia({a}, {b}, not {a}) = 0",
    "{a} and {f} <= dia({a}, {a}, {f})",
    "dia({a}, {b}, {f}) <= dia({b}, {a}, {f})",
)


def seeded_names(rng: random.Random, letters: str) -> dict:
    return dict(zip(letters, rng.sample(VAR_POOL, len(letters))))


def psi_axiom_text(rng: random.Random) -> str:
    """The psi axioms (3bamo + PI1-PI4) with seeded variable names."""
    names = seeded_names(rng, "abcxfde")
    return "# psi axioms, renamed\n" + "\n".join(t.format(**names) for t in PSI_AXIOMS) + "\n"


def lazy_spaces(pinned):
    """The Spaces, made on first use (checks run after the timed phase)."""
    made = []

    def get(O):
        if not made:
            made.append(Spaces(O, pinned))
        return made[0]

    return get


class Spaces:
    """Counterexample spaces for psi at k=1 and k=2, made by the oracles:
    the brute-forced k=1 census and the relational tables of the pinned
    k=2 ECA census, each in canonical order."""

    def __init__(self, O, pinned):
        self.O = O
        self.k1 = O.k1_operator_census("psi")
        rel = set()
        for h in pinned["ecas"]["2"]:
            A = O.rel_to_op(O.relation_from_bits(2, int(h, 16)))
            if all(w is None for w in {**O.mo_laws(A), **O.pi_laws(A)}.values()):
                rel.add(O.canonical_table(A))
        self.k2 = sorted(rel)

    def of(self, k):
        return (self.k1, "exhaustive") if k == 1 else (self.k2, "relational-exhaustive")


def expected_search(O, spaces, k, variables, names, pred):
    """(found, table, assignment, searched, label) of a first-counterexample
    search over the space, in canonical order."""
    tables, label = spaces.of(k)
    for table in tables:
        assignment = first_falsifying(O, k, table, variables, names, pred)
        if assignment is not None:
            return True, table, assignment, len(tables), label
    return False, None, None, len(tables), label


# ---------------------------------------------------------------------------
# sweep


def build_sweep(seed: int) -> list[Op]:
    rng = random.Random(f"sweep:{seed}")
    # Sweep costs must not move with the seed: the seed picks atom
    # permutations of fixed tables (a full sweep costs the same on every
    # isomorphic copy), and the near-misses, whose early exit depends on
    # where the change sits, are the same on every seed.
    fixed = random.Random("sweep")
    pinned = pin.load()
    sd = {k: smallest(k) for k in (2, 3, 4)}
    lo = {k: largest_op(k) for k in (2, 3, 4)}
    le = {k: largest_bits(k) for k in (2, 3, 4, 5)}
    mono_base = {k: monotone_table(k, fixed) for k in (2, 3, 4, 5)}
    mono = {k: permuted_table(k, t, seeded_perm(k, rng)) for k, t in mono_base.items()}
    eca2, eca3 = pinned_eca(2, rng, pinned), pinned_eca(3, rng, pinned)
    eca3_op = relation_op(3, eca3)
    ops: list[Op] = []

    def kernel(fn, which, k, table, label, **built):
        op = operator(k, table)
        ops.append(Op(f"{fn}:{label}:k{k}", lambda: getattr(T, fn)(op), check_op_report(k, table, which, **built)))

    # monotone-operator laws: passing tables sweep everything
    for k in (2, 3, 4, 5):
        kernel("check_3bamo", "3bamo", k, mono[k], "monotone", must_pass=True)
    kernel("check_3bamo", "3bamo", 3, sd[3], "smallest", must_pass=True)
    # near-misses stay at 2 and 3 atoms: where a sweep stops depends on the
    # seed, and at 4 atoms that would move the round time with it
    for law, k in (("MO1", 2), ("MO2", 3), ("MO4", 3), ("MO3", 3)):
        kernel("check_3bamo", "3bamo", k, near_miss(law, mono_base[k], k, fixed), f"near-{law}", must_fail=law)
    # pseudo-inference laws
    kernel("check_psi", "psi", 2, sd[2], "smallest", must_pass=True)
    kernel("check_psi", "psi", 3, lo[3], "largest-eca", must_pass=True)
    kernel("check_psi", "psi", 3, eca3_op, "pinned-eca", must_pass=True)
    kernel("check_psi", "psi", 4, sd[4], "smallest", must_pass=True)
    for law, k in (("PI1", 2), ("PI2", 2), ("PI1", 3), ("PI3", 3), ("PI4", 3)):
        kernel("check_psi", "psi", k, near_miss(law, sd[k], k, fixed), f"near-{law}", must_fail=law)
    # strictness laws
    kernel("check_strict", "strict", 2, lo[2], "largest-eca", must_pass=True)
    kernel("check_strict", "strict", 3, sd[3], "smallest", must_pass=True)
    kernel("check_strict", "strict", 4, lo[4], "largest-eca", must_pass=True)
    for law, k in (("S", 2), ("R1", 2), ("R1", 3), ("R2", 3), ("S", 3)):
        kernel("check_strict", "strict", k, near_miss(law, sd[k], k, fixed), f"near-{law}", must_fail=law)

    def relational_check(k, table, built_relational):
        def check(out, O):
            want = O.relational(O.table_array(k, table))
            if (want is None) != built_relational:
                return "relational verdict differs from construction"
            return None if out == (want is None, want) else f"is_relational {out} != {(want is None, want)}"

        return check

    for k, table, rel in ((3, lo[3], True), (4, lo[4], True), (3, near_miss("relational", lo[3], 3, fixed), False)):
        op = operator(k, table)
        ops.append(Op(f"is_relational:{'largest-eca' if rel else 'near'}:k{k}", lambda op=op: T.is_relational(op), relational_check(k, table, rel)))

    def table_check(k, table, oracle_fn):
        def check(report, O):
            return compare(report, oracle_fn(O)(O.table_array(k, table)))

        return check

    for label, table in (("smallest", sd[3]), ("near-PI2", near_miss("PI2", sd[3], 3, fixed))):
        op = operator(3, table)
        ops.append(Op(f"check_pi2_equivalents:{label}:k3", lambda op=op: T.check_pi2_equivalents(op), table_check(3, table, lambda O: O.pi2_equivalents)))
    for label, table in (("largest-eca", lo[3]), ("smallest", sd[3])):
        op = operator(3, table)
        ops.append(Op(f"discriminator_check:{label}:k3", lambda op=op: T.discriminator_check(op), table_check(3, table, lambda O: O.discriminator)))

    # entailment relations
    def rel_kernel(fn, which, k, bits, label, **built):
        rel = relation(k, bits)
        ops.append(Op(f"{fn}:{label}:k{k}", lambda: getattr(C, fn)(rel), check_rel_report(k, bits, which, **built)))

    for k in (2, 3, 4, 5):
        rel_kernel("check_eca", "eca", k, le[k], "largest", must_pass=True)
    rel_kernel("check_eca", "eca", 3, eca3, "pinned", must_pass=True)
    for law, k in (("EC0", 3), ("EC1", 2), ("EC1", 3), ("EC2", 3), ("EC3", 3), ("EC4", 3)):
        rel_kernel("check_eca", "eca", k, near_miss_relation(law, le[k], k, fixed), f"near-{law}", must_fail=law)
    rel_kernel("check_extca", "extca", 3, le[3], "largest", must_pass=True)
    rel_kernel("check_extca", "extca", 2, eca2, "pinned", must_pass=True)
    rel_kernel("check_extca", "extca", 3, near_miss_relation("EC1", le[3], 3, fixed), "near-EC1", must_fail="ExtCA1")

    # constructions
    def r2o_check(k, bits):
        def check(out, O):
            want = tuple(int(v) for v in O.rel_to_op(O.relation_from_bits(k, bits)).ravel())
            return None if out.table == want else "rel_to_op table differs from the formula"

        return check

    for k, bits, label in ((3, le[3], "largest"), (5, le[5], "largest"), (3, eca3, "pinned")):
        rel = relation(k, bits)
        ops.append(Op(f"rel_to_op:{label}:k{k}", lambda rel=rel: C.rel_to_op(rel), r2o_check(k, bits)))

    def o2r_check(k, table):
        def check(out, O):
            want = O.relation_bits(O.op_to_rel(O.table_array(k, table)))
            return None if out.bits == want else "op_to_rel bits differ from the formula"

        return check

    for k, table, label in ((4, lo[4], "largest-eca"), (3, mono[3], "monotone")):
        op = operator(k, table)
        ops.append(Op(f"op_to_rel:{label}:k{k}", lambda op=op: C.op_to_rel(op), o2r_check(k, table)))

    def dual_check(k, table):
        def check(out, O):
            want = O.dual_frame_entries(O.table_array(k, table))
            return None if (out.point_count, out.entries) == (k, want) else "dual frame differs from the formula"

        return check

    for k, table, label in ((3, mono[3], "monotone"), (3, sd[3], "smallest"), (4, mono[4], "monotone")):
        op = operator(k, table)
        ops.append(Op(f"dual_frame:{label}:k{k}", lambda op=op: D.dual_frame(op), dual_check(k, table)))

    def descriptive(report, O):
        rows = results_of(report)
        if [r[0] for r in rows] != ["DF1", "DF2", "DF3"] or not all(r[1] for r in rows):
            return f"dual frame of a monotone table not descriptive: {rows}"
        return None

    for k, table, label in ((3, mono[3], "monotone"), (2, sd[2], "smallest")):
        fr = frame(k, table)
        ops.append(Op(f"check_psi_frame:{label}:k{k}", lambda fr=fr: D.check_psi_frame(fr), descriptive))
    for k, table, label in ((3, sd[3], "smallest"), (2, mono[2], "monotone")):
        fr = frame(k, table)
        ops.append(Op(f"check_psi_space:{label}:k{k}", lambda fr=fr: D.check_psi_space(fr), check_space(k, table)))

    def double_dual(k, table):
        def check(out, O):
            alg, op = out
            return None if (alg.atom_count, op.table) == (k, table) else "complex_algebra(dual_frame(op)) != op"

        return check

    for k, table, label in ((3, mono[3], "monotone"), (2, lo[2], "largest-eca")):
        fr = frame(k, table)
        ops.append(Op(f"complex_algebra:{label}:k{k}", lambda fr=fr: D.complex_algebra(fr), double_dual(k, table)))
    return ops


# ---------------------------------------------------------------------------
# search


def census_check(k, pinned_bits):
    """Pinned census in canonical order; each member an EC relation, its own
    canonical form and distinct from the rest; k=1 equals brute force."""

    def check(out, O):
        bits = [r.bits for r in out]
        if bits != pinned_bits:
            return f"census k={k}: {len(bits)} classes differ from the {len(pinned_bits)} pinned"
        if bits != sorted(set(bits)):
            return "census not strictly ascending"
        for b in bits:
            R = O.relation_from_bits(k, b)
            if any(w is not None for w in O.ec_laws(R).values()):
                return f"census member {b:#x} is not an EC relation"
            if O.canonical_relation(R) != b:
                return f"census member {b:#x} is not canonical (isomorphic duplicate)"
        if k == 1 and bits != O.k1_relation_census():
            return "k=1 census differs from brute force"
        return None

    return check


def tables_check(k, expected_fn, laws="psi", label=None, within=None):
    """Operator census: canonical order, each table satisfies its axioms and
    is canonical, and the set equals the oracle's (or lies within `within`)."""

    def check(out, O):
        ops_ = out.operators if hasattr(out, "operators") else out
        tables = [op.table for op in ops_]
        if label is not None and out.label != label:
            return f"label {out.label!r} != {label!r}"
        if tables != sorted(set(tables)):
            return "tables not strictly ascending"
        for t in tables:
            A = O.table_array(k, t)
            found = dict(O.mo_laws(A))
            if laws in ("psi", "strict"):
                found.update(O.pi_laws(A))
            if laws == "strict":
                found.update(O.strict_laws(A))
            if any(w is not None for w in found.values()):
                return f"table {t} fails its axioms"
            if O.canonical_table(A) != t:
                return f"table {t} is not canonical (isomorphic duplicate)"
        want = expected_fn(O)
        if want is not None and tables != want:
            return f"{len(tables)} tables, oracle has {len(want)}"
        if within is not None and not set(tables) <= set(within):
            return "table outside the pinned census"
        return None

    return check


def build_search(seed: int) -> list[Op]:
    rng = random.Random(f"search:{seed}")
    pinned = pin.load()
    pinned_bits = {k: [int(h, 16) for h in pinned["ecas"][str(k)]] for k in (1, 2, 3)}
    psi_k2 = sorted(tuple(t) for t in pinned["psi_k2"])
    algs = {k: B.make_algebra(k) for k in (1, 2, 3)}
    ops: list[Op] = []
    space = lazy_spaces(pinned)
    for k, workers in ((1, 1), (2, 1), (3, 1), (3, 2)):
        ops.append(Op(f"enumerate_ecas:k{k}:w{workers}", lambda k=k, w=workers: E.enumerate_ecas(algs[k], workers=w), census_check(k, pinned_bits[k])))
    ops.append(Op("enumerate_psi_operators:k2", lambda: E.enumerate_psi_operators(algs[2]), tables_check(2, lambda O: psi_k2)))
    for name in ("3bamo", "psi", "strict"):
        ops.append(
            Op(
                f"enumerate_operators:exhaustive:{name}:k1",
                lambda name=name: E.enumerate_operators(algs[1], E.named_axioms(name), mode="exhaustive"),
                tables_check(1, lambda O, name=name: O.k1_operator_census(name), name, "exhaustive"),
            )
        )
    ops.append(
        Op(
            "enumerate_operators:relational:psi:k2",
            lambda: E.enumerate_operators(algs[2], E.named_axioms("psi"), mode="relational"),
            tables_check(2, lambda O: space(O).k2, "psi", "relational-exhaustive"),
        )
    )
    text = psi_axiom_text(rng)
    # the sampler's default seed: its cost varies by about 10% with the seed
    sample_seed = T.DEFAULT_SEED
    ops.append(
        Op(
            "enumerate_operators:sampled:k2",
            lambda: E.enumerate_operators(algs[2], TM.parse_axiom_file(text), mode="sampled", seed=sample_seed),
            # every psi table on two atoms is in the pinned census
            tables_check(2, lambda O: None, "psi", f"sampled(seed={sample_seed})", within=psi_k2),
        )
    )

    sentences = [(s, True) for s in THEOREMS] + [(s, False) for s in NON_THEOREMS]
    rng.shuffle(sentences)
    for k in (1, 2):
        for i, ((template, variables, pred), theorem) in enumerate(sentences):
            names = seeded_names(rng, variables)
            text_ = template.format(**names)
            ops.append(
                Op(
                    f"find_counterexample:k{k}:{i}",
                    lambda text_=text_, k=k: E.find_counterexample(TM.parse(text_), algs[k], E.named_axioms("psi")),
                    find_check(k, variables, names, pred, theorem, space),
                )
            )

    sd3 = smallest(3)
    eca3 = pinned_eca(3, rng, pinned)
    eca3_op = relation_op(3, eca3)
    # PI1 broken in the top rows, where the top-down sweep meets it first;
    # the same table on every seed, so the early exit costs the same
    near = changed(sd3, 3, 7, 6, 1, 2)
    cut_cases = (
        (0, "smallest", sd3),
        (0, "pinned-eca", eca3_op),
        (0, "near-PI1", near),
        (1, "largest-eca", largest_op(3)),
        (1, "pinned-eca", eca3_op),
        (1, "near-PI1", near),
    )
    for which, label, table in cut_cases:
        template, variables, pred = CUT_SENTENCES[which]
        names = seeded_names(rng, variables)
        sentence = TM.parse(template.format(**names))
        op = operator(3, table)
        ops.append(Op(f"holds:cut{which}:{label}:k3", lambda s=sentence, op=op: TM.holds(s, op), holds_check(table, variables, names, pred, label)))
    return ops


def find_check(k, variables, names, pred, theorem, space):
    def check(res, O):
        found, table, assignment, searched, label = expected_search(O, space(O), k, variables, names, pred)
        if found == theorem:
            return f"oracle found={found} for a {'theorem' if theorem else 'non-theorem'}"
        got = (res.found, res.operator.table if res.operator else None, res.assignment, res.searched, res.space_label)
        want = (found, table, assignment, searched, label)
        return None if got == want else f"find {got} != {want}"

    return check


def holds_check(table, variables, names, pred, label):
    def check(out, O):
        assignment = first_falsifying(O, 3, table, variables, names, pred)
        if label in ("smallest", "pinned-eca", "largest-eca") and assignment is not None:
            return "a pseudo-inference table fails a cut law"
        want = (assignment is None, assignment)
        return None if out == want else f"holds {out} != {want}"

    return check


# ---------------------------------------------------------------------------
# scoreboard and filters


def build_scoreboard() -> list[Op]:
    """run_suite(k=2) and the filter classification of 3-atom operators,
    the part of run_suite(k=3) that takes two fifths of it.

    The scoreboard runs with the default seed that `verify-suite` uses; at
    k=3 its sampler needs a seed-dependent number of attempts (run_suite(3)
    took 19.5 s, 24.4 s and 30.0 s for seeds 0xEC0, 1 and 2).
    """
    pinned = pin.load()

    def check(items, O):
        names = [i.lemma for i in items]
        if len(names) != 34 or len(set(names)) != 34:
            return f"{len(names)} scoreboard items, expected 34 distinct"
        bad = [i.lemma for i in items if not i.passed]
        return f"lemmas failed: {bad}" if bad else None

    def scoreboard(items):
        # every item but its timing
        return tuple((i.lemma, i.passed, i.detail) for i in items)

    def filters_check(table):
        def check(out, O):
            A = O.table_array(3, table)
            if [cf.filter.generator for cf in out] != list(range(8)):
                return "filters not listed by generator"
            for cf in out:
                g = cf.filter.generator
                if (cf.is_closed, cf.is_modal) != (O.closed_filter(A, g), O.modal_filter(A, g)):
                    return f"filter [{g}) classified {cf.is_closed, cf.is_modal} against the definitions"
                # on pseudo-inference operators the shortcuts are equivalent
                if (cf.closed_via_su_mid, cf.modal_via_generator) != (cf.is_closed, cf.is_modal):
                    return f"filter [{g}): the (Su)/(Mid) or generator shortcut disagrees"
            return None

        return check

    ops = [Op("run_suite:k2", lambda: V.run_suite(k=2, seed=T.DEFAULT_SEED), check, key=scoreboard)]
    # fixed operators: where a sweep of a non-closed filter stops depends on
    # the order of the elements, so a permuted copy would cost differently
    for label, table in (("smallest", smallest(3)), ("pinned-eca", relation_op(3, int(pinned["ecas"]["3"][-1], 16)))):
        op = operator(3, table)
        ops.append(Op(f"all_filters_classified:{label}:k3", lambda op=op: F.all_filters_classified(op), filters_check(table)))
    return ops


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    # the child's own peak resident memory (VmHWM); 0 in process
    hwm_kb: int


# `python -m psiforge.cli` that writes its own VmHWM to argv[1] at exit.
# The child's ru_maxrss would not do: exec records the high-water mark of
# the memory it replaces, which after fork or vfork is the parent's.
CLI_MAIN = """\
import atexit, runpy, sys
hwm_path = sys.argv.pop(1)
def write_hwm():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(hwm_path, "w") as out:
        out.write(kb)
atexit.register(write_hwm)
runpy.run_module("psiforge.cli", run_name="__main__", alter_sys=True)
"""


def child_env(root: Path) -> dict:
    """The environment for child interpreters: psiforge from `root/src`,
    and no inherited PSIFORGE_SEED."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("PSIFORGE_SEED", None)
    return env


class CliRunner:
    """Runs psiforge.cli as `__main__` in a child process (CLI_MAIN), or
    main(argv) in process when tracing."""

    def __init__(self, root: Path, workdir: Path, in_process: bool):
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env(root)

    def __call__(self, argv, stdin: bytes | None, env: dict) -> CliResult:
        if self.in_process:
            return self._in_process(argv, stdin, env)
        hwm = self.workdir / "hwm_kb"
        hwm.unlink(missing_ok=True)
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            p = subprocess.Popen(
                [sys.executable, "-c", CLI_MAIN, str(hwm), *argv],
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                env={**self.env, **env},
                cwd=self.root,
            )
            timer = threading.Timer(LIMIT_S, p.kill)
            timer.start()
            try:
                if stdin is not None:
                    p.stdin.write(stdin)
                    p.stdin.close()
                p.wait()
            finally:
                timer.cancel()
            out.seek(0)
            err.seek(0)
            hwm_kb = int(hwm.read_text()) if hwm.exists() else 0
            return CliResult(p.returncode, out.read(), err.read(), hwm_kb)

    def _in_process(self, argv, stdin, env) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, saved_env = sys.stdin, dict(os.environ)
        sys.stdin = io.StringIO((stdin or b"").decode())
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = CLI.main(list(argv))
        finally:
            sys.stdin = saved_stdin
            os.environ.clear()
            os.environ.update(saved_env)
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode(), 0)


def op_json(k: int, table: tuple) -> dict:
    return {"alg": {"atoms": k, "names": [f"a{i}" for i in range(k)]}, "table": list(table)}


def rel_json(k: int, bits: int, compact: bool = False) -> dict:
    alg = {"atoms": k, "names": [f"a{i}" for i in range(k)]}
    s = 1 << k
    if compact:
        return {"alg": alg, "bits": base64.b64encode(bits.to_bytes((s ** 3 + 7) // 8, "little")).decode()}
    triples = [[a, b, c] for a in range(s) for b in range(s) for c in range(s) if bits >> idx(k, a, b, c) & 1]
    return {"alg": alg, "triples": triples}


def frame_json(n: int, entries) -> dict:
    def pts(mask):
        return [i for i in range(n) if mask >> i & 1]

    return {"points": n, "R": [[x, pts(y1), pts(y2), pts(y3)] for x, y1, y2, y3 in sorted(entries)]}


def decode_relation(k: int, payload: dict) -> int:
    if "bits" in payload:
        return int.from_bytes(base64.b64decode(payload["bits"]), "little")
    return sum(1 << idx(k, a, b, c) for a, b, c in payload["triples"])


def decode_frame(n: int, payload: dict) -> frozenset:
    if "bits" in payload:
        bits = int.from_bytes(base64.b64decode(payload["bits"]), "little")
        s = 1 << n
        return frozenset(
            (x, y1, y2, y3)
            for x in range(n)
            for y1 in range(s)
            for y2 in range(s)
            for y3 in range(s)
            if bits >> (((x * s + y1) * s + y2) * s + y3) & 1
        )
    return frozenset(
        (x, sum(1 << p for p in y1), sum(1 << p for p in y2), sum(1 << p for p in y3)) for x, y1, y2, y3 in payload["R"]
    )


def regular_closed_sets(n: int, basis) -> set:
    full = (1 << n) - 1
    opens = {0, full} | {sum(1 << p for p in b) for b in basis}
    grown = True
    while grown:
        new = {x | y for x in opens for y in opens} | {x & y for x in opens for y in opens}
        grown = not new <= opens
        opens |= new

    def interior(m):
        out = 0
        for o in opens:
            if o & m == o:
                out |= o
        return out

    def closure(m):
        return full ^ interior(full ^ m)

    return {m for m in range(full + 1) if closure(interior(m)) == m}


def build_cli(seed: int, root: Path, workdir: Path, in_process: bool = False) -> list[Op]:
    rng = random.Random(f"cli:{seed}")
    pinned = pin.load()
    run = CliRunner(root, workdir, in_process)
    sd2, lo2 = smallest(2), largest_op(2)
    mono2 = monotone_table(2, rng)
    le2 = largest_bits(2)
    eca2 = pinned_eca(2, rng, pinned)
    files: dict[str, str] = {}

    def put(name: str, payload) -> str:
        path = workdir / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        files[name] = str(path)
        return files[name]

    ops: list[Op] = []

    def add(name, argv, check, stdin=None, env=None, code=0, fault="", same_as=""):
        stdin_bytes = None if stdin is None else (stdin if isinstance(stdin, str) else json.dumps(stdin)).encode()

        def op_check(res: CliResult, O):
            want = code(O) if callable(code) else code
            if b"Traceback" in res.stderr:
                return f"exit {res.code} with a traceback"
            if res.code != want:
                return f"exit {res.code}, expected {want}"
            return check(res.stdout, O)

        ops.append(
            Op(
                f"cli:{name}",
                lambda: run(argv, stdin_bytes, env or {}),
                op_check,
                fault,
                same_as and f"cli:{same_as}",
            )
        )

    def report_of(k, table, which, **built):
        inner = check_op_report(k, table, which, **built)
        return lambda out, O: inner(json.loads(out), O)

    def rel_report_of(k, bits, which, **built):
        inner = check_rel_report(k, bits, which, **built)
        return lambda out, O: inner(json.loads(out), O)

    near = {law: near_miss(law, sd2, 2, rng) for law in ("PI1", "R1")}
    near_mo = near_miss("MO2", mono2, 2, rng)
    add("check-3bamo-file", ["check", "--kind", "3bamo", put("mono.json", op_json(2, mono2))], report_of(2, mono2, "3bamo", must_pass=True))
    add("check-3bamo-stdin", ["check", "--kind", "3bamo", "-"], report_of(2, near_mo, "3bamo", must_fail="MO2"), stdin=op_json(2, near_mo), code=1)
    add("check-psi-file", ["check", "--kind", "psi", put("sd.json", op_json(2, sd2))], report_of(2, sd2, "psi", must_pass=True))
    add(
        "check-psi-file-again",
        ["check", "--kind", "psi", files["sd.json"]],
        report_of(2, sd2, "psi", must_pass=True),
        same_as="check-psi-file",
    )
    add("check-psi-stdin", ["check", "--kind", "psi", "-"], report_of(2, near["PI1"], "psi", must_fail="PI1"), stdin=op_json(2, near["PI1"]), code=1)
    add("check-strict-file", ["check", "--kind", "strict", put("lo.json", op_json(2, lo2))], report_of(2, lo2, "strict", must_pass=True))
    add("check-strict-stdin", ["check", "--kind", "strict", "-"], report_of(2, near["R1"], "strict", must_fail="R1"), stdin=op_json(2, near["R1"]), code=1)
    near_ec = {law: near_miss_relation(law, le2, 2, rng) for law in ("EC3", "EC4")}
    add("check-eca-file", ["check", "--kind", "eca", put("le.json", rel_json(2, le2))], rel_report_of(2, le2, "eca", must_pass=True))
    add("check-eca-stdin-compact", ["check", "--kind", "eca", "-"], rel_report_of(2, near_ec["EC3"], "eca", must_fail="EC3"), stdin=rel_json(2, near_ec["EC3"], compact=True), code=1)
    add("check-extca-file-compact", ["check", "--kind", "extca", put("eca.json", rel_json(2, eca2, compact=True))], rel_report_of(2, eca2, "extca", must_pass=True))
    add("check-extca-stdin", ["check", "--kind", "extca", "-"], rel_report_of(2, near_ec["EC4"], "extca", must_fail="ExtCA4"), stdin=rel_json(2, near_ec["EC4"]), code=1)

    def frame_report(n, entries, must_pass):
        def check(out, O):
            report = json.loads(out)
            want = O.df_laws(n, entries)
            err = compare(report, want, lambda law, w: O.frame_violates(law, n, entries, w))
            if err is None and must_pass != report["passed"]:
                return "frame verdict differs from construction"
            return err

        return check

    mono_frame = dual_entries(2, mono2)
    # one entry whose first two components hold no singleton pair: DF3 fails
    lone = frozenset({(0, 3, 3, pick(rng, [1, 2, 3]))})
    add("check-frame-file", ["check", "--kind", "frame", put("mono-frame.json", frame_json(2, mono_frame))], frame_report(2, mono_frame, True))
    add("check-frame-stdin", ["check", "--kind", "frame", "-"], frame_report(2, lone, False), stdin=frame_json(2, lone), code=1)

    def space_report(table):
        inner = check_space(2, table)
        return lambda out, O: inner(json.loads(out), O)

    def space_code(O):
        # a seeded monotone table may or may not be pseudo-inference
        return 0 if all(w is None for w in O.pi_laws(O.table_array(2, mono2)).values()) else 1

    sd_frame = dual_entries(2, sd2)
    add("check-space-file", ["check", "--kind", "space", put("sd-frame.json", frame_json(2, sd_frame))], space_report(sd2))
    add("check-space-stdin", ["check", "--kind", "space", "-"], space_report(mono2), stdin=frame_json(2, mono_frame), code=space_code)

    def total_check(n, entries):
        def check(out, O):
            full = (1 << n) - 1
            rinv: dict = {}
            for x, *y in entries:
                rinv[tuple(y)] = rinv.get(tuple(y), 0) | 1 << x
            witness = next((list(key) for key in sorted(rinv) if rinv[key] not in (0, full)), None)
            want = {"kind": "total", "passed": witness is None}
            if witness is not None:
                want["witness"] = witness
            return None if json.loads(out) == want else "totality verdict differs"

        return check

    lo_frame = dual_entries(2, lo2)
    add("check-total-file", ["check", "--kind", "total", put("lo-frame.json", frame_json(2, lo_frame))], total_check(2, lo_frame))
    add("check-total-stdin", ["check", "--kind", "total", "-"], total_check(2, sd_frame), stdin=frame_json(2, sd_frame), code=1)

    def to_op_check(bits):
        def check(out, O):
            want = [int(v) for v in O.rel_to_op(O.relation_from_bits(2, bits)).ravel()]
            return None if json.loads(out)["table"] == want else "convert --to op table differs"

        return check

    def to_rel_check(table):
        def check(out, O):
            payload = json.loads(out)
            A = O.table_array(2, table)
            if decode_relation(2, payload) != O.relation_bits(O.op_to_rel(A)):
                return "convert --to rel relation differs"
            if ("warning" in payload) != (O.relational(A) is not None):
                return "non-relational warning wrong"
            return None

        return check

    add("convert-op-file", ["convert", "--to", "op", files["le.json"]], to_op_check(le2))
    add("convert-op-stdin", ["convert", "--to", "op", "-"], to_op_check(eca2), stdin=rel_json(2, eca2))
    add("convert-rel-file", ["convert", "--to", "rel", files["lo.json"]], to_rel_check(lo2))
    add("convert-rel-stdin-compact", ["convert", "--to", "rel", "--compact", "-"], to_rel_check(mono2), stdin=op_json(2, mono2))

    def dual_check(table):
        def check(out, O):
            got = decode_frame(2, json.loads(out))
            return None if got == O.dual_frame_entries(O.table_array(2, table)) else "dualize frame differs"

        return check

    def complex_check(table):
        return lambda out, O: None if json.loads(out)["table"] == list(table) else "complex algebra is not the source table"

    add("dualize-file", ["dualize", files["mono.json"]], dual_check(mono2))
    add("dualize-stdin-compact", ["dualize", "--compact", "-"], dual_check(sd2), stdin=op_json(2, sd2))
    add("complex-file", ["complex", files["mono-frame.json"]], complex_check(mono2))
    compact_sd = D.PsiFrame(2, sd_frame).to_json(compact=True)
    add("complex-stdin-compact", ["complex", "-"], complex_check(sd2), stdin=compact_sd)

    def ecas_lines(out, O):
        bits = [decode_relation(2, json.loads(line)) for line in out.decode().splitlines()]
        return census_check(2, [int(h, 16) for h in pinned["ecas"]["2"]])([relation(2, b) for b in bits], O)

    def operator_lines(k, expected_fn, label, laws="psi"):
        def check(out, O):
            rows = [json.loads(line) for line in out.decode().splitlines()]
            if any(r["label"] != label for r in rows):
                return "operator label differs"
            return tables_check(k, expected_fn, laws)([operator(k, tuple(r["table"])) for r in rows], O)

        return check

    axioms_file = put("psi-axioms.txt", psi_axiom_text(rng))
    add("enumerate-ecas", ["enumerate", "--what", "ecas", "--k", "2"], ecas_lines)
    add("enumerate-ecas-compact", ["enumerate", "--what", "ecas", "--k", "2", "--compact"], ecas_lines)
    add("enumerate-operators-k1", ["enumerate", "--what", "operators", "--k", "1"], operator_lines(1, lambda O: O.k1_operator_census("psi"), "exhaustive"))
    add(
        "enumerate-operators-axiom-file",
        ["enumerate", "--what", "operators", "--k", "1", "--axioms", "@" + axioms_file],
        operator_lines(1, lambda O: O.k1_operator_census("psi"), "exhaustive"),
    )
    add(
        "enumerate-operators-relational-k2",
        ["enumerate", "--what", "operators", "--k", "2", "--mode", "relational", "--axioms", "strict"],
        operator_lines(2, lambda O: None, "relational-exhaustive", "strict"),
    )

    space = lazy_spaces(pinned)

    def find_json(k, variables, names, pred):
        def check(out, O):
            found, table, assignment, searched, label = expected_search(O, space(O), k, variables, names, pred)
            want = {"found": found, "space": label, "searched": searched}
            if found:
                want.update(operator=op_json(k, table), assignment=assignment)
            else:
                want["certificate"] = f"no counterexample among {searched} structures ({label})"
            return None if json.loads(out) == want else f"find output differs from {want}"

        return check

    for k in (1, 2):
        for (template, variables, pred), found in ((pick(rng, THEOREMS), False), (pick(rng, NON_THEOREMS), True)):
            names = seeded_names(rng, variables)
            add(
                f"find-k{k}-{'non-theorem' if found else 'theorem'}",
                ["find", "--sentence", template.format(**names), "--k", str(k)],
                find_json(k, variables, names, pred),
                code=1 if found else 0,
            )

    def scoreboard(out, O):
        lines = out.decode().splitlines()
        if lines[-1:] != ["34/34 lemmas verified"] or not all(x.startswith("[pass]") for x in lines[:-1]):
            return "scoreboard has a failed lemma"
        return None

    add("verify-suite", ["verify-suite", "--k", "1"], scoreboard)

    def topo_check(n, basis):
        def check(out, O):
            payload = json.loads(out)
            k = payload["algebra"]["atoms"]
            sets = [sum(1 << p for p in s) for s in payload["regular_closed_sets"]]
            if set(sets) != regular_closed_sets(n, basis) or len(sets) != 1 << k:
                return "regular closed sets differ"
            bits = decode_relation(k, payload["relation"])
            s = 1 << k
            want = sum(
                1 << idx(k, a, b, c)
                for a in range(s)
                for b in range(s)
                for c in range(s)
                if sets[a] & sets[b] & ~sets[c] == 0
            )
            if bits != want:
                return "relation is not (A, B) |- C iff A and B below C"
            if any(w is not None for w in O.ec_laws(O.relation_from_bits(k, bits)).values()):
                return "topological relation is not an EC relation"
            return None

        return check

    for compact in (False, True):
        basis = [[p for p in range(2) if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
        payload = {"points": 2, "basis": basis}
        if compact:
            add("topo-stdin-compact", ["topo", "--compact", "-"], topo_check(2, basis), stdin=payload)
        else:
            add("topo-file", ["topo", put("topo.json", payload)], topo_check(2, basis))

    def usage(out, O):
        return None if out == b"" else "usage error wrote to stdout"

    add("usage-error", ["check", "--kind", "bogus", "-"], usage, stdin="{}", code=2)
    add(
        "json-array-input",
        ["check", "--kind", "psi", "-"],
        usage,
        stdin="[1, 2]",
        code=2,
        fault="cli.py:279: the TypeError from a JSON array escapes the except list",
    )
    add(
        "bad-seed-env",
        ["check", "--kind", "psi", files["sd.json"]],
        usage,
        env={"PSIFORGE_SEED": "xyz"},
        code=2,
        fault="cli.py:267: int(PSIFORGE_SEED) runs outside the try",
    )
    return ops


def build(name: str, seed: int, root: Path, workdir: Path, in_process: bool = False) -> list[Op]:
    if name == "compute":
        return build_sweep(seed) + build_search(seed) + build_scoreboard()
    if name == "cli":
        return build_cli(seed, root, workdir, in_process)
    raise ValueError(f"unknown workload {name!r}")
