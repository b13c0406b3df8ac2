"""Write bench/pinned.json: the copies the oracles cannot recompute.

The ECA census on 2 and 3 atoms (2 and 7 classes) and the 10
pseudo-inference tables on 2 atoms are too large to brute-force, so the
benchmark compares against a pinned copy.  This script makes the copy anew
from psiforge's enumerators and accepts it only if the benchmark's own
oracles agree: every member satisfies its axioms, is its own canonical form
under the atom permutations, and the members are pairwise distinct.  The
one-atom census is brute-forced by the oracles and must match as well.

    PYTHONPATH=src python3 bench/pin.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PINNED = HERE / "pinned.json"


def validate(pinned: dict) -> None:
    """Raise ValueError unless the oracles accept every pinned member."""
    # imported here, so that load() in a timed set-up pulls in no numpy
    import oracles as O

    for k, members in pinned["ecas"].items():
        bits = [int(h, 16) for h in members]
        if bits != sorted(set(bits)):
            raise ValueError(f"ECA census k={k} is not strictly ascending")
        for b in bits:
            R = O.relation_from_bits(int(k), b)
            bad = {n: w for n, w in O.ec_laws(R).items() if w is not None}
            if bad:
                raise ValueError(f"pinned ECA k={k} {b:#x} fails {bad}")
            if O.canonical_relation(R) != b:
                raise ValueError(f"pinned ECA k={k} {b:#x} is not canonical")
    if [int(h, 16) for h in pinned["ecas"]["1"]] != O.k1_relation_census():
        raise ValueError("k=1 ECA census differs from brute force")
    tables = [tuple(t) for t in pinned["psi_k2"]]
    if tables != sorted(set(tables)):
        raise ValueError("psi census k=2 is not strictly ascending")
    for t in tables:
        T = O.table_array(2, t)
        laws = {**O.mo_laws(T), **O.pi_laws(T)}
        bad = {n: w for n, w in laws.items() if w is not None}
        if bad:
            raise ValueError(f"pinned psi table {t} fails {bad}")
        if O.canonical_table(T) != t:
            raise ValueError(f"pinned psi table {t} is not canonical")


def make() -> dict:
    from psiforge import make_algebra
    from psiforge.enumeration import enumerate_ecas, enumerate_psi_operators

    ecas = {
        str(k): [format(r.bits, "x") for r in enumerate_ecas(make_algebra(k))]
        for k in (1, 2, 3)
    }
    psi = [list(op.table) for op in enumerate_psi_operators(make_algebra(2))]
    return {"ecas": ecas, "psi_k2": psi}


def load() -> dict:
    return json.loads(PINNED.read_text())


if __name__ == "__main__":
    fresh = make()
    validate(fresh)
    PINNED.write_text(json.dumps(fresh, indent=1) + "\n")
    sizes = {k: len(v) for k, v in fresh["ecas"].items()}
    print(f"wrote {PINNED.name}: ECA census {sizes}, {len(fresh['psi_k2'])} psi tables at k=2")
