"""Oracles for the benchmark, written apart from psiforge.

Every law is evaluated straight from its formula over the whole quantifier
grid, and the first violation is taken in the documented sweep order:
ascending masks, or descending for the five-variable cut laws (PI1, EC1).
Tables and relations are numpy arrays indexed [a, b, c]; nothing here
imports psiforge, so a fault in the program cannot hide in its own check.

numpy is imported by the benchmark only after the timed phase, so it never
counts towards the workload's set-up time or peak memory.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np


# ---------------------------------------------------------------------------
# grids and the first-violation sweep


def size_of(arr) -> int:
    return arr.shape[0]


def grid(size: int, ndim: int) -> list:
    """One open-mesh axis per quantified variable, in witness order."""
    e = np.arange(size)
    return [e.reshape([-1 if j == i else 1 for j in range(ndim)]) for i in range(ndim)]


def first(viol, descending: bool = False):
    """Witness of the first True cell in lexicographic order of the axes,
    or None.  Descending order reads every axis from the top mask down."""
    if descending:
        viol = viol[(slice(None, None, -1),) * viol.ndim]
    flat = np.ascontiguousarray(viol).ravel()
    i = int(flat.argmax())
    if not flat[i]:
        return None
    idx = np.unravel_index(i, viol.shape)
    if descending:
        idx = [viol.shape[j] - 1 - v for j, v in enumerate(idx)]
    return tuple(int(v) for v in idx)


def first_descending_chunked(size: int, viol_for_first_var):
    """Top-down sweep over a five-variable law, one value of the first
    variable at a time so the grid stays |A|^4."""
    for a in range(size - 1, -1, -1):
        w = first(viol_for_first_var(a), descending=True)
        if w is not None:
            return (a, *w)
    return None


# ---------------------------------------------------------------------------
# operator laws (witness tuples as documented by each law)


def mo_laws(T) -> dict:
    s = size_of(T)
    out = {}
    w = first(T[0, :, :] != 0)
    if w is not None:
        out["MO1"] = (0, *w)
    else:
        w = first(T[:, 0, :] != 0)
        if w is not None:
            out["MO1"] = (w[0], 0, w[1])
        else:
            w = first(T[:, :, 0] != 0)
            out["MO1"] = None if w is None else (w[0], w[1], 0)
    a, x, b, c = grid(s, 4)
    out["MO2"] = first(T[a | x, b, c] != (T[a, b, c] | T[x, b, c]))
    a, b, x, c = grid(s, 4)
    out["MO3"] = first(T[a, b | x, c] != (T[a, b, c] | T[a, x, c]))
    a, b, c, x = grid(s, 4)
    out["MO4"] = first(((T[a, b, c] | T[a, b, x]) & ~T[a, b, c | x]) != 0)
    return out


def pi1_violated(T, a, b, f, d, e):
    top = size_of(T) - 1
    rhs = T[a, b, top ^ d] | T[a, b, top ^ e] | T[d, e, f]
    return (T[a, b, f] & ~rhs) != 0


def pi_laws(T) -> dict:
    s = size_of(T)
    top = s - 1

    def pi1_at(a):
        b, f, d, e = grid(s, 4)
        return pi1_violated(T, a, b, f, d, e)

    a, b = grid(s, 2)
    pi2 = first(T[a, b, top ^ a] != 0)
    a, f = grid(s, 2)
    pi3 = first(((a & f) & ~T[a, a, f]) != 0)
    a, b, f = grid(s, 3)
    pi4 = first((T[a, b, f] & ~T[b, a, f]) != 0)
    return {
        "PI1": first_descending_chunked(s, pi1_at),
        "PI2": pi2,
        "PI3": pi3,
        "PI4": pi4,
    }


def mu_table(T):
    top = size_of(T) - 1
    z = np.arange(top + 1)
    return (top ^ T[top, top, top ^ z]) & (top ^ T[top, top ^ z, top])


def strict_laws(T) -> dict:
    s = size_of(T)
    top = s - 1
    x, y, a, b = grid(s, 4)
    r1 = first(((T[x, y, a] & ~T[x, y, b]) & ~T[top, top, a & (top ^ b)]) != 0)
    x, a, b, y = grid(s, 4)
    r2 = first(((T[x, a, y] & ~T[x, b, y]) & ~T[top, a & (top ^ b), top]) != 0)
    mu = mu_table(T)
    sv = first((T & ~mu[T]) != 0)
    return {"R1": r1, "R2": r2, "S": sv}


def pi2_equivalents(T) -> dict:
    s = size_of(T)
    top = s - 1
    e = np.arange(s)
    a, b = grid(s, 2)
    pi2 = first(T[a, b, top ^ a] != 0)
    top_form = first(T[e, top, top ^ e] != 0)
    a, f, b = grid(s, 3)  # swept a, f, b; reported (a, b, f)
    w = first(((a & f) == 0) & (T[a, b, f] != 0))
    quasi = None if w is None else (w[0], w[2], w[1])
    a, f = grid(s, 2)
    quasi_top = first(((a & f) == 0) & (T[a, top, f] != 0))
    verdicts = tuple(v is None for v in (pi2, top_form, quasi, quasi_top))
    agree = all(verdicts) or not any(verdicts)
    return {
        "PI2": pi2,
        "PI2-top-form": top_form,
        "PI2-quasi": quasi,
        "PI2-quasi-top": quasi_top,
        "PI2-agreement": None if agree else (),
    }


def relational(T):
    top = size_of(T) - 1
    return first((T != 0) & (T != top))


def discriminator(T) -> dict:
    s = size_of(T)
    top = s - 1
    mu = mu_table(T)
    d = top ^ mu[top ^ np.arange(s)]
    if d[0] != 0:
        dw = (0,)
    else:
        w = first(d[1:] != top)
        dw = None if w is None else (w[0] + 1,)
    a, b, c = grid(s, 3)
    dv = d[a ^ b]
    t = (a & dv) | (c & (top ^ dv))
    want = np.where(a != b, a, c)
    return {"d-contract": dw, "t-contract": first(t != want)}


def first_falsifying(T, nvars: int, pred):
    """First assignment, top-down in the order the variables first appear,
    at which the sentence pred(T, top, *vars) is false; None if it holds."""
    s = size_of(T)
    top = s - 1
    if nvars >= 5:

        def at(v0):
            return ~np.broadcast_to(pred(T, top, v0, *grid(s, nvars - 1)), (s,) * (nvars - 1))

        return first_descending_chunked(s, at)
    return first(~np.broadcast_to(pred(T, top, *grid(s, nvars)), (s,) * nvars), descending=True)


def closed_filter(T, g: int) -> bool:
    """[g) is closed: x_i -> y_i in [g) for i = 1..3 gives
    dia(x1,x2,x3) -> dia(y1,y2,y3) in [g)."""
    s = size_of(T)
    x, y = np.nonzero((g & np.arange(s)[:, None] & ~np.arange(s)[None, :]) == 0)
    a = T[x[:, None, None], x[None, :, None], x[None, None, :]]
    b = T[y[:, None, None], y[None, :, None], y[None, None, :]]
    return not ((g & a & ~b) != 0).any()


def modal_filter(T, g: int) -> bool:
    """[g) is closed under mu."""
    members = [x for x in range(size_of(T)) if x & g == g]
    mu = mu_table(T)
    return all(int(mu[x]) & g == g for x in members)


# ---------------------------------------------------------------------------
# relation laws


def _weakening(R):
    a, b, f, d = grid(size_of(R), 4)
    return first(R[a, b, f] & ~R[a | d, b, f | d])


def _cut(R):
    s = size_of(R)

    def at(a):
        b, d, e, f = grid(s, 4)
        return R[a, b, d] & R[a, b, e] & R[d, e, f] & ~R[a, b, f]

    return first_descending_chunked(s, at)


def _symmetry(R):
    a, b, f = grid(size_of(R), 3)
    return first(R[a, b, f] & ~R[b, a, f])


def ec_laws(R) -> dict:
    s = size_of(R)
    a, b, f = grid(s, 3)
    ec2 = first(~R[a, b, a | f])
    a, f = grid(s, 2)
    ec3 = first(R[a, a, f] & ((a & f) != a))
    return {"EC0": _weakening(R), "EC1": _cut(R), "EC2": ec2, "EC3": ec3, "EC4": _symmetry(R)}


def extca_laws(R) -> dict:
    s = size_of(R)
    a, b, f = grid(s, 3)
    extca2 = first(((a & f) == a) & ~R[a, b, f])
    extca3 = first(R[a, b, f] & (((a & b) & ~f) != 0))
    return {
        "ExtCA0": _weakening(R),
        "ExtCA1": _cut(R),
        "ExtCA2": extca2,
        "ExtCA3": extca3,
        "ExtCA4": _symmetry(R),
    }


def rel_violates(axiom: str, R, w) -> bool:
    """Does witness w of the named relation law really violate it?"""
    s = size_of(R)
    if axiom in ("EC0", "ExtCA0"):
        a, b, f, d = w
        return bool(R[a, b, f] and not R[a | d, b, f | d])
    if axiom in ("EC1", "ExtCA1"):
        a, b, d, e, f = w
        return bool(R[a, b, d] and R[a, b, e] and R[d, e, f] and not R[a, b, f])
    if axiom == "EC2":
        a, b, f = w
        return not R[a, b, a | f]
    if axiom == "EC3":
        a, f = w
        return bool(R[a, a, f]) and a & f != a
    if axiom in ("EC4", "ExtCA4"):
        a, b, f = w
        return bool(R[a, b, f] and not R[b, a, f])
    if axiom == "ExtCA2":
        a, b, f = w
        return a & f == a and not R[a, b, f]
    if axiom == "ExtCA3":
        a, b, f = w
        return bool(R[a, b, f]) and (a & b) & (s - 1 - f) != 0
    raise KeyError(axiom)


def op_violates(axiom: str, T, w) -> bool:
    """Does witness w of the named operator law really violate it?"""
    top = size_of(T) - 1
    if axiom == "MO1":
        return 0 in w and T[w] != 0
    if axiom == "MO2":
        a, x, b, c = w
        return T[a | x, b, c] != T[a, b, c] | T[x, b, c]
    if axiom == "MO3":
        a, b, x, c = w
        return T[a, b | x, c] != T[a, b, c] | T[a, x, c]
    if axiom == "MO4":
        a, b, c, x = w
        return (T[a, b, c] | T[a, b, x]) & ~T[a, b, c | x] != 0
    if axiom == "PI1":
        return bool(pi1_violated(T, *w))
    if axiom == "PI2":
        a, b = w
        return T[a, b, top ^ a] != 0
    if axiom == "PI3":
        a, f = w
        return (a & f) & ~T[a, a, f] != 0
    if axiom == "PI4":
        a, b, f = w
        return T[a, b, f] & ~T[b, a, f] != 0
    if axiom == "R1":
        x, y, a, b = w
        return (T[x, y, a] & ~T[x, y, b]) & ~T[top, top, a & (top ^ b)] != 0
    if axiom == "R2":
        x, a, b, y = w
        return (T[x, a, y] & ~T[x, b, y]) & ~T[top, a & (top ^ b), top] != 0
    if axiom == "S":
        v = T[w]
        return v & ~mu_table(T)[v] != 0
    raise KeyError(axiom)


# ---------------------------------------------------------------------------
# translations and constructions


def rel_to_op(R):
    """dia(a,b,c) = 0 if (a,b) |- not c, else top."""
    top = size_of(R) - 1
    a, b, c = grid(top + 1, 3)
    return np.where(R[a, b, top ^ c], 0, top)


def op_to_rel(T):
    """(a,b) |- c iff dia(a,b,not c) = 0."""
    top = size_of(T) - 1
    a, b, c = grid(top + 1, 3)
    return T[a, b, top ^ c] == 0


def dual_frame_entries(T) -> frozenset:
    """Dual frame of a monotone table: atom i sits below dia(Y1, Y2, Y3)."""
    s = size_of(T)
    n = s.bit_length() - 1
    return frozenset(
        (i, y1, y2, y3)
        for y1 in range(1, s)
        for y2 in range(1, s)
        for y3 in range(1, s)
        for i in range(n)
        if int(T[y1, y2, y3]) >> i & 1
    )


# ---------------------------------------------------------------------------
# frame laws (point sets as bitmasks; R given as (x, Y1, Y2, Y3) entries)


def _meets(u, y) -> bool:
    return bool(y[0] & u[0] or y[1] & u[1] or y[2] & u[2])


def frame_violates(axiom: str, n: int, entries: frozenset, w) -> bool:
    """Re-evaluate a DF/PIF witness from the frame conditions' formulas."""
    full = (1 << n) - 1
    rinv: dict = {}
    for x, *y in entries:
        rinv[tuple(y)] = rinv.get(tuple(y), 0) | 1 << x

    def pre(y1, y2, y3) -> int:
        return rinv.get((y1, y2, y3), 0)

    if axiom == "DF2":
        x, *y = w
        return _df2_violates(n, entries, x, tuple(y), _df2_family(n, entries, x))
    if axiom == "DF3":
        x, y1, y2, y3 = w
        if (x, y1, y2, y3) not in entries:
            return False
        return not any(
            (x, 1 << i, 1 << j, y3) in entries
            for i in range(n)
            if y1 >> i & 1
            for j in range(n)
            if y2 >> j & 1
        )
    if axiom == "PIF1":
        y1, y2, y3, z, w_ = w
        cover = pre(y1, y2, z) | pre(y1, y2, w_) | pre(full ^ z, full ^ w_, y3)
        return pre(y1, y2, y3) & ~cover != 0
    if axiom == "PIF2":
        y1, y2, y3 = w
        return y1 & y3 == 0 and pre(y1, y2, y3) != 0
    if axiom == "PIF3":
        y1, y2 = w
        return (y1 & y2) & ~pre(y1, y1, y2) != 0
    if axiom == "PIF4":
        y1, y2, y3 = w
        return pre(y1, y2, y3) & ~pre(y2, y1, y3) != 0
    raise KeyError(axiom)


def _df2_family(n: int, entries: frozenset, x: int) -> list:
    """The triples U whose L_U contains all of R(x)."""
    rx = [tuple(e[1:]) for e in entries if e[0] == x]
    size = 1 << n
    return [
        (u1, u2, u3)
        for u1 in range(size)
        for u2 in range(size)
        for u3 in range(size)
        if all(_meets((u1, u2, u3), r) for r in rx)
    ]


def _df2_violates(n, entries, x, y, family) -> bool:
    return (x, *y) not in entries and all(_meets(u, y) for u in family)


def df_laws(n: int, entries: frozenset) -> dict:
    """DF2 and DF3 first violations in the documented order: points
    ascending, then subset triples ascending (DF3 over sorted entries)."""
    size = 1 << n
    nonempty = range(1, size)
    df2 = None
    for x in range(n):
        family = _df2_family(n, entries, x)
        df2 = next(
            (
                (x, y1, y2, y3)
                for y1 in nonempty
                for y2 in nonempty
                for y3 in nonempty
                if _df2_violates(n, entries, x, (y1, y2, y3), family)
            ),
            None,
        )
        if df2 is not None:
            break
    df3 = next((e for e in sorted(entries) if frame_violates("DF3", n, entries, e)), None)
    return {"DF1": None, "DF2": df2, "DF3": df3}


# ---------------------------------------------------------------------------
# canonical forms under atom permutations


def element_maps(k: int) -> list:
    """For each atom permutation p, the induced map on masks as an array."""
    out = []
    for p in permutations(range(k)):
        m = np.zeros(1 << k, dtype=np.int64)
        for e in range(1 << k):
            m[e] = sum(1 << p[i] for i in range(k) if e >> i & 1)
        out.append(m)
    return out


def relation_bits(R) -> int:
    return int.from_bytes(np.packbits(R.ravel(), bitorder="little").tobytes(), "little")


def relation_from_bits(k: int, bits: int):
    s = 1 << k
    raw = np.frombuffer(bits.to_bytes((s ** 3 + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: s ** 3].astype(bool).reshape(s, s, s)


def canonical_relation(R) -> int:
    """Least bitset over the orbit of R under the atom permutations."""
    k = size_of(R).bit_length() - 1
    best = None
    for m in element_maps(k):
        P = np.zeros_like(R)
        P[np.ix_(m, m, m)] = R
        bits = relation_bits(P)
        best = bits if best is None else min(best, bits)
    return best


def canonical_table(T) -> tuple:
    """Lexicographically least table over the orbit of T."""
    k = size_of(T).bit_length() - 1
    best = None
    for m in element_maps(k):
        P = np.zeros_like(T)
        P[np.ix_(m, m, m)] = m[T]
        cand = tuple(int(v) for v in P.ravel())
        best = cand if best is None else min(best, cand)
    return best


def table_array(k: int, table) -> "np.ndarray":
    s = 1 << k
    return np.asarray(table, dtype=np.int64).reshape(s, s, s)


# ---------------------------------------------------------------------------
# k = 1 censuses by brute force


def k1_relation_census() -> list[int]:
    """Canonical bitsets of every EC relation on one atom (2^8 candidates)."""
    found = set()
    for bits in range(1 << 8):
        R = relation_from_bits(1, bits)
        if all(w is None for w in ec_laws(R).values()):
            found.add(canonical_relation(R))
    return sorted(found)


def k1_operator_census(axioms: str) -> list[tuple]:
    """Canonical tables of every k=1 operator satisfying 3bamo, psi
    (3bamo + PI) or strict (psi + R1/R2/S), from 2^8 candidate tables."""
    found = set()
    for packed in range(1 << 8):
        T = table_array(1, [packed >> i & 1 for i in range(8)])
        laws = dict(mo_laws(T))
        if axioms in ("psi", "strict"):
            laws.update(pi_laws(T))
        if axioms == "strict":
            laws.update(strict_laws(T))
        if all(w is None for w in laws.values()):
            found.add(canonical_table(T))
    return sorted(found)
