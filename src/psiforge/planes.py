"""Plane deciders: each operator law decided by whole-table tests, which
also locate where it first fails.

Every table entry is below 2**MAX_ATOMS <= 256, so a table is the byte
string raw = bytes(op.table), entry (a, b, c) at byte (a*s + b)*s + c with
s = |A|, and the integer X read from it little-end first.  Adding an atom
u to a coordinate that lacks it moves an entry u*w bytes up, where w is
the coordinate's stride (s*s for a, s for b, 1 for c), so one shift of X,
masked to the entries whose coordinate lacks u, lines each entry up with
its cover.  Rows are copied across by bytes repetition, and P <= Q, entry
by entry, is tested as P & Q == P.  PI4, dia(a, b, f) <= dia(b, a, f),
is X & ~T(X) == 0, with T the (a, b) transpose of module boolean_core's
offset permutation (_transpose).  Each test decides its law over the
whole table at once, with no loop over tuples, except PI1, R1 and R2,
tested one (a, b) row or column at a time: on the atom pairs alone and,
for R2, as one bound, where MO1-MO3 hold, and on every row or column
otherwise.  Every verdict is exact on every table.

LAWS[law](raw, s) is the law's one decider: None when the law holds, else
the prefix of its first witness in the witness order of its rows
(ternary_operator.LAW_ROWS): () for MO1, the first failing a for MO3 and
R2, (a, x) for MO2, (a, b) for MO4 and PI1, (x, y) for R1, and the whole
witness for PI2-PI4 and S.  Where a test and the search for the prefix
differ, the search, itself exact, runs only after the test has failed.

PI1-PI4 also decide a frame's space conditions PIF1-PIF4, on its reach
table read as an operator table (duality_frames.check_psi_space).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

from .boolean_core import _first_entry, _lacking_bits, _repeat, _transpose, _unpack, _up


def _atom_bits(s: int) -> range:
    """The bit positions i of the atoms u = 1 << i of the algebra of size s."""
    return range(s.bit_length() - 1)


@lru_cache(maxsize=None)
def _meets(s: int) -> int:
    """Byte a*s + f is a and f."""
    return int.from_bytes(bytes(a & f for a in range(s) for f in range(s)), "little")


@lru_cache(maxsize=None)
def _differences(s: int) -> bytes:
    """Byte a*s + b is a and not b."""
    return bytes(a & ~b for a in range(s) for b in range(s))


@lru_cache(maxsize=None)
def _constant_planes(s: int) -> tuple[int, ...]:
    """Int v has the byte v at each of the s*s places (d, e)."""
    return tuple(_repeat(v, 8, s * s) for v in range(s))


def _row(raw: bytes, s: int, a: int, b: int) -> bytes:
    """dia(a, b, c) over c."""
    start = (a * s + b) * s
    return raw[start:start + s]


def _spread(row: bytes, times: int) -> bytes:
    """Each byte of row repeated ``times`` times."""
    return b"".join(bytes((v,)) * times for v in row)


def _mo1(raw: bytes, s: int) -> tuple[()] | None:
    s2 = s * s
    zero = bytes(s2)
    first_rows = b"".join(raw[a * s2:a * s2 + s] for a in range(s))
    return None if raw[:s2] == zero and first_rows == zero and raw[::s] == zero else ()


def _nonadditive(raw: bytes, s: int, w: int) -> int:
    """Nonzero, at the entries that fail it, unless dia is additive in its
    coordinate of stride w (s*s: MO2, s: MO3): dia at x or u is dia at x
    or dia at u, for each atom u and each x lacking u."""
    n, x = len(raw), int.from_bytes(raw, "little")
    fails = 0
    for i in _atom_bits(s):
        block = w << i
        low = x & _lacking_bits(8 * n, 8 * block)  # the entries whose coordinate lacks u
        # dia at u, wherever the coordinate holds u, and 0 elsewhere
        at_u = b"".join(
            (bytes(block) + raw[o + block:o + block + w] * (1 << i)) * (s >> (i + 1)) for o in range(0, n, s * w)
        )
        fails |= ((low << 8 * block) | int.from_bytes(at_u, "little") | low) ^ x
    return fails


def _mo2(raw: bytes, s: int) -> tuple[int, int] | None:
    """The first (a, x) with dia(a or x, ., .) != dia(a, ., .) or
    dia(x, ., .), searched where the atom forms fail."""
    s2 = s * s
    if not _nonadditive(raw, s, s2):
        return None
    slabs = _unpack(int.from_bytes(raw, "little"), 8 * s2, range(s))
    return next(((a, x) for a in range(s) for x in range(s) if slabs[a | x] != slabs[a] | slabs[x]), None)


def _mo4(raw: bytes, s: int) -> tuple[int, int] | None:
    """The first (a, b) row failing dia(a, b, c) <= dia(a, b, c or u) for
    an atom u: the first row that its subset-OR transform in c changes."""
    x = int.from_bytes(raw, "little")
    return _first_entry(_up(x, s.bit_length() - 1, _atom_bits(s), 3) ^ x, s, 2, 8 * s)


def _pairs(raw: bytes, s: int):
    """The (a, b) rows that decide PI1 and R1, ascending: the atom pairs
    where MO1-MO3 hold, as each row dia(a, b, .) is then the join of the
    rows at the atoms below a and b, and every pair otherwise."""
    return product([1 << i for i in _atom_bits(s)] if distributes(raw, s) else range(s), repeat=2)


def pi1_failure(raw: bytes, s: int, pairs) -> tuple[int, int] | None:
    """The first (a, b) of pairs at which dia(a, b, f) <= dia(a, b, not d)
    or dia(a, b, not e) or dia(d, e, f) fails for some f, d, e; None if
    there is none.  Each f with dia(a, b, f) != 0 is one test on the
    (d, e) plane of f.  The test reads only the row dia(a, b, .) and the
    table, so each distinct row is tested once."""
    constant = _constant_planes(s)
    top = constant[s - 1]
    gaps = [top ^ int.from_bytes(raw[f::s], "little") for f in range(s)]  # not dia(d, e, f) over (d, e)
    holds = {bytes(s)}
    for a, b in pairs:
        row = _row(raw, s, a, b)
        if row in holds:
            continue
        neg = row[::-1]  # dia(a, b, not d) over d
        # not (dia(a, b, not d) or dia(a, b, not e)) over (d, e)
        uncovered = top ^ (int.from_bytes(_spread(neg, s), "little") | int.from_bytes(neg * s, "little"))
        if any(constant[v] & gaps[f] & uncovered for f, v in enumerate(row) if v):
            return a, b
        holds.add(row)
    return None


def _pi1(raw: bytes, s: int) -> tuple[int, int] | None:
    """The first failing (a, b) top-down; under MO1-MO3, once an atom pair fails."""
    if distributes(raw, s) and pi1_failure(raw, s, _pairs(raw, s)) is None:
        return None
    return pi1_failure(raw, s, product(range(s - 1, -1, -1), repeat=2))


def _first_below(rows, bound: bytes, s: int):
    """The key of the first (key, row) for which row(a) and not row(b) <=
    bound(a and not b) fails on the (a, b) grid; None if there is none.
    Each distinct row is tested once."""
    fixed = int.from_bytes(_differences(s).translate(bound + bytes(256 - s)), "little")
    holds = set()
    for key, row in rows:
        if row in holds:
            continue
        lhs = int.from_bytes(_spread(row, s), "little")
        if lhs & (int.from_bytes(row * s, "little") | fixed) != lhs:
            return key
        holds.add(row)
    return None


def _r1(raw: bytes, s: int) -> tuple[int, int] | None:
    """The first row (x, y) of _pairs failing R1 (see check_strict)."""
    return _first_below(((p, _row(raw, s, *p)) for p in _pairs(raw, s)), _row(raw, s, s - 1, s - 1), s)


def _r2(raw: bytes, s: int) -> tuple[int] | None:
    """The first x of a column (x, ., y) failing R2 on the (a, b) grid or,
    where MO1-MO3 hold, of dia(x, a, y) <= dia(1, a, 1) (see check_strict)."""
    s2, top = s * s, s - 1
    middle = raw[top * s2 + top:s2 * s:s]  # dia(1, a, 1) over a
    if distributes(raw, s):
        x = int.from_bytes(raw, "little")
        return _first_entry(x & ~int.from_bytes(_spread(middle, s) * s, "little"), s, 1, 8 * s2)
    columns = (((x,), raw[x * s2 + y:(x + 1) * s2:s]) for x in range(s) for y in range(s))
    return _first_below(columns, middle, s)


def _s_below_mu(raw: bytes, s: int) -> tuple[int, int, int] | None:
    """dia(a, b, c) <= mu(dia(a, b, c)), reading mu off the table."""
    s2, top = s * s, s - 1
    ones, middle = _row(raw, s, top, top), raw[top * s2 + top:s2 * s:s]
    mu_of = bytes(top ^ (ones[top ^ z] | middle[top ^ z]) for z in range(s)) + bytes(256 - s)
    return _first_entry(int.from_bytes(raw, "little") & ~int.from_bytes(raw.translate(mu_of), "little"), s)


def _pi2(raw: bytes, s: int) -> tuple[int, int] | None:
    s2, top = s * s, s - 1
    plane = b"".join(raw[a * s2 + (top ^ a):(a + 1) * s2:s] for a in range(s))  # dia(a, b, not a) over (a, b)
    return _first_entry(int.from_bytes(plane, "little"), s, 2)


def _pi3(raw: bytes, s: int) -> tuple[int, int] | None:
    diagonal = int.from_bytes(b"".join(raw[(a * s + a) * s:(a * s + a + 1) * s] for a in range(s)), "little")
    return _first_entry(_meets(s) & ~diagonal, s, 2)


def _pi4(raw: bytes, s: int) -> tuple[int, int, int] | None:
    # dia(a, b, f) <= dia(b, a, f) for all a, b is symmetry in (a, b)
    x = int.from_bytes(raw, "little")
    return _first_entry(x & ~_transpose(x, s.bit_length() - 1, 3), s)


# Each law's decider, called as LAWS[law](raw, s): None if the law holds,
# else the prefix of its first witness.
LAWS = {
    "MO1": _mo1,
    "MO2": _mo2,
    "MO3": lambda raw, s: _first_entry(_nonadditive(raw, s, s), s, 1, 8 * s * s),  # the first failing slab a
    "MO4": _mo4,
    "PI1": _pi1,
    "PI2": _pi2,
    "PI3": _pi3,
    "PI4": _pi4,
    "R1": _r1,
    "R2": _r2,
    "S": _s_below_mu,
}


@lru_cache(maxsize=1)
def distributes(raw: bytes, s: int) -> bool:
    """MO1-MO3: then dia(a, b, c) is the join of dia(u, v, c) over the
    atoms u <= a, v <= b (the empty join 0 when a or b is 0).  PI1, R1
    and R2 all read it, so the last table's verdict is kept."""
    return _mo1(raw, s) is None and not _nonadditive(raw, s, s * s) and not _nonadditive(raw, s, s)
