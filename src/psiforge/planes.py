"""Plane verdicts: the operator laws decided by whole-table tests.

Every table entry is below 2**MAX_ATOMS <= 256, so a table is the byte
string raw = bytes(op.table), entry (a, b, c) at byte (a*s + b)*s + c with
s = |A|, and the integer X read from it little-end first.  Adding an atom
u to a coordinate that lacks it moves an entry u*w bytes up, where w is
the coordinate's stride (s*s for a, s for b, 1 for c), so one shift of X,
masked to the entries whose coordinate lacks u, lines each entry up with
its cover.  Rows are copied across by bytes repetition, and P <= Q, entry
by entry, is tested as P & Q == P.  Each test decides its law over the
whole table at once, with no loop over tuples, except PI1, R1 and R2,
tested one (a, b) row or column at a time: on the atom pairs alone and,
for R2, as one bound, where MO1-MO3 hold, and on every row or column
otherwise.  Every verdict is exact on every table.  The laws' sentences,
and the witnesses, are in ternary_operator, which loads this module when
it first checks a law.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

from .boolean_core import _lacking_bits


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
    return tuple(int.from_bytes(bytes((v,)) * (s * s), "little") for v in range(s))


def _row(raw: bytes, s: int, a: int, b: int) -> bytes:
    """dia(a, b, c) over c."""
    start = (a * s + b) * s
    return raw[start:start + s]


def _spread(row: bytes, times: int) -> bytes:
    """Each byte of row repeated ``times`` times."""
    return b"".join(bytes((v,)) * times for v in row)


def _mo1(raw: bytes, s: int) -> bool:
    s2 = s * s
    zero = bytes(s2)
    first_rows = b"".join(raw[a * s2:a * s2 + s] for a in range(s))
    return raw[:s2] == zero and first_rows == zero and raw[::s] == zero


def _additive(raw: bytes, s: int, w: int) -> bool:
    """dia is additive in its coordinate of stride w (s*s: MO2, s: MO3):
    dia at x or u is dia at x or dia at u, for each atom u and each x
    lacking u."""
    n, x = len(raw), int.from_bytes(raw, "little")
    for i in _atom_bits(s):
        block = w << i
        low = x & _lacking_bits(8 * n, 8 * block)  # the entries whose coordinate lacks u
        # dia at u, wherever the coordinate holds u, and 0 elsewhere
        at_u = b"".join(
            (bytes(block) + raw[o + block:o + block + w] * (1 << i)) * (s >> (i + 1)) for o in range(0, n, s * w)
        )
        if (low << 8 * block) | int.from_bytes(at_u, "little") | low != x:
            return False
    return True


def _monotone_in_c(raw: bytes, s: int) -> bool:
    """MO4: dia(a, b, c) <= dia(a, b, c or u) for each atom u."""
    n, x = len(raw), int.from_bytes(raw, "little")
    for i in _atom_bits(s):
        up = (x & _lacking_bits(8 * n, 8 << i)) << (8 << i)
        if up & x != up:
            return False
    return True


def _pairs(raw: bytes, s: int):
    """The (a, b) rows that decide PI1 and R1: the atom pairs where MO1-MO3
    hold, as each row dia(a, b, .) is then the join of the rows at the
    atoms below a and b, and every pair otherwise."""
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


def _rows_below(rows, bound: bytes, s: int) -> bool:
    """row(a) and not row(b) <= bound(a and not b) for each distinct row,
    on the (a, b) grid."""
    fixed = int.from_bytes(_differences(s).translate(bound + bytes(256 - s)), "little")
    for row in dict.fromkeys(rows):
        lhs = int.from_bytes(_spread(row, s), "little")
        if lhs & (int.from_bytes(row * s, "little") | fixed) != lhs:
            return False
    return True


def _r1(raw: bytes, s: int) -> bool:
    """dia(x, y, a) and not dia(x, y, b) <= dia(1, 1, a and not b) on the
    rows (x, y) of _pairs."""
    return _rows_below((_row(raw, s, x, y) for x, y in _pairs(raw, s)), _row(raw, s, s - 1, s - 1), s)


def _r2(raw: bytes, s: int) -> bool:
    """R2 on each column (x, y) on the (a, b) grid; where MO1-MO3 hold, the
    one bound dia(x, a, y) <= dia(1, a, 1) (see check_strict)."""
    s2, top = s * s, s - 1
    middle = raw[top * s2 + top:s2 * s:s]  # dia(1, a, 1) over a
    if distributes(raw, s):
        x = int.from_bytes(raw, "little")
        return int.from_bytes(_spread(middle, s) * s, "little") & x == x
    return _rows_below((raw[x * s2 + y:(x + 1) * s2:s] for x in range(s) for y in range(s)), middle, s)


def _s_below_mu(raw: bytes, s: int) -> bool:
    """dia(a, b, c) <= mu(dia(a, b, c)), reading mu off the table."""
    s2, top = s * s, s - 1
    ones, middle = _row(raw, s, top, top), raw[top * s2 + top:s2 * s:s]
    mu_of = bytes(top ^ (ones[top ^ z] | middle[top ^ z]) for z in range(s)) + bytes(256 - s)
    x = int.from_bytes(raw, "little")
    return int.from_bytes(raw.translate(mu_of), "little") & x == x


def _pi2(raw: bytes, s: int) -> bool:
    s2, top = s * s, s - 1
    return b"".join(raw[a * s2 + (top ^ a):(a + 1) * s2:s] for a in range(s)) == bytes(s2)


def _pi3(raw: bytes, s: int) -> bool:
    diagonal = int.from_bytes(b"".join(raw[(a * s + a) * s:(a * s + a + 1) * s] for a in range(s)), "little")
    meets = _meets(s)
    return diagonal & meets == meets


def _pi4(raw: bytes, s: int) -> bool:
    # dia(a, b, f) <= dia(b, a, f) for all a, b is symmetry in (a, b)
    return raw == b"".join(raw[(b * s + a) * s:(b * s + a + 1) * s] for a in range(s) for b in range(s))


# The plane verdict of each law, called as test(raw, s).
LAWS = {
    "MO1": _mo1,
    "MO2": lambda raw, s: _additive(raw, s, s * s),
    "MO3": lambda raw, s: _additive(raw, s, s),
    "MO4": _monotone_in_c,
    "PI1": lambda raw, s: pi1_failure(raw, s, _pairs(raw, s)) is None,
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
    return all(LAWS[ax](raw, s) for ax in ("MO1", "MO2", "MO3"))
