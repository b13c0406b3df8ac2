"""Finite Boolean algebras as powerset algebras on named atoms.

Every finite Boolean algebra is, up to isomorphism, the powerset algebra on
its atoms, so the carrier here is the set of bitmasks over k atoms: join,
meet and complement are single int operations, filters are principal, and
ultrafilters coincide with atoms.  All values are immutable; every function
is pure.

It also holds the one plane toolkit that the other modules share.  A
table over A^3 at k atoms is read as the int of its 8**k entries, entry
(a, b, c) at offset (a*size + b)*size + c, each entry 2**lane bits wide
(lane 0: a bitset such as a relation or a frame row; lane 3: a byte table
such as an operator).  Offset bit j is bit j of c for j < k, of b below
2k and of a above.  The toolkit:

  _lacking_bits   the mask of the entries whose offset lacks one bit
  _entries, _bits a bitset as one byte per bit, and back (the codec)
  _table_of_rows  bitsets, one per bit of a value, as one byte table
  _up, _down      the subset-OR and superset-AND transforms (Knuth, TAOCP
                  4A 7.1.3) along chosen offset bits, at any lane width
  _first_entry    the offset of the lowest nonzero entry, as digits
  _permute_offsets, _transpose
                  the offset permutation: every entry moved by one
                  permutation of the 3k offset bits, by delta swaps
                  (Knuth, TAOCP 4A 7.1.3), at any lane width.  An atom
                  automorphism moves bit i of each field to bit perm[i];
                  _transpose exchanges the a and b fields, (a, b, c) to
                  (b, a, c)

and the one lane codec, for many bitsets of ``width`` bits in one int,
row i at bit i*width (the conclusion masks of a relation, the rows of a
frame, a pool of relations, and the k-bit digits of an offset):

  _pack, _unpack  rows side by side in one int, and the chosen rows back
  _repeat         one row repeated, by bytes repetition (also _lacking_bits)
  _zero_rows      which rows are zero, one flag byte per row
  _set_bits       the positions of the set bits, ascending; _set_offsets,
                  their offsets as digits, for a bitset over A^3
  _to_base64      the compact JSON form of a bitset of n bits, its
  _from_base64    (n + 7) // 8 little-endian bytes in base64, and back,
                  refusing any other byte count; base64 loads at first use
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, permutations, product

from .errors import SizeCapError
from .report import Record, cached_hash

# Hard cap on atom count: exhaustive sweeps over |A|^5 tuples and dense
# |A|^3 operator tables explode beyond this.
MAX_ATOMS = 6


class FiniteBooleanAlgebra(Record):
    """Powerset algebra on ``atom_count`` atoms.

    Elements are the ints 0 .. 2**atom_count - 1 read as atom-subset
    bitmasks; 0 is bottom and the full mask is top.  ``size`` and ``top``
    are computed on first read and kept on the instance, outside the
    fields, so repr, equality, hashing and to_json see the fields alone;
    the hash is kept there too, by cached_hash.
    """

    atom_count: int
    atom_names: tuple[str, ...]
    __hash__ = cached_hash

    @cached_property
    def size(self) -> int:
        return 1 << self.atom_count

    @cached_property
    def top(self) -> int:
        return self.size - 1

    def elements(self) -> range:
        return range(self.size)

    def atoms(self) -> list[int]:
        return [1 << i for i in range(self.atom_count)]

    def contains(self, a: int) -> bool:
        return 0 <= a < self.size

    def join(self, a: int, b: int) -> int:
        return a | b

    def meet(self, a: int, b: int) -> int:
        return a & b

    def neg(self, a: int) -> int:
        return self.top ^ a

    def leq(self, a: int, b: int) -> bool:
        return a & b == a

    def implies(self, a: int, b: int) -> int:
        return self.neg(a) | b

    def to_json(self) -> dict:
        return {"atoms": self.atom_count, "names": list(self.atom_names)}


def make_algebra(k: int, names: list[str] | None = None) -> FiniteBooleanAlgebra:
    """Build the powerset algebra on k atoms, 1 <= k <= MAX_ATOMS.

    k = 0 would be the degenerate one-element algebra (0 = 1), which is
    excluded; larger k is rejected to keep exhaustive checks desk-scale.
    """
    if k < 1:
        raise SizeCapError("degenerate algebra: need at least 1 atom")
    if k > MAX_ATOMS:
        raise SizeCapError(f"atom count {k} exceeds hard cap {MAX_ATOMS}")
    if names is None:
        names = [f"a{i}" for i in range(k)]
    # a string is refused whole, not read as the list of its characters
    strings = not isinstance(names, str) and all(isinstance(n, str) for n in names)
    if not strings or len(names) != k or len(set(names)) != k:
        raise ValueError("atom_names must be k distinct identifiers")
    return FiniteBooleanAlgebra(k, tuple(names))


def json_int(value, what: str) -> int:
    """An integer read from JSON input.  Floats, strings and booleans are
    refused rather than coerced, so 1.5 and true are not read as 1."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def algebra_from_json(data: dict) -> FiniteBooleanAlgebra:
    return make_algebra(json_int(data["atoms"], "atoms"), data.get("names"))


_BOOL_OPS = {"join": 2, "meet": 2, "neg": 1, "leq": 2, "implies": 2}


def bool_eval(alg: FiniteBooleanAlgebra, op: str, args: tuple[int, ...]):
    """Evaluate a named Boolean operation; leq returns a bool, the rest masks."""
    if op not in _BOOL_OPS:
        raise ValueError(f"unknown Boolean operation {op!r}")
    if len(args) != _BOOL_OPS[op]:
        raise ValueError(f"{op} expects {_BOOL_OPS[op]} arguments, got {len(args)}")
    for a in args:
        if not alg.contains(a):
            raise ValueError(f"element {a} outside carrier of size {alg.size}")
    return getattr(alg, op)(*args)


class Filter(Record):
    """Principal filter [generator) = {a : generator <= a}.

    In a finite Boolean algebra every filter is principal, so one element
    is enough.  generator = top gives the trivial filter {1}; generator = 0
    gives the improper filter A.
    """

    alg: FiniteBooleanAlgebra
    generator: int

    def __contains__(self, a: int) -> bool:
        return self.alg.leq(self.generator, a)

    def members(self) -> list[int]:
        g = self.generator
        return [a for a in self.alg.elements() if g & a == g]


def beta(alg: FiniteBooleanAlgebra, a: int) -> frozenset[int]:
    """Stone map: the set of ultrafilters containing a.

    Ultrafilters are identified with atoms, and an atom-ultrafilter
    contains a exactly when the atom lies below a.
    """
    if not alg.contains(a):
        raise ValueError(f"element {a} outside carrier")
    return frozenset(at for at in alg.atoms() if at & a)


def filter_to_closedset(f: Filter) -> frozenset[int]:
    """The closed set of ultrafilters extending the filter: {U : F subset U}."""
    return beta(f.alg, f.generator)


def closedset_to_filter(alg: FiniteBooleanAlgebra, ultrafilters: frozenset[int] | set[int]) -> Filter:
    """The filter of elements whose Stone image contains the given set.

    Equals the principal filter of the join of the set's atoms; the empty
    set maps to the improper filter A.
    """
    g = 0
    for at in ultrafilters:
        g |= at
    return Filter(alg, g)


@lru_cache(maxsize=None)
def _lacking_bits(n: int, g: int) -> int:
    """The n-bit mask of the bits i with i // g even, g a power of two
    dividing n / 2.  On a table over A^3 of n / 2**lane entries of
    2**lane bits each, with g = 2**(j + lane), it holds the entries whose
    offset (a*size + b)*size + c lacks bit j."""
    return _repeat((1 << g) - 1, 2 * g, n // (2 * g))


def _up(x: int, k: int, bits, lane: int = 0) -> int:
    """The subset-OR transform of x, read as a table over A^3 at k atoms of
    2**lane-bit entries, along the given offset bits: each entry becomes
    the OR of the entries whose offsets lie below its own in those bits
    and agree in the rest.  One shift and mask per bit."""
    n = 8 ** k << lane
    for j in bits:
        g = 1 << j + lane
        x |= (x & _lacking_bits(n, g)) << g
    return x


def _down(x: int, k: int, bits, lane: int = 0) -> int:
    """The superset-AND transform, the dual of _up: each entry becomes the
    AND of the entries whose offsets lie above its own in the given bits
    and agree in the rest."""
    n = 8 ** k << lane
    full = (1 << n) - 1  # full ^ lacking, a positive mask, is faster to OR with than ~lacking
    for j in bits:
        g = 1 << j + lane
        x &= x >> g | _lacking_bits(n, g) ^ full
    return x


def _entries(bits: int, n: int, values: bytes) -> bytes:
    """The bitset's n bits as n bytes, bit i at byte i: values[0] where
    the bit is clear, values[1] where it is set."""
    return format(bits, f"0{n}b")[::-1].encode().translate(bytes.maketrans(b"01", values))


@lru_cache(maxsize=None)
def _digits(mask: int, want: int) -> bytes:
    """Translation of each byte v to the binary digit of v & mask == want."""
    return bytes(48 + (v & mask == want) for v in range(256))


def _bits(raw: bytes, mask: int, want: int) -> int:
    """The inverse of _entries: the bitset with bit i set iff byte i of
    raw, ANDed with mask, is want (mask 255 and want 0: the zero bytes)."""
    return int(raw.translate(_digits(mask, want))[::-1], 2)


def _table_of_rows(k: int, rows) -> bytes:
    """The byte table over A^3 at k atoms whose entry j holds bit x
    exactly when bit j of rows[x] is set: the inverse of reading each
    row off the table with _bits(table, 1 << x, 1 << x)."""
    n, table = 8 ** k, 0
    for x, r in enumerate(rows):
        table |= int.from_bytes(_entries(r, n, bytes((0, 1 << x))), "little")
    return table.to_bytes(n, "little")


def _first_entry(fails: int, size: int, places: int = 3, width: int = 8) -> tuple[int, ...] | None:
    """The lowest nonzero entry of ``fails``, read as entries of ``width``
    bits: its index as ``places`` digits base size, a power of two, most
    significant first (the (a, b, c) of a byte table over A^3 by default);
    None if fails is 0.  The digits are the index's lanes of log2(size)
    bits, as _unpack reads them."""
    if not fails:
        return None
    i = ((fails & -fails).bit_length() - 1) // width
    return tuple(_unpack(i, size.bit_length() - 1, range(places - 1, -1, -1)))


@lru_cache(maxsize=None)
def _swaps(k: int, moves: tuple[int, ...], lane: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps (shift, mask) of _permute_offsets: the permutation
    as at most 3k - 1 transpositions of offset bits p < q, each mask the
    entries whose offset holds bit p and lacks bit q, the lower entry of
    each pair that the transposition exchanges."""
    n = 8 ** k << lane
    at = list(range(3 * k))  # at[p]: the offset bit whose entries offset bit p holds now
    swaps = []
    for p in range(3 * k):
        q = at.index(moves.index(p))  # offset bit j belongs at bit moves[j]
        if q != p:
            at[p], at[q] = at[q], at[p]
            low, high = 1 << p + lane, 1 << q + lane
            swaps.append((high - low, _lacking_bits(n, high) & ~_lacking_bits(n, low)))
    return tuple(swaps)


def _permute_offsets(x: int, k: int, moves: tuple[int, ...], lane: int = 0) -> int:
    """x read as a table over A^3 at k atoms of 2**lane-bit entries, with
    every entry moved to the offset that has bit j of its own offset at
    bit moves[j], for each of the 3k offset bits j: one delta swap per
    transposition of offset bits."""
    for shift, mask in _swaps(k, moves, lane):
        t = (x >> shift ^ x) & mask
        x ^= t | t << shift
    return x


def _transpose(x: int, k: int, lane: int = 0) -> int:
    """The table with entry (a, b, c) moved to (b, a, c): the offset bits
    of a and b exchanged."""
    return _permute_offsets(x, k, (*range(k), *range(2 * k, 3 * k), *range(k, 2 * k)), lane)


def _pack(rows, width: int) -> int:
    """The int with rows[i], each below 2**width, at bit i*width: the
    rows side by side, the first lowest."""
    if width % 8:
        return sum(r << i * width for i, r in enumerate(rows))
    step = width >> 3
    return int.from_bytes(b"".join(r.to_bytes(step, "little") for r in rows), "little")


def _unpack(x: int, width: int, rows) -> list[int]:
    """Row i of x, the width bits from bit i*width, for each index i in
    ``rows``, in that order: the inverse of _pack.  Only the chosen rows
    are read, and a row above the highest set bit of x reads 0."""
    if width % 8:
        mask = (1 << width) - 1
        return [x >> i * width & mask for i in rows]
    step = width >> 3
    raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
    return [int.from_bytes(raw[i * step:i * step + step], "little") for i in rows]


def _repeat(row: int, width: int, count: int) -> int:
    """_pack([row] * count, width), by bytes repetition: the row doubled
    up to whole bytes, then its bytes repeated."""
    if width % 8:
        if count % 2:
            return _repeat(row, width, count - 1) | row << (count - 1) * width
        return _repeat(row | row << width, 2 * width, count >> 1)
    return int.from_bytes(row.to_bytes(width >> 3, "little") * count, "little")


_ZERO_FLAGS = b"\x01" + bytes(255)  # bytes.translate: 1 for a zero byte, else 0


def _zero_rows(x: int, width: int, count: int) -> bytes:
    """Byte i is 1 iff row i of x is zero, for count rows of width bits,
    a power of two of at least 8: each row's lowest byte becomes the OR
    of its bytes, one shift per halving, and those bytes are read."""
    shift = width
    while shift > 8:
        shift >>= 1
        x |= x >> shift
    return x.to_bytes(count * width >> 3, "little")[::width >> 3].translate(_ZERO_FLAGS)


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending: the positions of
    the 1 bytes of _entries(x)."""
    return list(compress(range(x.bit_length()), _entries(x, x.bit_length(), b"\x00\x01")))


def _set_offsets(x: int, size: int):
    """The offsets of the set bits of x, a bitset over A^3 at size, as
    digits (a, b, c), ascending: every offset's digits in order, selected
    at C speed by _entries(x)."""
    return compress(product(range(size), repeat=3), _entries(x, size ** 3, b"\x00\x01"))


def _to_base64(x: int, n: int) -> str:
    """The compact form of an n-bit bitset: its (n + 7) // 8 bytes,
    little-endian, in base64."""
    import base64

    return base64.b64encode(x.to_bytes((n + 7) >> 3, "little")).decode("ascii")


def _from_base64(text, n: int) -> int:
    """The n-bit bitset of a compact form.  A character outside the base64
    alphabet, or bad padding, raises binascii.Error, a ValueError; so does
    a byte count other than (n + 7) // 8."""
    import base64

    raw = base64.b64decode(text, validate=True)
    if len(raw) != (n + 7) >> 3:
        raise ValueError(f"compact bits: byte count {len(raw)} is out of range for {n} bits, which need {(n + 7) >> 3}")
    return int.from_bytes(raw, "little")


def automorphisms(alg: FiniteBooleanAlgebra) -> list[tuple[int, ...]]:
    """All atom permutations, each given as a tuple perm with perm[i] = image index."""
    return [tuple(p) for p in permutations(range(alg.atom_count))]


def apply_automorphism(alg: FiniteBooleanAlgebra, perm: tuple[int, ...], a: int) -> int:
    """Extend an atom permutation to an element by permuting mask bits."""
    return sum(1 << perm[i] for i in _set_bits(a))
