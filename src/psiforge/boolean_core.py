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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

from .errors import SizeCapError

# Hard cap on atom count: exhaustive sweeps over |A|^5 tuples and dense
# |A|^3 operator tables explode beyond this.
MAX_ATOMS = 6


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Powerset algebra on ``atom_count`` atoms.

    Elements are the ints 0 .. 2**atom_count - 1 read as atom-subset
    bitmasks; 0 is bottom and the full mask is top.  ``size`` and ``top``
    are computed on first read and kept on the instance, outside the
    fields, so repr, equality, hashing and to_json see the fields alone.
    """

    atom_count: int
    atom_names: tuple[str, ...]

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

    def xor(self, a: int, b: int) -> int:
        return a ^ b

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
    if len(names) != k or len(set(names)) != k:
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
    if op == "join":
        return alg.join(*args)
    if op == "meet":
        return alg.meet(*args)
    if op == "neg":
        return alg.neg(args[0])
    if op == "leq":
        return alg.leq(*args)
    return alg.implies(*args)


@dataclass(frozen=True)
class Filter:
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

    @property
    def is_trivial(self) -> bool:
        return self.generator == self.alg.top

    @property
    def is_improper(self) -> bool:
        return self.generator == 0


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


def filter_closedset_maps(alg: FiniteBooleanAlgebra, value):
    """Dispatch between the two mutually inverse antitone maps."""
    if isinstance(value, Filter):
        return filter_to_closedset(value)
    return closedset_to_filter(alg, value)


@lru_cache(maxsize=None)
def _lacking_bits(n: int, g: int) -> int:
    """The n-bit mask of the bits i with i // g even, g a power of two,
    built by bytes repetition.  On a table over A^3 of n / 2**lane entries
    of 2**lane bits each, with g = 2**(j + lane), it holds the entries
    whose offset (a*size + b)*size + c lacks bit j."""
    pattern, width = (1 << g) - 1, 2 * g
    while width < 8:
        pattern |= pattern << width
        width *= 2
    return int.from_bytes(pattern.to_bytes(width // 8, "little") * (n // width), "little")


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
    bits: its index as ``places`` digits base size, most significant first
    (the (a, b, c) of a byte table over A^3 by default); None if fails is 0."""
    if not fails:
        return None
    i = ((fails & -fails).bit_length() - 1) // width
    return tuple(i // size ** p % size for p in range(places - 1, -1, -1))


def automorphisms(alg: FiniteBooleanAlgebra) -> list[tuple[int, ...]]:
    """All atom permutations, each given as a tuple perm with perm[i] = image index."""
    return [tuple(p) for p in permutations(range(alg.atom_count))]


def apply_automorphism(alg: FiniteBooleanAlgebra, perm: tuple[int, ...], a: int) -> int:
    """Extend an atom permutation to an element by permuting mask bits."""
    out = 0
    for i in range(alg.atom_count):
        if a >> i & 1:
            out |= 1 << perm[i]
    return out
