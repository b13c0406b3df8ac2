"""Descriptive frames for ternary modal operators: the dual frame of an
operator, the complex algebra of a frame, and the frame-side axiom checks.

A frame is a finite point set X together with a relation R from points to
triples of nonempty subsets of X.  Finite Stone spaces are discrete, so
every subset is clopen and closed: DF1 holds automatically (reported as
such, not swept), closure is the identity, and the nonempty closed sets
are exactly the nonempty subsets.

Conventions.  Subsets of X are bitmasks over point indices.  For a triple
U and a family R(x):

  L_U          all nonempty-subset triples Y meeting U in some coordinate
  dia_R(U)     points x with some Y in R(x) below U componentwise
  box_R(U)     points x with R(x) contained in L_U

R is stored as one bitset per point over the operator-table index
(y1*s + y2)*s + y3, s = 2**points (PsiFrame.rows): a table over A^3 at
n atoms, one bit per entry, in the layout of the plane toolkit of module
boolean_core; the (x, Y1, Y2, Y3) entries are a view read off it, a
row's triples listed by the lane codec's _set_offsets.
Adding a point to one coordinate sets one of the 3n index bits, so
"every triple above Y" and "some triple below U" are the toolkit's
superset-AND and subset-OR transforms, _down and _up, over those bits:
one shift and mask per index bit acts on every triple at once.  The dual
frame of an operator places (u, Y) in R exactly when the filter product
generated by Y lies inside the operator preimage of u, the superset-AND
transform of the entries holding u; the complex algebra's dia_R is the
subset-OR transform of each R(x); and DF2 and DF3 compare the same
bitsets with their subset-OR transforms.  The space conditions PIF1-PIF4
and totality read the reach table, whose entry j is the mask of points
reaching triple j (PsiFrame.reach, built once per frame).  Read as an
operator table on the point sets, it is upward closed and 0 at any
empty coordinate on a frame with DF2, and there PIF1-PIF4 hold exactly
when PI1-PI4 hold of it (see check_psi_space), so the deciders of module
planes decide them at every size; and the frame is total exactly when
the table is relational, each entry 0 or every point, which
is_relational's mark test decides.
diamond_r and box_r keep the per-triple definitions.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .boolean_core import (
    MAX_ATOMS,
    FiniteBooleanAlgebra,
    _bits,
    _down,
    _first_entry,
    _from_base64,
    _pack,
    _set_bits,
    _set_offsets,
    _table_of_rows,
    _to_base64,
    _unpack,
    _up,
    json_int,
    make_algebra,
)
from .errors import PreconditionError, InternalCheckError, SizeCapError
from .report import CheckReport, Record, cached_hash, result, run_memo
from .ternary_operator import TernaryOperator, _non_relational, check_3bamo, check_psi


class PsiFrame(Record):
    """Point set {0..point_count-1} plus R, stored as one bitset per point:
    bit (y1*s + y2)*s + y3 of rows[x], s = 2**point_count, is set exactly
    when x reaches the triple (Y1, Y2, Y3) of nonempty point masks.

    PsiFrame(n, entries) lays out an iterable of (x, Y1, Y2, Y3) entries;
    the entries property reads them back."""

    point_count: int
    rows: tuple[int, ...]
    __hash__ = cached_hash

    def __init__(self, point_count: int, entries):
        n, full = point_count, (1 << point_count) - 1
        cells = [[0] * (1 << 2 * n) for _ in range(n)]  # per point, the Y3 mask at each (Y1, Y2)
        for x, y1, y2, y3 in entries:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range")
            if not (0 < y1 <= full and 0 < y2 <= full and 0 < y3 <= full):
                raise ValueError("relation components must be nonempty point masks")
            cells[x][y1 << n | y2] |= 1 << y3
        object.__setattr__(self, "point_count", n)
        object.__setattr__(self, "rows", tuple(_pack(c, 1 << n) for c in cells))

    @classmethod
    def _of_rows(cls, point_count: int, rows) -> "PsiFrame":
        """The frame with the given bitsets, one per point; a bit at a
        triple with an empty coordinate is refused."""
        rows = tuple(rows)
        nonempty = _index_masks(point_count)[0]
        if any(r & ~nonempty for r in rows):
            raise ValueError("relation components must be nonempty point masks")
        frame = cls.__new__(cls)
        object.__setattr__(frame, "point_count", point_count)
        object.__setattr__(frame, "rows", rows)
        return frame

    @cached_property
    def reach(self) -> bytes:
        """The reach table: the byte table over A^3 at point_count atoms
        whose entry j is the mask of the points reaching triple j, 0 at a
        triple with an empty coordinate.  Built on first read and kept on
        the frame, so the space checks and totality share one table."""
        return _table_of_rows(self.point_count, self.rows)

    @cached_property
    def entries(self) -> frozenset[tuple[int, int, int, int]]:
        """R as a set of (x, Y1, Y2, Y3) entries."""
        return frozenset((x, *y) for x, r in enumerate(self.rows) for y in _set_offsets(r, 1 << self.point_count))

    @property
    def full(self) -> int:
        return (1 << self.point_count) - 1

    def nonempty_masks(self) -> range:
        return range(1, self.full + 1)

    def closed_triples(self) -> list[tuple[int, int, int]]:
        ne = self.nonempty_masks()
        return [(y1, y2, y3) for y1 in ne for y2 in ne for y3 in ne]

    def to_json(self, compact: bool = False) -> dict:
        if compact:
            # x major, 8**points bits per point
            width = 1 << 3 * self.point_count
            return {"points": self.point_count, "bits": _to_base64(_pack(self.rows, width), len(self.rows) * width)}
        n = self.point_count
        pts = [_set_bits(mask) for mask in range(1 << n)]
        # points ascending, then triple indices ascending: sorted entry order
        return {
            "points": n,
            "R": [
                [x, pts[y1], pts[y2], pts[y3]]
                for x, r in enumerate(self.rows)
                for y1, y2, y3 in _set_offsets(r, 1 << n)
            ],
        }


def frame_from_json(data: dict) -> PsiFrame:
    n = json_int(data["points"], "points")
    if n < 1:
        # its complex algebra, the powerset of no points, would have 0 = 1
        raise ValueError(f"frame has {n} points: degenerate algebra, need at least 1 point")
    if n > MAX_ATOMS:
        raise SizeCapError(f"frame has {n} points, above the cap of {MAX_ATOMS}")
    if "bits" in data and "R" in data:
        raise ValueError("frame gives both bits and R; give one form")
    if "bits" in data:
        # one bit per (x, Y1, Y2, Y3), x major, 8**n bits per point
        width = 1 << 3 * n
        return PsiFrame._of_rows(n, _unpack(_from_base64(data["bits"], n * width), width, range(n)))

    def point(p) -> int:
        if not 0 <= json_int(p, "point") < n:
            raise ValueError(f"point {p} out of range")
        return p

    def mask(pts) -> int:
        m = 0
        for p in pts:
            # a valid point inline; point() names the fault of any other
            m |= 1 << (p if type(p) is int and 0 <= p < n else point(p))
        return m

    return PsiFrame(n, [(point(x), mask(y1), mask(y2), mask(y3)) for x, y1, y2, y3 in data["R"]])


@lru_cache(maxsize=None)
def _index_masks(n: int) -> tuple[int, int]:
    """Masks over the triple index at n points: the triples with every
    coordinate nonempty, and those with Y1 and Y2 singletons and Y3
    nonempty; the up-closures, over every index bit and over Y3's, of the
    triples of single points."""
    atoms = [1 << i for i in range(n)]
    points = sum(1 << ((y1 << n | y2) << n | y3) for y1 in atoms for y2 in atoms for y3 in atoms)
    return _up(points, n, range(3 * n)), _up(points, n, range(n))


@lru_cache(maxsize=None)
def _meets_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """meets[coord][y]: the triple indices at n points whose coordinate
    coord (0 for Y1) meets the point mask y, the up-closure of the
    triples holding one point of y there and nothing elsewhere."""
    return tuple(
        tuple(_up(sum(1 << (1 << i << shift) for i in range(n) if y >> i & 1), n, range(3 * n)) for y in range(1 << n))
        for shift in (2 * n, n, 0)
    )


def in_l_set(u: tuple[int, int, int], y: tuple[int, int, int]) -> bool:
    return bool(y[0] & u[0] or y[1] & u[1] or y[2] & u[2])


def l_set(frame: PsiFrame, u: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    """L_U: the nonempty-subset triples meeting U in at least one coordinate."""
    return {y for y in frame.closed_triples() if in_l_set(u, y)}


def diamond_r(frame: PsiFrame, u: tuple[int, int, int]) -> int:
    """Points x such that R(x) escapes L over the complement of U; this
    unfolds to: some Y in R(x) lies below U componentwise."""
    out = 0
    for x, y1, y2, y3 in frame.entries:
        if y1 & u[0] == y1 and y2 & u[1] == y2 and y3 & u[2] == y3:
            out |= 1 << x
    return out


def box_r(frame: PsiFrame, u: tuple[int, int, int]) -> int:
    """Points x whose whole family R(x) meets U somewhere."""
    out = frame.full
    for x, y1, y2, y3 in frame.entries:
        if not in_l_set(u, (y1, y2, y3)):
            out &= ~(1 << x) & frame.full
    return out


def diamond_table(frame: PsiFrame) -> tuple[int, ...]:
    """diamond_r at every triple U, in operator-table order: each R(x)
    closed under the subset-OR transform holds the U above some member."""
    n = frame.point_count
    return tuple(_table_of_rows(n, [_up(r, n, range(3 * n)) for r in frame.rows]))


def box_table(frame: PsiFrame) -> tuple[int, ...]:
    """box_r at every triple U, in operator-table order, from its own
    definition R(x) <= L_U: point x's row is the meet, over the members Y
    of R(x), of the triples meeting Y in some coordinate."""
    n = frame.point_count
    m1, m2, m3 = _meets_masks(n)
    rows = [(1 << (1 << 3 * n)) - 1] * n
    for x, r in enumerate(frame.rows):
        for y1, y2, y3 in _set_offsets(r, 1 << n):
            rows[x] &= m1[y1] | m2[y2] | m3[y3]
    return tuple(_table_of_rows(n, rows))


@run_memo
def check_psi_frame(frame: PsiFrame) -> CheckReport:
    """Check the descriptive-frame conditions.

    DF1 (clopen image) holds in any finite discrete space and is recorded
    as such.  DF2 demands each R(x) be exactly the intersection of the
    L_U it is contained in; DF3 demands a singleton witness in the first
    two coordinates of every related triple.

    That intersection holds Y exactly when some member of R(x) lies below
    Y componentwise (for the converse take U = the complement of Y), so
    DF2 says each R(x) is upward closed: its subset-OR transform over all
    3n index bits adds nothing.  The least triple it adds is also the
    least upper cover of a member (one more point in one coordinate) that
    is missing, as a triple lies above the first step out of R(x) on any
    chain up to it.  DF3 says R(x) lies inside the up-closure, over the
    first two coordinates, of its members with singleton Y1 and Y2.  Each
    witness (x, Y) is the least violation, points ascending, then triples
    ascending: the lowest bit of the first point's violation mask.
    """
    n = frame.point_count
    singles = _index_masks(n)[1]
    df2 = df3 = None
    for x, r in enumerate(frame.rows):
        missing = _up(r, n, range(3 * n)) ^ r
        if missing and df2 is None:
            df2 = (x, *_first_entry(missing, 1 << n, 3, 1))
        lacking = r & ~_up(r & singles, n, range(n, 3 * n))
        if lacking and df3 is None:
            df3 = (x, *_first_entry(lacking, 1 << n, 3, 1))
    results = (
        result("DF1", None, "trivially satisfied (finite discrete space)"),
        result("DF2", df2),
        result("DF3", df3),
    )
    return CheckReport("psi-frame", results)


def check_psi_space(frame: PsiFrame) -> CheckReport:
    """Check the pseudo-inference frame conditions PIF1-PIF4, exactly at
    every size, on a frame already passing the descriptive conditions.

    Closure is the identity here, so PIF1 says: the points reaching a
    triple Y reach (Y1, Y2, Z), (Y1, Y2, W) or (not Z, not W, Y3), for all
    nonempty Z and W.  On frame.reach read as an operator table, that
    is PI1 at (a, b, f) = Y, d = not Z, e = not W, less the instances with
    d or e the top.  With DF2 the table is upward closed and 0 at any
    empty coordinate, so at each (Y1, Y2) those instances add nothing: a
    failure at d = top fails at Z = W = not e as well, since (e, e, f) lies
    below (top, e, f); one at e = top fails at Z = W = not d; and
    d = e = top never fails.  So PIF1 is decided by the PI1 row test of
    module planes on the table's bytes (DF3 makes the table additive in
    its first two coordinates, so the test reads the atom pairs only, and a
    failing pair lies above a failing atom pair): its first failing pair,
    ascending, is PIF1's first failing (Y1, Y2), swept over (Y3, Z, W),
    ascending, to name the witness.  PIF2-PIF4 are decided by the PI2-PI4
    deciders of planes.LAWS on the same table.  PIF3 and PIF4 are PI3 and
    PI4 read on it, witness for witness.  PIF2 says no reached triple has
    Y3 disjoint from Y1; with DF2 such a triple lies below the reached
    (Y1, Y2, not Y1), where PI2 fails, so PIF2's first witness lies in
    PI2's first failing (Y1, Y2) row, at the least reached Y3 disjoint
    from Y1.
    """
    check_psi_frame(frame).require(PreconditionError, "check_psi_space requires a descriptive frame")
    # imported at first use: the other frame verbs check no operator law
    from .planes import LAWS, _pairs, _row, pi1_failure

    n, full, s, reach = frame.point_count, frame.full, 1 << frame.point_count, frame.reach
    ne = frame.nonempty_masks()
    cl_note = "closure taken as identity (finite discrete space)"

    def pif1_witness(y1, y2):
        base = (y1 << n | y2) << n  # the index of (Y1, Y2, 0)
        for y3 in ne:
            ry = reach[base | y3]
            for z in ne:
                t1 = reach[base | z]
                if ry & ~t1 == 0:
                    continue
                for w in ne:
                    if ry & ~(t1 | reach[base | w] | reach[((full ^ z) << n | full ^ w) << n | y3]):
                        return (y1, y2, y3, z, w)
        raise InternalCheckError.no_witness("PIF1", (y1, y2))

    pair = pi1_failure(reach, s, _pairs(reach, s))
    pif = [LAWS[f"PI{i}"](reach, s) for i in (2, 3, 4)]
    if pif[0] is not None:
        y1, y2 = pif[0]
        pif[0] += (next(y3 for y3, m in enumerate(_row(reach, s, y1, y2)) if m and not y3 & y1),)
    results = (
        result("PIF1", None if pair is None else pif1_witness(*pair), cl_note),
        *(result(f"PIF{i}", w) for i, w in zip((2, 3, 4), pif)),
    )
    return CheckReport("psi-space", results)


@run_memo
def dual_frame(op: TernaryOperator) -> PsiFrame:
    """The frame on the atom set of the operator's algebra: (u, Y) is
    related exactly when atom u lies below the operator at every triple
    above Y componentwise (the filter product generated by Y lies inside
    the preimage of u).

    For each atom, the superset-AND transform of the bitset of table
    entries holding it gives that set of triples, masked to those with
    every coordinate nonempty; monotone and other tables take this one
    path.
    """
    n, raw = op.alg.atom_count, bytes(op.table)  # entries lie below 2**MAX_ATOMS <= 256
    nonempty = _index_masks(n)[0]
    return PsiFrame._of_rows(n, [_down(_bits(raw, 1 << i, 1 << i), n, range(3 * n)) & nonempty for i in range(n)])


def complex_algebra(frame: PsiFrame) -> tuple[FiniteBooleanAlgebra, TernaryOperator]:
    """The powerset algebra on the frame's points with dia_R as operator.

    Requires a descriptive frame; the result is asserted to satisfy the
    monotone-operator axioms, and the pseudo-inference axioms as well when
    the frame passes the space conditions.
    """
    check_psi_frame(frame).require(PreconditionError, "complex_algebra requires a descriptive frame")
    alg = make_algebra(frame.point_count)
    op = TernaryOperator(alg, diamond_table(frame))
    check_3bamo(op).require(InternalCheckError, "the complex algebra fails check_3bamo")
    psi = check_psi(op)  # a failure is an error only on a pseudo-inference space, so only it needs the space check
    if not psi.passed and check_psi_space(frame).passed:
        psi.require(InternalCheckError, "the complex algebra of a pseudo-inference space fails check_psi")
    return alg, op


def is_total(frame: PsiFrame) -> tuple[bool, tuple[int, int, int] | None]:
    """Total iff every triple is reachable from all points or from none:
    the reach table, read as an operator table, is relational (the first
    triple reached by some points but not all is is_relational's witness)."""
    first = _non_relational(frame.reach, frame.full)
    return first is None, first


def pif2_strong_form_separates(frame: PsiFrame) -> bool:
    """Whether the frame separates PIF2 from its stronger single-equation
    form: the frame is a PSI frame where PIF2 holds, yet some (Y1, Y2,
    complement of Y1) has a nonempty preimage.  No finite frame can: with
    closure the identity on a finite discrete space, the complement of Y1
    is closed, so the strong form is an instance of PIF2.  The scan
    verifies this rather than assuming it.
    """
    if not check_psi_frame(frame).passed or not check_psi_space(frame).result("PIF2").passed:
        return False
    n, full, reach = frame.point_count, frame.full, frame.reach
    return any(
        reach[(y1 << n | y2) << n | full ^ y1]
        for y1 in frame.nonempty_masks()
        if y1 != full
        for y2 in frame.nonempty_masks()
    )
