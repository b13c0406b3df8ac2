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

The dual frame of an operator places (u, Y) in R exactly when the filter
product generated by Y lies inside the operator preimage of u; for a
monotone operator this reduces to: the atom u sits below the operator
applied to the componentwise joins of Y.  The unreduced product sweep is
kept as a fallback for non-monotone tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import nsmallest

from .boolean_core import MAX_ATOMS, FiniteBooleanAlgebra, make_algebra
from .errors import PreconditionError, InternalCheckError, SizeCapError
from .report import CheckReport, first_violation as _first, passed
from .ternary_operator import TernaryOperator, check_3bamo, check_psi

# PIF1 sweeps (2^n - 1)^2 companion pairs per reachable triple; beyond
# four points this leaves desk scale.
PIF1_MAX_POINTS = 4


@dataclass(frozen=True)
class PsiFrame:
    """Point set {0..point_count-1} plus R as a set of (x, Y1, Y2, Y3)
    entries, the Yi being nonempty point masks."""

    point_count: int
    entries: frozenset[tuple[int, int, int, int]]

    def __post_init__(self):
        full = self.full
        for x, y1, y2, y3 in self.entries:
            if not 0 <= x < self.point_count:
                raise ValueError(f"point {x} out of range")
            for y in (y1, y2, y3):
                if y == 0 or y > full:
                    raise ValueError("relation components must be nonempty point masks")

    @property
    def full(self) -> int:
        return (1 << self.point_count) - 1

    def r_of(self, x: int) -> set[tuple[int, int, int]]:
        return {(y1, y2, y3) for (p, y1, y2, y3) in self.entries if p == x}

    def rinv(self) -> dict[tuple[int, int, int], int]:
        """Triple -> mask of points reaching it; triples absent map to 0."""
        out: dict[tuple[int, int, int], int] = {}
        for x, y1, y2, y3 in self.entries:
            key = (y1, y2, y3)
            out[key] = out.get(key, 0) | 1 << x
        return out

    def nonempty_masks(self) -> range:
        return range(1, self.full + 1)

    def closed_triples(self) -> list[tuple[int, int, int]]:
        ne = self.nonempty_masks()
        return [(y1, y2, y3) for y1 in ne for y2 in ne for y3 in ne]

    def to_json(self, compact: bool = False) -> dict:
        def pts(mask: int) -> list[int]:
            return [i for i in range(self.point_count) if mask >> i & 1]

        if compact:
            import base64

            n = 1 << self.point_count
            raw = bytearray((self.point_count * n ** 3 + 7) // 8)
            for x, y1, y2, y3 in self.entries:
                idx = ((x * n + y1) * n + y2) * n + y3
                raw[idx >> 3] |= 1 << (idx & 7)
            return {"points": self.point_count, "bits": base64.b64encode(raw).decode("ascii")}
        entries = sorted(self.entries)
        return {
            "points": self.point_count,
            "R": [[x, pts(y1), pts(y2), pts(y3)] for x, y1, y2, y3 in entries],
        }


def frame_from_json(data: dict) -> PsiFrame:
    n = int(data["points"])
    if n > MAX_ATOMS:
        raise SizeCapError(f"frame has {n} points, above the cap of {MAX_ATOMS}")
    if "bits" in data:
        import base64

        # one bit per (x, Y1, Y2, Y3), x major; a bit past the last index
        # decodes to a point x >= n, which PsiFrame refuses
        raw = base64.b64decode(data["bits"])
        full = (1 << n) - 1
        entries = set()
        for i, byte in enumerate(raw):
            while byte:
                low = byte & -byte
                byte ^= low
                idx = i << 3 | low.bit_length() - 1
                entries.add((idx >> 3 * n, idx >> 2 * n & full, idx >> n & full, idx & full))
        return PsiFrame(n, frozenset(entries))

    def mask(pts) -> int:
        m = 0
        for p in pts:
            m |= 1 << int(p)
        return m

    entries = {(int(x), mask(y1), mask(y2), mask(y3)) for x, y1, y2, y3 in data["R"]}
    return PsiFrame(n, frozenset(entries))


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


def check_psi_frame(frame: PsiFrame) -> CheckReport:
    """Check the descriptive-frame conditions.

    DF1 (clopen image) holds in any finite discrete space and is recorded
    as such.  DF2 demands each R(x) be exactly the intersection of the
    L_U it is contained in; DF3 demands a singleton witness in the first
    two coordinates of every related triple.

    That intersection holds Y exactly when some member of R(x) lies below
    Y componentwise (for the converse take U = the complement of Y), so
    DF2 says each R(x) is upward closed: every upper cover of a member
    (one more point in one coordinate) is a member.  Its witness (x, Y)
    is the least missing cover, which is also the first violation of a
    sweep of points ascending, then triples ascending.
    """
    entries, n = frame.entries, frame.point_count
    points = [1 << i for i in range(n)]
    missing_covers = (
        cover
        for x, y1, y2, y3 in entries
        for p in points
        for cover in ((x, y1 | p, y2, y3), (x, y1, y2 | p, y3), (x, y1, y2, y3 | p))
        if cover not in entries
    )
    df3 = (
        (x, y1, y2, y3)
        for x, y1, y2, y3 in sorted(entries)
        if not any(
            (x, 1 << i, 1 << j, y3) in entries
            for i in range(n)
            if y1 >> i & 1
            for j in range(n)
            if y2 >> j & 1
        )
    )
    results = (
        passed("DF1", "trivially satisfied (finite discrete space)"),
        _first("DF2", nsmallest(1, missing_covers)),
        _first("DF3", df3),
    )
    return CheckReport("psi-frame", results)


def _rinv3(rinv: dict, y1: int, y2: int, y3: int) -> int:
    if y1 == 0 or y2 == 0 or y3 == 0:
        return 0
    return rinv.get((y1, y2, y3), 0)


def check_psi_space(frame: PsiFrame) -> CheckReport:
    """Check the pseudo-inference frame conditions PIF1-PIF4 on a frame
    already passing the descriptive conditions.

    PIF1 sweeps companion pairs (Z, W) against every reachable triple;
    closure is the identity here, so cl(Z^c) is the plain complement
    (empty complement makes the last term vacuously empty).
    """
    if frame.point_count > PIF1_MAX_POINTS:
        raise SizeCapError(
            f"PIF1 sweep capped at {PIF1_MAX_POINTS} points, frame has {frame.point_count}"
        )
    frame_report = check_psi_frame(frame)
    if not frame_report.passed:
        bad = frame_report.failures()[0]
        raise PreconditionError(
            f"check_psi_space requires a descriptive frame; {bad.axiom} fails at {bad.witness}"
        )

    rinv = frame.rinv()
    reachable = sorted(rinv)
    full = frame.full
    ne = frame.nonempty_masks()
    cl_note = "closure taken as identity (finite discrete space)"

    def pif1():
        for (y1, y2, y3) in reachable:
            ry = rinv[(y1, y2, y3)]
            for z in ne:
                t1 = _rinv3(rinv, y1, y2, z)
                if ry & ~t1 == 0:
                    continue
                for w in ne:
                    cover = t1 | _rinv3(rinv, y1, y2, w) | _rinv3(
                        rinv, full ^ z, full ^ w, y3
                    )
                    if ry & ~cover:
                        yield (y1, y2, y3, z, w)

    def pif2():
        for (y1, y2, y3) in reachable:
            if y1 & y3 == 0 and rinv[(y1, y2, y3)]:
                yield (y1, y2, y3)

    def pif3():
        for y1 in ne:
            for y2 in ne:
                if (y1 & y2) & ~_rinv3(rinv, y1, y1, y2):
                    yield (y1, y2)

    def pif4():
        for (y1, y2, y3) in reachable:
            if rinv[(y1, y2, y3)] & ~_rinv3(rinv, y2, y1, y3):
                yield (y1, y2, y3)

    results = (
        _first("PIF1", pif1(), cl_note),
        _first("PIF2", pif2()),
        _first("PIF3", pif3()),
        _first("PIF4", pif4()),
    )
    return CheckReport("psi-space", results)


def dual_frame(op: TernaryOperator, monotone: bool | None = None) -> PsiFrame:
    """The frame on the atom set of the operator's algebra.

    For a monotone (3BAMO-passing) table, (u, Y) is related exactly when
    atom u lies below the operator applied to the componentwise joins of
    Y; otherwise the full filter-product sweep decides membership.
    """
    alg = op.alg
    if monotone is None:
        monotone = check_3bamo(op).passed
    n = alg.atom_count
    entries = set()
    ne = range(1, (1 << n))
    # point masks over atoms coincide with element masks of the algebra
    for y1 in ne:
        for y2 in ne:
            for y3 in ne:
                if monotone:
                    reach = op(y1, y2, y3)
                else:
                    reach = alg.top
                    for a1 in _supersets(alg, y1):
                        for a2 in _supersets(alg, y2):
                            for a3 in _supersets(alg, y3):
                                reach &= op(a1, a2, a3)
                                if reach == 0:
                                    break
                            if reach == 0:
                                break
                        if reach == 0:
                            break
                for i in range(n):
                    if reach >> i & 1:
                        entries.add((i, y1, y2, y3))
    return PsiFrame(n, frozenset(entries))


def _supersets(alg: FiniteBooleanAlgebra, y: int) -> list[int]:
    return [a for a in alg.elements() if a & y == y]


def complex_algebra(frame: PsiFrame) -> tuple[FiniteBooleanAlgebra, TernaryOperator]:
    """The powerset algebra on the frame's points with dia_R as operator.

    Requires a descriptive frame; the result is asserted to satisfy the
    monotone-operator axioms, and the pseudo-inference axioms as well when
    the frame passes the space conditions.
    """
    frame_report = check_psi_frame(frame)
    if not frame_report.passed:
        bad = frame_report.failures()[0]
        raise PreconditionError(
            f"complex_algebra requires a descriptive frame; {bad.axiom} fails at {bad.witness}"
        )
    alg = make_algebra(frame.point_count)
    size = alg.size
    table = tuple(
        diamond_r(frame, (u1, u2, u3))
        for u1 in range(size)
        for u2 in range(size)
        for u3 in range(size)
    )
    op = TernaryOperator(alg, table)
    rep = check_3bamo(op)
    if not rep.passed:
        bad = rep.failures()[0]
        raise InternalCheckError(f"complex algebra fails {bad.axiom} at {bad.witness}")
    if frame.point_count <= PIF1_MAX_POINTS and check_psi_space(frame).passed:
        rep = check_psi(op)
        if not rep.passed:
            bad = rep.failures()[0]
            raise InternalCheckError(
                f"complex algebra of a pseudo-inference space fails {bad.axiom} at {bad.witness}"
            )
    return alg, op


def is_total(frame: PsiFrame) -> tuple[bool, tuple[int, int, int] | None]:
    """Total iff every triple is reachable from all points or from none."""
    rinv = frame.rinv()
    for key in sorted(rinv):
        if rinv[key] not in (0, frame.full):
            return False, key
    return True, None


def pif2_strong_form_separation(frames: list[PsiFrame]) -> tuple[PsiFrame | None, str]:
    """Search the given frames for one where PIF2 holds but the stronger
    single-equation form (empty preimage of (Y1, Y2, complement of Y1))
    fails.  On finite discrete spaces the complement is closed, which
    makes the strong form an instance of PIF2, so no finite separation can
    exist; the scan verifies this rather than assuming it.
    """
    for frame in frames:
        if not check_psi_frame(frame).passed:
            continue
        space = check_psi_space(frame)
        if not space.result("PIF2").passed:
            continue
        rinv = frame.rinv()
        full = frame.full
        for y1 in frame.nonempty_masks():
            comp = full ^ y1
            if comp == 0:
                continue
            for y2 in frame.nonempty_masks():
                if _rinv3(rinv, y1, y2, comp):
                    return frame, "separating frame found"
    return None, (
        "no separation: with closure the identity, the strong form is an "
        "instance of the basic condition on every finite discrete frame"
    )
