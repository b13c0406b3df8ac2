"""Boolean homomorphisms between finite algebras, the operator-morphism
classes (semi / hemi / full), their dual frame maps, and the entailment
morphism classes (reflecting / preserving / similarity).

Finite Stone duality for maps: a homomorphism h from A to B is stored by
its dual atom map, sending each atom of B to an atom of A; h itself is
recovered as h(a) = {t in atoms(B) : atom_map(t) <= a}.  Every atom map
induces a homomorphism, so construction cannot fail and the preservation
check is a self-check.

Duality of morphisms.  With f = h^{-1} mapping the dual frame of the
TARGET algebra to the dual frame of the SOURCE, the semi inequality
(h dia <= dia h) corresponds to the existential lifting condition Sp3 on
f, and the hemi inequality to the forward preservation condition Sp2.
The two named map classes (semi-PSI = Sp1+Sp2, hemi-PSI = Sp1+Sp3) thus
pair up crosswise with the algebra classes; morphism_duality_check asserts
exactly this proved pairing.  Under the identification of atoms with the
points of the dual frame, the dual point map f is h.atom_map itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .boolean_core import FiniteBooleanAlgebra, _bits, _entries, _first_entry, _set_offsets, _up
from .contact_relation import TernaryRelation, _require_eca, rel_to_op
from .duality_frames import PsiFrame, dual_frame
from .errors import InternalCheckError
from .report import AxiomResult, CheckReport, first_violation as _first, result
from .ternary_operator import TernaryOperator, _require_psi


@dataclass(frozen=True)
class BooleanHom:
    """Homomorphism source -> target via its dual atom map.

    atom_map[t] is the source-atom index assigned to target atom t.
    """

    source: FiniteBooleanAlgebra
    target: FiniteBooleanAlgebra
    atom_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.atom_map) != self.target.atom_count:
            raise ValueError("atom_map must cover every target atom")
        for i in self.atom_map:
            if not 0 <= i < self.source.atom_count:
                raise ValueError(f"atom index {i} outside source atoms")

    def __call__(self, a: int) -> int:
        out = 0
        for t, i in enumerate(self.atom_map):
            if a >> i & 1:
                out |= 1 << t
        return out

    @property
    def is_bijective(self) -> bool:
        return (
            self.source.atom_count == self.target.atom_count
            and len(set(self.atom_map)) == self.target.atom_count
        )

    def inverse(self) -> "BooleanHom":
        if not self.is_bijective:
            raise ValueError("only bijective homomorphisms invert")
        inv = [0] * self.source.atom_count
        for t, i in enumerate(self.atom_map):
            inv[i] = t
        return BooleanHom(self.target, self.source, tuple(inv))

    def compose(self, inner: "BooleanHom") -> "BooleanHom":
        """self after inner: inner maps A -> B, self maps B -> C."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        return BooleanHom(
            inner.source,
            self.target,
            tuple(inner.atom_map[i] for i in self.atom_map),
        )


def make_hom(
    source: FiniteBooleanAlgebra, target: FiniteBooleanAlgebra, atom_map
) -> BooleanHom:
    """Build the homomorphism induced by an atom map and self-check that it
    preserves the Boolean structure."""
    h = BooleanHom(source, target, tuple(atom_map))
    for a in source.elements():
        for b in source.elements():
            if h(a | b) != h(a) | h(b) or h(a & b) != h(a) & h(b):
                raise InternalCheckError("induced map fails join/meet preservation")
        if h(source.neg(a)) != target.neg(h(a)):
            raise InternalCheckError("induced map fails complement preservation")
    if h(0) != 0 or h(source.top) != target.top:
        raise InternalCheckError("induced map fails 0/1 preservation")
    return h


def enumerate_homs(
    source: FiniteBooleanAlgebra, target: FiniteBooleanAlgebra
) -> list[BooleanHom]:
    """All homomorphisms source -> target (one per atom map)."""
    return [
        BooleanHom(source, target, am)
        for am in product(range(source.atom_count), repeat=target.atom_count)
    ]


@dataclass(frozen=True)
class MorphismClassification:
    semi: bool
    hemi: bool
    semi_witness: tuple[int, int, int] | None = None
    hemi_witness: tuple[int, int, int] | None = None

    @property
    def full(self) -> bool:
        return self.semi and self.hemi


def classify_psi_morphism(
    h: BooleanHom, op_source: TernaryOperator, op_target: TernaryOperator
) -> MorphismClassification:
    """semi: h(dia(a,b,c)) <= dia(h a, h b, h c) for all source triples;
    hemi: the reverse inequality; full is the conjunction.  Each side is
    one int, a byte per source triple; a class fails where a byte of one
    side has a bit the other lacks."""
    if op_source.alg != h.source or op_target.alg != h.target:
        raise ValueError("operators do not live on the homomorphism's algebras")
    image, gather = _plan(h.atom_map, h.source.atom_count, h.target.atom_count)
    lhs = int.from_bytes(bytes(op_source.table).translate(image), "little")  # h(dia(a, b, c))
    rhs = int.from_bytes(bytes(gather(op_target.table)), "little")  # dia(h a, h b, h c)
    semi_w = _first_entry(lhs & ~rhs, h.source.size)
    hemi_w = _first_entry(rhs & ~lhs, h.source.size)
    return MorphismClassification(semi_w is None, hemi_w is None, semi_w, hemi_w)


@lru_cache(maxsize=8)
def _plan(atom_map: tuple[int, ...], k_s: int, k_t: int):
    """A homomorphism's image as a bytes.translate table, and an itemgetter
    picking from a target table, in (a, b, c) order over the source, the
    entries at (h a, h b, h c)."""
    img = [sum(1 << t for t, i in enumerate(atom_map) if a >> i & 1) for a in range(1 << k_s)]
    st = 1 << k_t
    plan = [(x * st + y) * st + z for x, y, z in product(img, repeat=3)]
    return bytes(img).ljust(256, b"\0"), itemgetter(*plan)


def classify_frame_map(
    f: tuple[int, ...], frame1: PsiFrame, frame2: PsiFrame
) -> CheckReport:
    """Check the three map conditions for f : X1 -> X2 (f[i] = image point).

    Sp1 (preimages of clopens are clopen) is automatic on finite discrete
    spaces.  Sp2: R1-related triples push forward along f.  Sp3: whenever
    f(x) reaches Z in R2, some Y in R1(x) has componentwise image inside Z.
    """
    if len(f) != frame1.point_count:
        raise ValueError("map must be defined on every point of the first frame")
    for p in f:
        if not 0 <= p < frame2.point_count:
            raise ValueError(f"image point {p} outside the second frame")

    results = [result("Sp1", None, "trivially satisfied (finite discrete space)")]
    n1, n2 = frame1.point_count, frame2.point_count
    img = [0]  # point set y of frame1 -> its image, one point at a time
    for p in f:
        img += [m | 1 << p for m in img]

    def image(y1: int, y2: int, y3: int) -> int:
        """The index in frame2 of the componentwise image of a triple."""
        return (img[y1] << n2 | img[y2]) << n2 | img[y3]

    def sp2():
        for x, r in enumerate(frame1.rows):
            r2 = frame2.rows[f[x]]
            for y in _set_offsets(r, 1 << n1):
                if not r2 >> image(*y) & 1:
                    yield (x, *y)

    def sp3():
        # the Z reached from f(x) with no image of R1(x) below them: R2(f(x))
        # outside the up-closure of those images over all 3n2 index bits
        for x, r in enumerate(frame1.rows):
            below = sum({1 << image(*y) for y in _set_offsets(r, 1 << n1)})  # the OR of their bits
            lacking = frame2.rows[f[x]] & ~_up(below, n2, range(3 * n2))
            if lacking:
                yield (x, *_first_entry(lacking, 1 << n2, 3, 1))

    results.append(_first("Sp2", sp2()))
    results.append(_first("Sp3", sp3()))
    return CheckReport("frame-map", tuple(results))


def morphism_duality_check(
    h: BooleanHom, op_source: TernaryOperator, op_target: TernaryOperator
) -> CheckReport:
    """Assert the morphism-level duality for one homomorphism:

      semi  iff  the dual map satisfies Sp3,
      hemi  iff  the dual map satisfies Sp2,
      full  iff  both,

    plus the round trip: the algebra map induced by the dual point map via
    clopen preimages is h again.
    """
    for op, name in ((op_source, "source"), (op_target, "target")):
        _require_psi(op, f"morphism_duality_check ({name})")
    mc = classify_psi_morphism(h, op_source, op_target)
    frame_target = dual_frame(op_target)
    frame_source = dual_frame(op_source)
    # the dual point map, target's frame to source's, is the atom map itself
    f = h.atom_map
    fm = classify_frame_map(f, frame_target, frame_source)
    sp2 = fm.result("Sp2").passed
    sp3 = fm.result("Sp3").passed

    results = [
        _bicond("semi-iff-Sp3", mc.semi, sp3),
        _bicond("hemi-iff-Sp2", mc.hemi, sp2),
        _bicond("full-iff-Sp2-and-Sp3", mc.full, sp2 and sp3),
    ]

    # round trip: preimage along the dual point map recovers h elementwise
    pre = [sum(1 << t for t, i in enumerate(f) if a >> i & 1) for a in h.source.elements()]
    results.append(_first("hom-roundtrip", ((a,) for a, m in enumerate(pre) if m != h(a))))
    return CheckReport("morphism-duality", tuple(results))


def _bicond(name: str, lhs: bool, rhs: bool) -> AxiomResult:
    note = f"algebra-side={lhs} frame-side={rhs}"
    return result(name, None if lhs == rhs else (), note)


@dataclass(frozen=True)
class EcaMorphismClassification:
    reflecting: bool
    preserving: bool
    reflecting_witness: tuple[int, int, int] | None = None
    preserving_witness: tuple[int, int, int] | None = None

    @property
    def similarity(self) -> bool:
        return self.reflecting and self.preserving


def classify_eca_morphism(
    h: BooleanHom, rel_source: TernaryRelation, rel_target: TernaryRelation
) -> tuple[EcaMorphismClassification, CheckReport]:
    """Classify h against two entailment relations and verify the three
    equivalences with the operator-side classification of the translated
    operators: reflecting = semi, preserving = hemi, similarity = full.
    """
    for rel, name in ((rel_source, "source"), (rel_target, "target")):
        _require_eca(rel, f"classify_eca_morphism ({name})")
    if rel_source.alg != h.source or rel_target.alg != h.target:
        raise ValueError("relations do not live on the homomorphism's algebras")

    # the source's bitset against the target's read at (h a, h b, h c),
    # gathered from its chi as one byte per triple, 1 where the triple holds
    _, gather = _plan(h.atom_map, h.source.atom_count, h.target.atom_count)
    chi = _entries(rel_target.bits, h.target.size ** 3, b"\x00\x01")
    src, tgt = rel_source.bits, _bits(bytes(gather(chi)), 1, 1)
    refl_w = _first_entry(tgt & ~src, h.source.size, 3, 1)
    pres_w = _first_entry(src & ~tgt, h.source.size, 3, 1)
    cls = EcaMorphismClassification(refl_w is None, pres_w is None, refl_w, pres_w)

    mc = classify_psi_morphism(h, rel_to_op(rel_source), rel_to_op(rel_target))
    results = (
        _bicond("reflecting-iff-semi", cls.reflecting, mc.semi),
        _bicond("preserving-iff-hemi", cls.preserving, mc.hemi),
        _bicond("similarity-iff-full", cls.similarity, mc.full),
    )
    return cls, CheckReport("eca-morphism", results)
