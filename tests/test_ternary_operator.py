from itertools import product, takewhile

import pytest

from psiforge import (
    AxiomResult,
    TernaryOperator,
    box_op,
    check_3bamo,
    check_pi2_equivalents,
    check_psi,
    check_strict,
    discriminator_check,
    example_3bamo,
    is_relational,
    largest_eca,
    make_algebra,
    mu,
    mu_iter,
    rel_to_op,
    smallest_diamond,
)
from psiforge.enumeration import sample_3bamos
from psiforge.planes import distributes
from psiforge.terms import law_sweeps
from psiforge.ternary_operator import (
    constant_operator,
    discriminator_d,
    discriminator_t,
    example_3bamo_nonzero_entries,
    operator_from_function,
    operator_from_json,
    LAW_ROWS,
)

# the four-element counterexample, straight from its defining listing:
# atoms a = 1, b = 2, top = 3; unlisted entries are zero
EXAMPLE_TABLE = {
    (3, 3, 3): 3, (3, 3, 1): 1, (3, 3, 2): 3,
    (3, 1, 3): 3, (3, 1, 1): 1,
    (3, 2, 3): 3, (3, 2, 2): 3,
    (1, 3, 3): 3, (1, 3, 1): 1,
    (1, 1, 3): 3, (1, 1, 1): 1,
    (2, 3, 3): 3, (2, 3, 2): 3,
    (2, 2, 3): 3, (2, 2, 2): 3,
}


def test_example_3bamo_reproduces_every_entry():
    op = example_3bamo()
    assert example_3bamo_nonzero_entries() == EXAMPLE_TABLE
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert op(a, b, c) == EXAMPLE_TABLE.get((a, b, c), 0)
    assert sum(1 for v in op.table if v) == 15


def test_example_3bamo_is_3bamo_but_not_psi():
    op = example_3bamo()
    assert check_3bamo(op).passed
    rep = check_psi(op)
    pi1 = rep.result("PI1")
    assert not pi1.passed
    assert pi1.witness == (3, 1, 3, 2, 1)
    # the remaining pseudo-inference laws hold on this table (computed fact)
    assert rep.result("PI2").passed
    assert rep.result("PI3").passed
    assert rep.result("PI4").passed
    # dia(a,a,a) or dia(a,a,b) < dia(a,a,1)
    assert op(1, 1, 1) | op(1, 1, 2) == 1
    assert op(1, 1, 3) == 3


def test_example_3bamo_witness_reevaluates():
    op = example_3bamo()
    alg = op.alg
    a, b, f, d, e = 3, 1, 3, 2, 1
    lhs = op(a, b, f)
    rhs = op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f)
    assert lhs == 3 and rhs == 1
    assert not alg.leq(lhs, rhs)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_smallest_diamond_is_psi(k):
    op = smallest_diamond(make_algebra(k))
    assert check_3bamo(op).passed
    assert check_psi(op).passed


def test_check_3bamo_at_the_ceiling():
    # MO2-MO4 are decided on atom covers: k*|A|^3 tuples, not |A|^4
    assert check_3bamo(smallest_diamond(make_algebra(6))).passed


def test_pi1_exhaustive_at_four_atoms():
    alg = make_algebra(4)
    assert check_psi(smallest_diamond(alg)).result("PI1") == AxiomResult("PI1", True)
    bad = operator_from_function(
        alg, lambda a, b, c: a & b & c if (a, b, c) != (15, 1, 15) else 15
    )
    r = check_psi(bad).result("PI1")
    assert not r.passed and r.note == ""
    a, b, f, d, e = r.witness
    assert not alg.leq(bad(a, b, f), bad(a, b, alg.neg(d)) | bad(a, b, alg.neg(e)) | bad(d, e, f))


def _pi1_violated(op, witness):
    alg = op.alg
    a, b, f, d, e = witness
    return not alg.leq(op(a, b, f), op(a, b, alg.neg(d)) | op(a, b, alg.neg(e)) | op(d, e, f))


def test_pi1_exact_above_four_atoms():
    # above four atoms PI1 is decided exactly on every table, with the
    # top-down witness and no note: the first failing (a, b) in top-down
    # order, swept top-down over (f, d, e)
    alg = make_algebra(5)
    rep = check_psi(smallest_diamond(alg))
    assert rep.passed
    assert rep.result("PI1") == AxiomResult("PI1", True)
    mo = sample_3bamos(alg, count=1, seed=1)[0]
    assert check_3bamo(mo).passed
    r = check_psi(mo).result("PI1")
    assert r == AxiomResult("PI1", False, (2, 8, 4, 22, 6))
    assert _pi1_violated(mo, r.witness)
    # no earlier pair in top-down order fails; PI1 at (a, b) reads only the
    # row dia(a, b, .) and the table, so one pair per distinct row is swept,
    # with (a, b) bound (the full top-down sweep takes seconds here)
    (pi1,) = law_sweeps(LAW_ROWS["PI1"], 2)
    rows = {}
    for a, b in takewhile(lambda p: p != (2, 8), product(range(31, -1, -1), repeat=2)):
        rows.setdefault(mo.table[(a * 32 + b) * 32:(a * 32 + b + 1) * 32], (a, b))
    assert all(pi1(mo.table, 31, a, b) is None for a, b in rows.values())
    # tables failing MO1-MO3 are decided too; at six atoms the witness pair
    # (63, 1) is the 63rd in top-down order, so the search stops early
    for k, witness in ((5, (31, 1, 31, 31, 29)), (6, (63, 1, 63, 63, 61))):
        alg = make_algebra(k)
        top = alg.top
        bad = operator_from_function(alg, lambda a, b, c: a & b & c if (a, b, c) != (top, 1, top) else top)
        assert not distributes(bytes(bad.table), alg.size)
        r = check_psi(bad).result("PI1")
        assert r == AxiomResult("PI1", False, witness)
        assert _pi1_violated(bad, witness)


def test_smallest_diamond_entries(alg2):
    op = smallest_diamond(alg2)
    assert op(3, 1, 1) == 1
    for a in alg2.elements():
        for b in alg2.elements():
            for c in alg2.elements():
                if a & c == 0:
                    assert op(a, b, c) == 0


def test_smallest_diamond_pointwise_minimal(psi_ops_k2, alg2):
    small = smallest_diamond(alg2)
    for op in psi_ops_k2:
        assert small.pointwise_leq(op)


def test_mo1_violation_witness(alg2):
    op = operator_from_function(alg2, lambda a, b, c: 1 if (a, b, c) == (0, 0, 0) else 0)
    rep = check_3bamo(op)
    r = rep.result("MO1")
    assert not r.passed and r.witness == (0, 0, 0)


def test_zero_operator_fails_only_pi3(alg2):
    op = constant_operator(alg2, 0)
    rep = check_psi(op)
    assert rep.result("PI1").passed
    assert rep.result("PI2").passed
    assert rep.result("PI4").passed
    r = rep.result("PI3")
    assert not r.passed and r.witness == (1, 1)


def test_zero_operator_strict_vacuously(alg1):
    assert check_strict(constant_operator(alg1, 0)).passed


def test_pi2_equivalents_agree(alg2):
    for op in (smallest_diamond(alg2), example_3bamo()):
        rep = check_pi2_equivalents(op)
        assert rep.result("PI2-agreement").passed


def test_pi2_equivalents_all_fail_together(alg1):
    rep = check_pi2_equivalents(constant_operator(alg1, 1))
    for name in ("PI2", "PI2-top-form", "PI2-quasi", "PI2-quasi-top"):
        assert not rep.result(name).passed
    assert rep.result("PI2-agreement").passed


def test_relational_operator_passes_strict(alg2):
    op = rel_to_op(largest_eca(alg2))
    assert check_strict(op).passed


def test_smallest_diamond_strict_verdict_computed(alg2):
    # mu is the identity here, so S reduces to x <= x and the two
    # residuation laws reduce to lattice arithmetic: the sweep decides
    rep = check_strict(smallest_diamond(alg2))
    assert rep.passed


def test_strict_decided_where_mo1_fails():
    # dia(a, b, c) = top iff a = top fails MO1 yet satisfies R1 and R2:
    # both are decided on every row and column of the table, where a sweep
    # over all |A|^4 tuples took 0.36 s at five atoms and 6.9 s at six
    alg = make_algebra(5)
    top = alg.top
    op = operator_from_function(alg, lambda a, b, c: top if a == top else 0)
    assert not distributes(bytes(op.table), alg.size)
    rep = check_strict(op)
    assert rep.results == (AxiomResult("R1", True), AxiomResult("R2", True), AxiomResult("S", False, (top, 0, 0)))
    assert not alg.leq(op(top, 0, 0), mu(op, op(top, 0, 0)))


def test_is_relational(alg1, alg2):
    rel_op = rel_to_op(largest_eca(alg2))
    assert is_relational(rel_op) == (True, None)
    ok, witness = is_relational(smallest_diamond(alg2))
    assert not ok and witness == (1, 1, 1)
    for table_val in (0, 1):
        assert is_relational(constant_operator(alg1, table_val))[0]


def test_operator_refuses_a_value_outside_the_carrier(alg2):
    """Each refusal names the first entry outside 0..size-1, alone or with
    later bad entries: -1 and 256 do not fit in a byte, size does."""
    for bad in (-1, alg2.size, 256):
        for rest in (0, alg2.size + 1):
            table = [0] * 5 + [bad] + [rest] * (alg2.size ** 3 - 6)
            with pytest.raises(ValueError, match=rf"^table value {bad} outside carrier$"):
                TernaryOperator(alg2, tuple(table))


def test_mu_basics(alg2):
    small = smallest_diamond(alg2)
    for z in alg2.elements():
        assert mu(small, z) == z
    assert mu_iter(small, 2, 0) == 2
    with pytest.raises(ValueError):
        mu_iter(small, 1, -1)
    ex = example_3bamo()
    assert mu(ex, 0) == 0
    assert mu(ex, ex.alg.top) == ex.alg.top


def test_mu_properties_on_psi_pool(psi_ops_k2):
    for op in psi_ops_k2:
        alg = op.alg
        assert mu(op, 0) == 0
        for x in alg.elements():
            assert alg.leq(mu(op, x), x)
            assert (mu(op, x) == alg.top) == (x == alg.top)
            for y in alg.elements():
                if alg.leq(x, y):
                    assert alg.leq(mu(op, x), mu(op, y))
            for n in range(5):
                assert alg.leq(mu_iter(op, x, n + 1), mu_iter(op, x, n))


def test_s_fixes_complement_of_mu(psi_ops_k2):
    for op in psi_ops_k2:
        if not check_strict(op).result("S").passed:
            continue
        alg = op.alg
        for a in alg.elements():
            nma = alg.neg(mu(op, a))
            assert mu(op, nma) == nma
            for l in range(5):
                assert mu_iter(op, nma, l) == nma


def test_monotone_in_each_coordinate(psi_ops_k2):
    ops = list(psi_ops_k2) + [example_3bamo()]
    for op in ops:
        alg = op.alg
        for a in alg.elements():
            for a2 in alg.elements():
                if not alg.leq(a, a2):
                    continue
                for b in alg.elements():
                    for c in alg.elements():
                        assert alg.leq(op(a, b, c), op(a2, b, c))
                        assert alg.leq(op(b, a, c), op(b, a2, c))
                        assert alg.leq(op(b, c, a), op(b, c, a2))


def test_box_op(alg2):
    small = smallest_diamond(alg2)
    for x in alg2.elements():
        for y in alg2.elements():
            for z in alg2.elements():
                assert box_op(small, x, y, z) == x | y | z
    ex = example_3bamo()
    assert box_op(ex, alg2.top, alg2.top, alg2.top) == alg2.top
    assert box_op(ex, 2, 2, 2) == 2


def test_discriminator_on_relational(alg1, alg2, rel_ops_k2):
    for op in rel_ops_k2 + [rel_to_op(largest_eca(alg1))]:
        assert discriminator_check(op).passed


def test_discriminator_fails_on_smallest_k2(alg2):
    rep = discriminator_check(smallest_diamond(alg2))
    r = rep.result("d-contract")
    assert not r.passed and r.witness == (1,)


def test_discriminator_interdefinable(rel_ops_k2):
    # d(x) = not t(0, x, 1) must hold whenever the contract does
    for op in rel_ops_k2:
        alg = op.alg
        for x in alg.elements():
            assert discriminator_d(op, x) == alg.neg(discriminator_t(op, 0, x, alg.top))


def test_operator_json_round_trip():
    op = example_3bamo()
    back = operator_from_json(op.to_json())
    assert back.table == op.table and back.alg == op.alg


def test_operator_table_validation(alg2):
    with pytest.raises(ValueError):
        TernaryOperator(alg2, (0,) * 63)
    with pytest.raises(ValueError):
        TernaryOperator(alg2, (0,) * 63 + (9,))
