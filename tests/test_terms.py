from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from psiforge import (
    EvalError,
    ParseError,
    SizeCapError,
    TernaryOperator,
    eval_term,
    example_3bamo,
    holds,
    make_algebra,
    parse,
    parse_term,
    pretty,
    smallest_diamond,
)
from psiforge.enumeration import brute_force_operators, named_axioms
from psiforge.terms import (
    Binary,
    Const,
    Identity,
    Inequality,
    QuasiIdentity,
    Ternary,
    Unary,
    Var,
    compile_sweep,
    parse_axiom_file,
    variables,
)
from psiforge.ternary_operator import discriminator_d, discriminator_t, mu


def test_parse_pi4_sentence():
    s = parse("dia(a,b,f) <= dia(b,a,f)")
    assert isinstance(s, Inequality)
    assert pretty(s) == "dia(a, b, f) <= dia(b, a, f)"


def test_parse_mu_definition():
    s = parse("mu(z) = not dia(1,1,not z) and not dia(1,not z,1)")
    assert isinstance(s, Identity)
    # binds as a conjunction of two negations
    assert isinstance(s.rhs, Binary) and s.rhs.op == "and"
    assert isinstance(s.rhs.left, Unary) and s.rhs.left.op == "not"


# malformed sentences, the exact ParseError message and its 1-based offset
_MALFORMED = [
    ("dia(a,b", "expected ',', found 'end of input'", 8),
    ("dia(a,b,c) <= ?", "unexpected character '?'", 14),
    ("mu(a,b) = 0", "expected ')', found ','", 5),  # arity
    ("d(a,b) = c", "expected ')', found ','", 4),
    ("dia(a) = b", "expected ',', found ')'", 6),
    ("disc(a,b) = c", "expected ',', found ')'", 9),
    ("mu() = 0", "expected a term, found ')'", 4),
    ("dia(,a,b) = 0", "expected a term, found ','", 5),
    ("not = 1", "expected a term, found '='", 5),  # reserved connective
    ("and = 1", "reserved word 'and' cannot stand alone", 1),
    ("a or xor = b", "reserved word 'xor' cannot stand alone", 6),
    ("a and = b", "expected a term, found '='", 7),
    ("a -> = b", "expected a term, found '='", 6),
    ("a = b trailing", "trailing input 'trailing'", 7),
    ("x = y )", "trailing input ')'", 7),
    ("a <= b <= c", "trailing input '<='", 8),
    ("a = b => c = d & e = f", "trailing input '&'", 16),
    ("", "expected a term, found 'end of input'", 1),
    ("a", "expected '=' or '<=', found 'end of input'", 2),
    ("a, b = c", "expected '=' or '<=', found ','", 2),
    ("a = ", "expected a term, found 'end of input'", 5),
    ("(a = b", "expected ')', found '='", 4),
    (" a = ( b", "expected ')', found 'end of input'", 9),
    ("A = b", "unexpected character 'A'", 1),
    ("a = 2", "unexpected character '2'", 4),
    ("a <= b => a = b", "quasi-identity premises must be identities", 8),
    ("a = b & c <= d => e = f", "expected '=', found '<='", 11),
    ("a = b & c => d = e", "expected '=', found '=>'", 11),
    ("a = b & c = d => e <= f", "expected '=', found '<='", 20),
    ("a = b => c", "expected '=', found 'end of input'", 11),
    ("a = b & c = d", "expected '=>', found 'end of input'", 14),
]


def test_parse_error_position():
    for text, message, position in _MALFORMED:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.position) == (f"{message} (at offset {position})", position), text


def test_precedence():
    t = parse_term("not a and b")
    assert t == Binary("and", Unary("not", Var("a")), Var("b"))
    t = parse_term("a or b and c")
    assert t == Binary("or", Var("a"), Binary("and", Var("b"), Var("c")))
    t = parse_term("a -> b xor c")
    assert t == Binary("->", Var("a"), Binary("xor", Var("b"), Var("c")))
    t = parse_term("(a -> b) xor c")
    assert t == Binary("xor", Binary("->", Var("a"), Var("b")), Var("c"))


def test_left_associativity():
    t = parse_term("a and b and c")
    assert t == Binary("and", Binary("and", Var("a"), Var("b")), Var("c"))


def test_d_as_variable_and_function():
    t = parse_term("d and d(x)")
    assert t == Binary("and", Var("d"), Unary("d", Var("x")))


def test_quasi_identity():
    s = parse("a and f = 0 => dia(a,b,f) = 0")
    assert isinstance(s, QuasiIdentity)
    assert len(s.premises) == 1
    s2 = parse("a = 0 & b = 0 => dia(a,b,c) = 0")
    assert len(s2.premises) == 2
    with pytest.raises(ParseError):
        parse("a <= b => a = b")  # premises must be identities


@pytest.mark.parametrize(
    "text",
    [
        "dia(a,b,f) <= dia(a,b,not d) or dia(a,b,not e) or dia(d,e,f)",
        "mu(z) = not dia(1,1,not z) and not dia(1,not z,1)",
        "a and f = 0 => dia(a,1,f) = 0",
        "disc(x, y, z) = (x and d(x xor y)) or (z and not d(x xor y))",
        "0 <= 1",
    ],
)
def test_pretty_reparses_to_same_ast(text):
    s = parse(text)
    assert parse(pretty(s)) == s
    # printing is a normal form on concrete syntax
    assert pretty(parse(pretty(s))) == pretty(s)


def test_variables_in_order_of_appearance():
    s = parse("dia(f,b,a) <= d or c")
    assert variables(s) == ["f", "b", "a", "d", "c"]


def test_eval_xor(alg2):
    op = smallest_diamond(alg2)
    for e in alg2.elements():
        assert eval_term(parse_term("x xor x"), op, {"x": e}) == 0


def test_eval_unassigned_variable(alg2):
    with pytest.raises(EvalError):
        eval_term(parse_term("x or y"), smallest_diamond(alg2), {"x": 1})


def test_eval_matches_builtin_mu_d_disc(alg2, psi_ops_k2):
    mu_t = parse_term("mu(z)")
    d_t = parse_term("d(z)")
    for op in psi_ops_k2[:4]:
        for z in alg2.elements():
            assert eval_term(mu_t, op, {"z": z}) == mu(op, z)
            assert eval_term(d_t, op, {"z": z}) == discriminator_d(op, z)
    disc_t = parse_term("disc(x, y, z)")
    op = psi_ops_k2[0]
    for x in alg2.elements():
        for y in alg2.elements():
            for z in alg2.elements():
                assert eval_term(disc_t, op, {"x": x, "y": y, "z": z}) == discriminator_t(op, x, y, z)


def test_holds_pi3_on_smallest(alg2):
    assert holds(parse("a and f <= dia(a,a,f)"), smallest_diamond(alg2))[0]


def test_holds_pi1_witness_on_example():
    pi1 = parse("dia(a,b,f) <= dia(a,b,not d) or dia(a,b,not e) or dia(d,e,f)")
    ok, witness = holds(pi1, example_3bamo())
    assert not ok
    assert witness == {"a": 3, "b": 1, "f": 3, "d": 2, "e": 1}


def test_holds_quasi_identity(alg2):
    q = parse("a and f = 0 => dia(a,b,f) = 0")
    assert holds(q, smallest_diamond(alg2))[0]
    from psiforge.ternary_operator import constant_operator

    alg1 = make_algebra(1)
    bad = constant_operator(alg1, 1)
    ok, witness = holds(q, bad)
    assert not ok and witness is not None


def test_axiom_file_parsing():
    text = """
    # a comment
    dia(a,b,f) <= dia(b,a,f)

    a and f <= dia(a,a,f)  # trailing comment
    """
    sentences = parse_axiom_file(text)
    assert len(sentences) == 2


# compiled sweeps against a brute-force sweep through eval_term

_VARS = ["x", "y", "d", "e"]  # d and e double as function words


def _terms_over(names, max_leaves):
    return st.recursive(
        st.sampled_from([Const(False), Const(True)] + [Var(v) for v in names]),
        lambda sub: st.one_of(
            st.builds(Unary, st.sampled_from(["not", "mu", "d"]), sub),
            st.builds(Binary, st.sampled_from(["and", "or", "xor", "->"]), sub, sub),
            st.builds(
                lambda op, a, b, c: Ternary(op, (a, b, c)), st.sampled_from(["dia", "disc"]), sub, sub, sub
            ),
        ),
        max_leaves=max_leaves,
    )


_terms = _terms_over(_VARS, 8)


def _sentences_over(terms):
    identities = st.builds(Identity, terms, terms)
    return st.one_of(
        identities,
        st.builds(Inequality, terms, terms),
        st.builds(QuasiIdentity, st.lists(identities, min_size=1, max_size=2).map(tuple), identities),
    )


_sentences = _sentences_over(_terms)
_operators = st.sampled_from([1, 2]).flatmap(
    lambda k: st.lists(st.integers(0, 2**k - 1), min_size=8**k, max_size=8**k).map(
        lambda table: TernaryOperator(make_algebra(k), tuple(table))
    )
)


# names the tokenizer reads as variables, function words among them: a
# function word applies only before a parenthesis, and none follows a name
_NAMES = ["x", "y2", "a_b", "d", "e", "mu", "dia", "disc"]


@settings(max_examples=400, deadline=None)
@given(t=_terms_over(_NAMES, 12), s=_sentences_over(_terms_over(_NAMES, 6)))
def test_pretty_round_trips_random_asts(t, s):
    text = pretty(t)
    assert parse_term(text) == t
    assert pretty(parse_term(text)) == text
    text = pretty(s)
    assert parse(text) == s
    assert pretty(parse(text)) == text


def _true_at(s, op, env) -> bool:
    if isinstance(s, QuasiIdentity):
        return not all(_true_at(p, op, env) for p in s.premises) or _true_at(s.conclusion, op, env)
    x, y = eval_term(s.lhs, op, env), eval_term(s.rhs, op, env)
    return x == y if isinstance(s, Identity) else op.alg.leq(x, y)


def _brute_force(s, op, order, descending, bound=None):
    values = range(op.alg.top, -1, -1) if descending else op.alg.elements()
    for w in product(values, repeat=len(order)):
        if not _true_at(s, op, dict(zip(order, w)) | (bound or {})):
            return w
    return None


@settings(max_examples=300, deadline=None)
@given(s=_sentences, op=_operators, data=st.data())
@example(s=parse("dia(1, 1, 0) = mu(0) xor 1"), op=example_3bamo(), data=None)
@example(s=parse("d(d) and e <= dia(d, e, not d)"), op=example_3bamo(), data=None)
def test_compiled_sweep_matches_brute_force(s, op, data):
    names = variables(s)
    ok, assignment = holds(s, op)
    want = _brute_force(s, op, names, True)
    assert (ok, assignment) == (want is None, None if want is None else dict(zip(names, want)))
    if data is not None:
        order = tuple(data.draw(st.permutations(names)))
        descending = data.draw(st.booleans())
        got = compile_sweep(s, order, descending)(op.table, op.alg.top)
        assert got == _brute_force(s, op, order, descending)
        # the leading variables become params, bound to drawn values
        cut = data.draw(st.integers(1, len(order))) if order else 0
        params, order = order[:cut], order[cut:]
        bound = {x: data.draw(st.integers(0, op.alg.top)) for x in params}
        got = compile_sweep(s, order, descending, params)(op.table, op.alg.top, *bound.values())
        assert got == _brute_force(s, op, order, descending, bound)


@settings(max_examples=60, deadline=None)
@given(axioms=st.lists(_sentences, min_size=1, max_size=3))
@example(axioms=named_axioms("3bamo"))
@example(axioms=named_axioms("psi"))
@example(axioms=named_axioms("strict"))
def test_brute_force_operators_equals_a_holds_filter(axioms):
    """brute_force_operators sweeps each sentence's plan over raw tables;
    it keeps exactly the tables on which holds() passes every sentence,
    for the built-in axiom sets and for drawn sentences."""
    alg = make_algebra(1)
    ops = (TernaryOperator(alg, t[::-1]) for t in product(range(2), repeat=8))
    want = [op.table for op in ops if all(holds(s, op)[0] for s in axioms)]
    assert [op.table for op in brute_force_operators(alg, axioms)] == want


def test_compile_sweep_rejects_bad_orders_and_names():
    s = parse("dia(a, b, c) = dia(b, a, c)")
    with pytest.raises(EvalError):
        compile_sweep(s, ("a", "b"), False)
    with pytest.raises(EvalError):
        compile_sweep(s, ("a", "b", "c", "c"), False)
    with pytest.raises(EvalError):  # only 0 and 1 may stand in an order as constants
        compile_sweep(s, ("a", "b", "c", "2"), False)
    with pytest.raises(EvalError):  # a name both swept and bound
        compile_sweep(s, ("a", "b", "c"), False, ("c",))
    with pytest.raises(EvalError):  # a param the sentence lacks
        compile_sweep(s, ("a", "b", "c"), False, ("z",))
    # only validated names reach the generated source
    with pytest.raises(EvalError):
        compile_sweep(Identity(Var("x)\nimport os"), Const(False)), ("x)\nimport os",), False)
    with pytest.raises(EvalError):
        compile_sweep(Identity(Var("x)\nimport os"), Const(False)), (), False, ("x)\nimport os",))
    names = [f"v{i}" for i in range(21)]
    wide = parse(" and ".join(names) + " <= 1")
    with pytest.raises(SizeCapError):
        compile_sweep(wide, tuple(names), False)


def test_compile_sweep_constants_in_order():
    """A constant in the order loops over nothing and stands in the
    witness as 0 or top."""
    alg = make_algebra(2)
    table = [0] * 64
    table[(0 * 4 + 2) * 4 + 1] = 1
    got = compile_sweep(parse("dia(0, b, c) = 0"), ("0", "b", "c"))(tuple(table), alg.top)
    assert got == (0, 2, 1)
    top_row = compile_sweep(parse("dia(a, b, 1) = 0"), ("a", "b", "1"))
    assert top_row(tuple(table), alg.top) is None
    table[(3 * 4 + 1) * 4 + 3] = 2
    assert top_row(tuple(table), alg.top) == (3, 1, 3)
    both = compile_sweep(parse("dia(0, 1, a) = 0"), ("0", "1", "a"), True)
    table[(0 * 4 + 3) * 4 + 2] = 3
    assert both(tuple(table), alg.top) == (0, 3, 2)
