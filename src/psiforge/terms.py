"""Term language for operator equations and quasi-identities, with a
recursive-descent parser, an evaluator, a sweep compiler and the law
rows every checker sweeps.

Grammar (concrete syntax).  Its binding strengths are stated once, in
_PREC, which the parser climbs and pretty() parenthesizes by; the
argument count of each function word once, in _ARITY.

    identifiers   [a-z][a-z0-9_]*           (variables)
    constants     0, 1
    prefix        not
    infix         and, or, xor, ->          (left associative; binding
                                             strength: not > and > or >
                                             xor > ->)
    applications  dia(t,t,t)  mu(t)  d(t)  disc(t,t,t)
    sentences     s = t   |   s <= t
    quasi         s1 = t1 & s2 = t2 & ... => s = t

The connective words not/and/or/xor are reserved.  The function words
dia/mu/d/disc apply only when a parenthesis follows, so d and e stay
usable as variables (the cut axiom needs them).  mu, d and disc are
definable: mu(z) expands to not dia(1,1,not z) and not dia(1,not z,1),
d(x) to not mu(not x), and disc(x,y,z) to the discriminator term rebuilt
from d and symmetric difference.  Axiom files hold one sentence per line
with '#' comments.

Quantifier sweeps run top-down: holds() tries assignments in descending
mask order over the variables in order of first appearance, and reports
the first falsifying assignment.  The sweep is compile_sweep(), which
turns a sentence into generated nested-loop code over the flat operator
table.  A sentence variable may instead be a param: bound once per call
by the caller and not swept.  eval_term() stays the reference evaluator.

Law rows.  Every law the checkers decide is a tuple of rows (sentence,
witness order, top-down), one format for the operator laws
(ternary_operator.LAW_ROWS), the relation laws (contact_relation._LAWS)
and the filter laws (filter_congruence._FILTER_LAWS).  law_sweeps
compiles a law's rows with the first letters of each order bound by the
caller, first_witness sweeps them in turn past a bound prefix, and
witness_at names the witness of a law an exact test found failing,
raising InternalCheckError if the sweep finds none.  The checkers reach
the two only through report.swept and report.decided, the one path from
a verdict to a report.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Union

from .errors import EvalError, InternalCheckError, ParseError, SizeCapError
from .report import Record, cached_hash
from .ternary_operator import (
    TernaryOperator,
    discriminator_t,
    mu as mu_value,
)

Term = Union["Const", "Var", "Unary", "Binary", "Ternary"]


class Const(Record):
    top: bool  # False is 0, True is 1


class Var(Record):
    name: str


class Unary(Record):
    op: str  # "not" | "mu" | "d"
    arg: Term
    __hash__ = cached_hash


class Binary(Record):
    op: str  # "and" | "or" | "xor" | "->"
    left: Term
    right: Term
    __hash__ = cached_hash


class Ternary(Record):
    op: str  # "dia" | "disc"
    args: tuple[Term, Term, Term]
    __hash__ = cached_hash


class Identity(Record):
    lhs: Term
    rhs: Term


class Inequality(Record):
    lhs: Term
    rhs: Term


class QuasiIdentity(Record):
    premises: tuple[Identity, ...]
    conclusion: Identity


Sentence = Union[Identity, Inequality, QuasiIdentity]

# The grammar's two tables: the binding strength of each binary connective
# (all left associative; "not" binds tighter than any), and the number of
# arguments of each function word.
_PREC = {"->": 1, "xor": 2, "or": 3, "and": 4}
_TIGHTEST = max(_PREC.values())
_ARITY = {"mu": 1, "d": 1, "dia": 3, "disc": 3}

_NAME = r"[a-z][a-z0-9_]*"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<name>{_NAME})|(?P<const>[01])|(?P<sym><=|=>|->|&|=|\(|\)|,))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, 1-based character position)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos + 1)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def expression(self, prec: int = 1) -> Term:
        """The connectives of binding strength prec and above, by climbing
        _PREC: the operands are factors at the tightest level and the next
        level's expressions below it.  The operand call is written inline,
        not in a helper: a parenthesis level costs five frames (four
        levels and a factor), which sets the nesting depth refused as too
        deep."""
        t = self.factor() if prec == _TIGHTEST else self.expression(prec + 1)
        while _PREC.get(self.peek()[1]) == prec:
            op = self.next()[1]
            t = Binary(op, t, self.factor() if prec == _TIGHTEST else self.expression(prec + 1))
        return t

    def factor(self) -> Term:
        kind, val, pos = self.next()
        if val == "not":
            return Unary("not", self.factor())
        if val == "(":
            t = self.expression()
            self.expect(")")
            return t
        if kind == "const":
            return Const(val == "1")
        if kind == "name":
            # function words act as applications only when a parenthesis
            # follows; bare dia/mu/d/disc are ordinary variables (the cut
            # axiom needs d and e as variable names)
            if val in _ARITY and self.peek()[1] == "(":
                self.next()
                args = []
                for sep in [","] * (_ARITY[val] - 1) + [")"]:
                    args.append(self.expression())
                    self.expect(sep)
                return Unary(val, args[0]) if len(args) == 1 else Ternary(val, tuple(args))
            if val in _PREC:  # the connective words; "not" was taken above
                raise ParseError(f"reserved word {val!r} cannot stand alone", pos)
            return Var(val)
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", pos)

    def identity(self) -> Identity:
        lhs = self.expression()
        self.expect("=")
        return Identity(lhs, self.expression())

    def sentence(self) -> Sentence:
        lhs = self.expression()
        kind, val, pos = self.next()
        if val == "<=":
            out: Sentence = Inequality(lhs, self.expression())
        elif val == "=":
            out = Identity(lhs, self.expression())
        else:
            raise ParseError(f"expected '=' or '<=', found {val or 'end of input'!r}", pos)
        if self.peek()[1] in ("&", "=>"):
            if isinstance(out, Inequality):
                raise ParseError("quasi-identity premises must be identities", self.peek()[2])
            premises = [out]
            while self.peek()[1] == "&":
                self.next()
                premises.append(self.identity())
            self.expect("=>")
            conclusion = self.identity()
            return QuasiIdentity(tuple(premises), conclusion)
        return out

    def done(self):
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.expression()
    p.done()
    return t


@lru_cache(maxsize=256)
def parse(text: str) -> Sentence:
    """Parse one sentence: an identity, an inequality, or a quasi-identity.
    Sentences are immutable, so each text is parsed once while cached."""
    p = _Parser(text)
    s = p.sentence()
    p.done()
    return s


def parse_axiom_file(text: str) -> list[Sentence]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse(line))
    return out


def _args(t: Term) -> tuple:
    """The children of a term, in order; a constant or a variable has none."""
    if isinstance(t, Unary):
        return (t.arg,)
    if isinstance(t, Binary):
        return (t.left, t.right)
    if isinstance(t, Ternary):
        return t.args
    return ()


def _sides(s: Sentence) -> tuple:
    """The terms of a sentence in order: each premise's two sides, then the
    conclusion's."""
    if isinstance(s, QuasiIdentity):
        return tuple(x for c in (*s.premises, s.conclusion) for x in (c.lhs, c.rhs))
    return (s.lhs, s.rhs)


def pretty(obj) -> str:
    """Deterministic concrete syntax; reparsing yields an equal AST."""
    if isinstance(obj, Identity):
        return f"{_pp(obj.lhs, 0)} = {_pp(obj.rhs, 0)}"
    if isinstance(obj, Inequality):
        return f"{_pp(obj.lhs, 0)} <= {_pp(obj.rhs, 0)}"
    if isinstance(obj, QuasiIdentity):
        prem = " & ".join(pretty(p) for p in obj.premises)
        return f"{prem} => {pretty(obj.conclusion)}"
    return _pp(obj, 0)


def _pp(t: Term, parent_prec: int) -> str:
    if isinstance(t, Const):
        return "1" if t.top else "0"
    if isinstance(t, Var):
        return t.name
    if t.op == "not":
        return f"not {_pp(t.arg, _TIGHTEST + 1)}"
    if isinstance(t, Binary):
        prec = _PREC[t.op]
        # left associative: right child needs parens at equal precedence
        s = f"{_pp(t.left, prec)} {t.op} {_pp(t.right, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    return f"{t.op}({', '.join(_pp(a, 0) for a in _args(t))})"


def variables(obj) -> list[str]:
    """Variables in order of first appearance."""
    seen: dict[str, None] = {}

    def walk(t):
        if isinstance(t, Var):
            seen.setdefault(t.name)
        for a in _args(t):
            walk(a)

    for t in _sides(obj) if isinstance(obj, (Identity, Inequality, QuasiIdentity)) else (obj,):
        walk(t)
    return list(seen)


def eval_term(term: Term, op: TernaryOperator, assignment: dict[str, int]) -> int:
    """Compositional evaluation over the operator's algebra; mu, d and disc
    expand to their defining terms."""
    alg = op.alg
    if isinstance(term, Const):
        return alg.top if term.top else 0
    if isinstance(term, Var):
        if term.name not in assignment:
            raise EvalError(f"unassigned variable {term.name!r}")
        return assignment[term.name]
    if isinstance(term, Unary):
        v = eval_term(term.arg, op, assignment)
        if term.op == "not":
            return alg.neg(v)
        if term.op == "mu":
            return mu_value(op, v)
        return alg.neg(mu_value(op, alg.neg(v)))  # d
    if isinstance(term, Binary):
        x = eval_term(term.left, op, assignment)
        y = eval_term(term.right, op, assignment)
        if term.op == "and":
            return x & y
        if term.op == "or":
            return x | y
        if term.op == "xor":
            return x ^ y
        return alg.implies(x, y)
    x, y, z = (eval_term(a, op, assignment) for a in term.args)
    if term.op == "dia":
        return op(x, y, z)
    return discriminator_t(op, x, y, z)  # disc


# ---------------------------------------------------------------------------
# compiled sweeps
#
# A sentence compiles to one Python function of nested loops over the flat
# operator table.  Each subterm is computed in the outermost loop where all
# of its variables are bound, so the partial index (a*S+b)*S of dia(a,b,x)
# and terms such as not d leave the inner loops.  Each clause is tested as
# soon as its variables are bound: a false premise, or a conclusion that
# already holds (an inequality whose left side is 0 holds whatever its
# right side), skips every assignment below that loop.

# the interpreter refuses more than 20 statically nested loops
SWEEP_MAX_VARIABLES = 20

_VAR_RE = re.compile(_NAME)
_CONSTANTS = {"0": "0", "1": "top"}  # witness-order constant -> its value in the source
_BINARY_OPS = {"and": "&", "or": "|", "xor": "^"}
_ONE = Const(True)


def _expand(t: Term, nodes: dict) -> Term:
    """The term over not/and/or/xor/dia alone: mu, d, disc and -> become
    the defining terms eval_term evaluates.  Its nodes are hash-consed in
    ``nodes``: equal subterms are one object and compare at once, so with
    each node's hash cached, expanding is linear in the sentence text."""

    def node(n: Term) -> Term:
        return nodes.setdefault(n, n)

    def neg(x: Term) -> Term:
        if isinstance(x, Const):
            return Const(not x.top)
        if isinstance(x, Unary):  # after expansion every Unary is a negation
            return x.arg
        return node(Unary("not", x))

    def mu(z: Term) -> Term:
        nz = neg(z)
        return node(Binary(
            "and",
            neg(node(Ternary("dia", (_ONE, _ONE, nz)))),
            neg(node(Ternary("dia", (_ONE, nz, _ONE)))),
        ))

    def walk(t: Term) -> Term:
        if isinstance(t, (Const, Var)):
            return t
        if isinstance(t, Unary):
            x = walk(t.arg)
            if t.op == "not":
                return neg(x)
            if t.op == "mu":
                return mu(x)
            if t.op == "d":
                return neg(mu(neg(x)))
        elif isinstance(t, Binary):
            x, y = walk(t.left), walk(t.right)
            if t.op == "->":
                return node(Binary("or", neg(x), y))
            if t.op in _BINARY_OPS:
                return node(Binary(t.op, x, y))
        elif isinstance(t, Ternary):
            x, y, z = (walk(a) for a in t.args)
            if t.op == "dia":
                return node(Ternary("dia", (x, y, z)))
            if t.op == "disc":
                dv = neg(mu(neg(node(Binary("xor", x, y)))))
                return node(Binary("or", node(Binary("and", x, dv)), node(Binary("and", z, neg(dv)))))
        raise EvalError(f"cannot compile term {t!r}")

    return walk(t)


def compile_sweep(
    s: Sentence, order: tuple[str, ...], descending: bool = False, params: tuple[str, ...] = ()
):
    """Compile a sentence to ``sweep(table, top, *params)``.

    The sweep nests one loop per variable of ``order`` (outermost first),
    each over the carrier 0..top (descending when ``descending``), and
    returns the first falsifying tuple of values, in ``order``, or None.
    ``order`` may also name the constants "0" and "1", which loop over
    nothing and stand in the tuple as 0 and top.  ``table`` is a flat
    operator table indexed (a*S+b)*S+c with S = top+1.  The variables
    named in ``params`` are not swept: their values follow ``top`` in the
    call, in the order of ``params``, and stay out of the returned tuple
    and of the loop cap.  Of the sentence, only its variable names enter
    the generated source, checked against the tokenizer's pattern and
    prefixed 'v_'.
    """
    names = tuple(x for x in order if x not in _CONSTANTS)
    if sorted(names + params) != sorted(variables(s)):
        raise EvalError(
            f"sweep order {order} and params {params} must list each variable of the sentence once"
        )
    if len(names) > SWEEP_MAX_VARIABLES:
        raise SizeCapError(f"sweeps are capped at {SWEEP_MAX_VARIABLES} variables")
    for name in names + params:
        if not _VAR_RE.fullmatch(name):
            raise EvalError(f"bad variable name {name!r}")
    n = len(names)
    depth = {name: i + 1 for i, name in enumerate(names)} | dict.fromkeys(params, 0)
    body: list[list[str]] = [[] for _ in range(n + 1)]  # statements per loop
    code: dict = {}  # node -> (local name or literal, loop level)
    nodes: dict = {}  # shared by every side, so equal sides are one node

    def expr(node) -> tuple[str, int]:
        # a compound node is bound once, in the outermost loop that binds
        # all of its variables
        if node not in code:
            if isinstance(node, Const):
                code[node] = ("top" if node.top else "0", 0)
            elif isinstance(node, Var):
                code[node] = (f"v_{node.name}", depth[node.name])
            else:
                if isinstance(node, Unary):
                    template, args = "top ^ {}", (node.arg,)
                elif isinstance(node, Binary):
                    template, args = "{} %s {}" % _BINARY_OPS[node.op], (node.left, node.right)
                elif isinstance(node, Ternary):  # dia; its partial index is a node too
                    template, args = "t[{} + {}]", (("index",) + node.args[:2], node.args[2])
                else:
                    template, args = "({} * S + {}) * S", node[1:]
                parts = [expr(arg) for arg in args]
                level = max(lvl for _, lvl in parts)
                local = f"_{len(code)}"
                body[level].append(f"{local} = " + template.format(*(x for x, _ in parts)))
                code[node] = (local, level)
        return code[node]

    def skip(level: int) -> str:
        return "continue" if level else "return None"

    premises, conclusion = (s.premises, s.conclusion) if isinstance(s, QuasiIdentity) else ((), s)
    for p in premises:
        (x, i), (y, j) = expr(_expand(p.lhs, nodes)), expr(_expand(p.rhs, nodes))
        body[max(i, j)].append(f"if {x} != {y}: {skip(max(i, j))}")
    x, i = expr(_expand(conclusion.lhs, nodes))
    inequality = isinstance(conclusion, Inequality)
    if inequality and i < n:
        body[i].append(f"if not {x}: {skip(i)}")
    y, j = expr(_expand(conclusion.rhs, nodes))
    true_here = f"not ({x} & ~{y})" if inequality else f"{x} == {y}"
    body[max(i, j)].append(f"if {true_here}: {skip(max(i, j))}")
    body[n].append("return (" + "".join(_CONSTANTS.get(x, f"v_{x}") + ", " for x in order) + ")")

    domain = "range(top, -1, -1)" if descending else "range(S)"
    args = ", ".join(["t", "top"] + [f"v_{x}" for x in params])
    lines = [f"def sweep({args}):", "    S = top + 1", f"    R = {domain}"]
    for i, statements in enumerate(body):
        lines += ["    " * (i + 1) + st for st in statements]
        if i < n:
            lines.append("    " * (i + 1) + f"for v_{names[i]} in R:")
    lines.append("    return None")
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", "<sweep>", "exec"), namespace)
    return namespace["sweep"]


@lru_cache(maxsize=256)
def _sweep_plan(s: Sentence):
    """The sentence's variables in order of first appearance, and its
    top-down sweep over them: what holds() runs, built once per sentence."""
    names = tuple(variables(s))
    return names, compile_sweep(s, names, True)


def holds(s: Sentence, op: TernaryOperator) -> tuple[bool, dict[str, int] | None]:
    """Sweep every assignment top-down over the variables in order of first
    appearance; returns (True, None) or the first falsifying assignment."""
    names, sweep = _sweep_plan(s)
    witness = sweep(op.table, op.alg.top)
    if witness is None:
        return True, None
    return False, dict(zip(names, witness))


# ---------------------------------------------------------------------------
# law rows
#
# A law is a tuple of rows (sentence text, witness order, top-down).  Its
# rows are swept in turn and the first violation is the law's witness, in
# the row's order; an order may name the constants 0 and 1.


@lru_cache(maxsize=None)
def law_sweeps(rows: tuple, bound: int = 0) -> tuple:
    """Each row compiled, the first ``bound`` letters of its order bound by
    the caller: sweep(table, top, *prefix) gives the rest of a witness."""
    return tuple(
        compile_sweep(parse(text), tuple(order[bound:]), top_down, tuple(order[:bound]))
        for text, order, top_down in rows
    )


def first_witness(rows: tuple, table, top: int, prefix: tuple = ()) -> tuple | None:
    """The first violation of the rows swept in turn over ``table``, with
    the first letters of each order bound to ``prefix``: the whole
    witness, prefix first, or None if every row holds there."""
    for sweep in law_sweeps(rows, len(prefix)):
        rest = sweep(table, top, *prefix)
        if rest is not None:
            return prefix + rest
    return None


def witness_at(law: str, rows: tuple, table, top: int, prefix: tuple) -> tuple:
    """The whole witness of a law that an exact test found failing at
    ``prefix``, the prefix of its first witness.  A sweep that names none
    means the test and the rows disagree: InternalCheckError, naming the
    law and the prefix."""
    witness = first_witness(rows, table, top, prefix)
    if witness is None:
        raise InternalCheckError.no_witness(law, prefix)
    return witness
