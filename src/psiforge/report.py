"""Per-axiom pass/fail reports with violation witnesses.

Every checker in the package returns a CheckReport.  A failed axiom always
carries a concrete witness tuple that re-evaluates to a violation; a passed
axiom means the law's exact test, or its documented sweep, found none.
Failures are data, not errors.

This module is the one path from a verdict to a report.  result() turns a
witness or None into an AxiomResult and is the only place one is built.
decided() takes the answer of a law's exact whole-table decider, None or
the prefix of its first witness, and names the rest of the witness by
terms.witness_at; swept() sweeps a law's rows in full by
terms.first_witness.  Module terms is imported only by those two, at
first use, and decided() needs it only for a failing law, so a check
whose exact deciders all pass compiles no sentence.
CheckReport.require raises at a report's first failed axiom.

Record is the frozen value base of psiforge's structures, reports and term
nodes; cached_hash is the hash the large ones keep.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import wraps
from operator import attrgetter

# The memo of the scoreboard run in progress, None outside one:
# verify.run_suite sets it to a fresh dict and restores it when the run ends.
_run_memo: dict | None = None


def run_memo(fn):
    """Decide each distinct argument tuple once per scoreboard run.

    While a run is open the result is stored under (fn, args), which the
    frozen arguments hash by value (the large ones once, by cached_hash),
    and returned for equal arguments; a
    call that raises stores nothing.  Outside a run every call computes.
    """

    @wraps(fn)
    def memoised(*args):
        memo = _run_memo
        if memo is None:
            return fn(*args)
        key = (fn, args)
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = fn(*args)
            return out

    return memoised


class Record:
    """A frozen record of named fields, made without generating code.

    A subclass names its fields by annotations, in order, each trailing
    one optionally with a class-level default; they are read once, when
    the class is made.  A record is built by position or keyword; a class
    that checks its fields defines its own __init__, which sets them with
    object.__setattr__.  It equals a record of the same class with
    equal fields, hashes as the tuple of its fields and reprs as
    Class(field=value, ...), all as a frozen dataclass would.  Assigning
    or deleting an attribute raises FrozenInstanceError.  Computed values
    are kept on the instance outside the fields: a cached_property, and
    the hash cached_hash keeps.
    """

    _fields: tuple[str, ...] = ()
    _hash: int | None = None  # set by cached_hash

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments: {', '.join(kwargs)}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        """The instance __dict__ less the kept hash, which holds only in
        the process that computed it (string hashes are salted per
        process)."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def cached_hash(obj: Record) -> int:
    """The hash of a record's fields, computed on first use and kept on
    the instance, outside the fields.  It is the __hash__ of the
    structures the run memo is keyed by, whose tables and bitsets would
    otherwise be rehashed on every lookup, and of the term nodes, which
    share subterms."""
    h = obj._hash
    if h is None:
        h = hash(obj._values(obj))
        # set as an attribute, not through obj.__dict__: reading __dict__
        # makes CPython move the attributes into a dict, which slows every
        # later field load about threefold
        object.__setattr__(obj, "_hash", h)
    return h


# a dataclass, not a Record: bench/check_gates.py builds altered results
# with dataclasses.replace
@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    witness: tuple[int, ...] | None = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {"axiom": self.axiom, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.note:
            out["note"] = self.note
        return out


class CheckReport(Record):
    structure_kind: str
    results: tuple[AxiomResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.passed]

    def require(self, error: type[Exception], context: str) -> None:
        """Raise error("<context>; <axiom> fails at <witness>") at the first
        failed axiom, if any."""
        if not self.passed:
            bad = self.failures()[0]
            raise error(f"{context}; {bad.axiom} fails at {bad.witness}")

    def to_json(self) -> dict:
        return {
            "kind": self.structure_kind,
            "passed": self.passed,
            "results": [r.to_json() for r in self.results],
        }


def result(axiom: str, witness: tuple[int, ...] | None, note: str = "") -> AxiomResult:
    """Passed when the witness is None, else failed at it."""
    return AxiomResult(axiom, witness is None, witness, note)


def first_violation(axiom: str, violations, note: str = "") -> AxiomResult:
    """Result from a generator of violation witnesses; the first one wins,
    so the generator's iteration order fixes the reported witness."""
    return result(axiom, next((tuple(w) for w in violations), None), note)


def decided(axiom: str, prefix: tuple | None, rows: tuple, table, top: int) -> AxiomResult:
    """A law's result from its exact decider's answer: passed when the
    prefix is None, else failed at the witness that terms.witness_at names
    by sweeping the law's rows past the prefix."""
    if prefix is None:
        return result(axiom, None)
    # imported at first use: terms imports the checkers, and a law that
    # holds compiles no sentence
    from .terms import witness_at

    return result(axiom, witness_at(axiom, rows, table, top, prefix))


def swept(axiom: str, rows: tuple, table, top: int, prefix: tuple = (), note: str = "") -> AxiomResult:
    """A law's result from its rows swept in full by terms.first_witness,
    with the first letters of each witness order bound to the prefix."""
    from .terms import first_witness

    return result(axiom, first_witness(rows, table, top, prefix), note)
