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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

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


def cached_hash(obj) -> int:
    """The hash of a frozen dataclass's fields, computed on first use and
    kept on the instance, outside the fields.  It is the __hash__ of the
    structures the run memo is keyed by, whose tables and bitsets would
    otherwise be rehashed on every lookup, and of the term nodes, which
    share subterms."""
    cache = obj.__dict__
    h = cache.get("_hash")
    if h is None:
        h = cache["_hash"] = hash(tuple(map(cache.__getitem__, obj.__dataclass_fields__)))
    return h


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


@dataclass(frozen=True)
class CheckReport:
    structure_kind: str
    results: tuple[AxiomResult, ...] = field(default_factory=tuple)

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
