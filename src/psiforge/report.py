"""Per-axiom pass/fail reports with violation witnesses.

Every checker in the package returns a CheckReport.  A failed axiom always
carries a concrete witness tuple that re-evaluates to a violation; a passed
axiom means the documented quantifier sweep found none.  Failures are data,
not errors.
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
    frozen arguments hash by value, and returned for equal arguments; a
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


def passed(axiom: str, note: str = "") -> AxiomResult:
    return AxiomResult(axiom, True, None, note)


def failed(axiom: str, witness: tuple[int, ...], note: str = "") -> AxiomResult:
    return AxiomResult(axiom, False, witness, note)


def first_violation(axiom: str, violations, note: str = "") -> AxiomResult:
    """Result from a generator of violation witnesses; the first one wins,
    so the generator's iteration order fixes the reported witness."""
    for w in violations:
        return failed(axiom, tuple(w), note)
    return passed(axiom, note)
