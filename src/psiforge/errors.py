"""Exception types shared across the package."""


class PsiforgeError(Exception):
    """Base class for all errors raised by this package."""


class SizeCapError(PsiforgeError):
    """A requested construction or sweep exceeds its documented size cap."""


class PreconditionError(PsiforgeError):
    """A checker was invoked on input that fails its documented precondition."""


class InternalCheckError(PsiforgeError):
    """A property that must hold by construction failed; indicates a bug."""

    @classmethod
    def no_witness(cls, law: str, at: tuple) -> "InternalCheckError":
        """The error for an exact test that found ``law`` failing at
        ``at`` while the sweep that names its witness finds none: the
        test and the sweep disagree."""
        return cls(f"{law} fails its exact test at {at} but its sweep names no witness")


class ParseError(PsiforgeError):
    """Syntax error in the term language, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(PsiforgeError):
    """Term evaluation failed (unassigned variable, wrong operator)."""
