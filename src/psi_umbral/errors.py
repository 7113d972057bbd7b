"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the command line
layer can emit structured reports without string matching.
"""


class PsiUmbralError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self):
        doc = {"code": self.code, "message": self.message}
        if self.details:
            doc["details"] = {k: str(v) for k, v in sorted(self.details.items())}
        return doc


class AdmissibilityError(PsiUmbralError):
    """A weight sequence has a zero or undefined entry where one is required."""

    code = "admissibility"


class CapExceededError(PsiUmbralError):
    """A computation needs data beyond the truncation cap it was given."""

    code = "cap_exceeded"


class CompositionError(PsiUmbralError):
    """Series substitution with a nonzero constant term on the inner series."""

    code = "composition"


class NonInvertibleError(PsiUmbralError):
    """Inversion or reversion applied to a series that has no inverse."""

    code = "non_invertible"


class SelfCheckError(PsiUmbralError):
    """An internal cross-check of a computed result failed.

    An exception rather than a bare check, so it survives ``python -O``.
    """

    code = "self_check"


class NotDegreeLoweringError(PsiUmbralError):
    """An operator expected to lower degree by exactly one does not."""

    code = "not_degree_lowering"


class NotShiftInvariantError(PsiUmbralError):
    """An operator expected to commute with the reference derivative does not."""

    code = "not_shift_invariant"


class ExprParseError(PsiUmbralError):
    """Operator expression could not be parsed; ``position`` is 0-based."""

    code = "parse"

    def __init__(self, message, position):
        super().__init__(message, position=position)
        self.position = position


class JobSpecError(PsiUmbralError):
    """A JSON job description failed validation; ``pointer`` locates the value."""

    code = "job_spec"

    def __init__(self, message, pointer=""):
        super().__init__(message, pointer=pointer)
        self.pointer = pointer
