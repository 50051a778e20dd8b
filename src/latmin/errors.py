"""Exception hierarchy.

InputError subclasses signal bad or unsupported input (CLI exit code 3);
an enumeration over its budget raises BudgetExceededError (CLI exit code
4); a failed soundness check raises CertificateError (CLI exit code 2).
"""


class LatminError(Exception):
    """Base class for all structured errors raised by this package."""


class InputError(LatminError):
    pass


class RankError(InputError):
    """Input rows/matrix do not have the required rank."""


class NotSublatticeError(InputError):
    """A lattice that must be contained in another is not."""


class UnsupportedBodyError(InputError):
    """Operation defined only for a restricted body class (box, cube, ...)."""


class MissingSectionError(InputError):
    """Section volumes or related caller-supplied data are absent."""


class EmptyAdmissibleSetError(InputError):
    """The forbidden sublattices cover the whole lattice."""


class PackingConditionError(InputError):
    """Dilate too large for the exact torus-volume identity.

    Use the torus volume lower bound instead of the packing identity.
    """


class BudgetExceededError(LatminError):
    """Enumeration would visit more points than the configured budget."""


class CertificateError(LatminError):
    """A soundness check failed: a proved identity or bound did not hold.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """
