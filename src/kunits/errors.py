"""Exceptions shared by every kunits module."""


class DomainError(ValueError):
    """The input is outside the mathematical domain of the operation."""


class CapabilityError(Exception):
    """The input is valid but exceeds a configured working bound.

    Raised instead of ever returning a wrong or unverified answer; the
    message names the bound that was hit.  A refusal by the work budget of
    a factoring call carries its ``limit`` and the ``used`` count, in
    modular multiplications; every other refusal carries None for both.
    """

    def __init__(self, message: str, *, limit: int | None = None, used: int | None = None):
        super().__init__(message)
        self.limit, self.used = limit, used
