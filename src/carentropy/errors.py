"""Exception types shared across the package: every refusal that carentropy
raises itself is a :class:`CarError`, a ``ValueError``; numpy's errors for an
argument passed straight through (a bad ``seed``) stay numpy's."""

__all__ = ["CarError", "NotAStateError", "CapacityError", "ExtensionError"]


class CarError(ValueError):
    """Base class of every refusal carentropy raises: bad input or a broken region rule."""


class NotAStateError(CarError):
    """A claimed density or factor is not a state: a non-finite entry, a
    non-Hermitian density, a genuinely negative eigenvalue, or a trace that
    is not 1."""


class CapacityError(CarError):
    """A request exceeds a fixed capacity: a purification partner region too
    small for the rank, or a monomial basis larger than ``MAX_BASIS_BYTES``."""


class ExtensionError(CarError):
    """A state extension does not exist for the given inputs."""
