"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: malformed input and math-domain
violations exit 2, enumeration budgets exit 3, verification failures and
quadratures or iterations that do not converge (NumericsError) exit 1.
"""

from __future__ import annotations

from contextlib import contextmanager


class AnticoncError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AnticoncError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class InputError(AnticoncError, ValueError):
    """Malformed instance, config, or file input.  The message names the field."""


class CapacityError(AnticoncError):
    """An enumeration or sampling budget would be exceeded."""


class ClassCapError(DomainError):
    """A convex body holds more lattice points than its declared cap."""


class NumericsError(AnticoncError):
    """A quadrature or iterative scheme failed to converge to tolerance."""


class ChainViolationError(AnticoncError):
    """A pointwise inequality in the characteristic-function chain failed.

    Carries the offending grid point so callers can report a counterexample.
    """

    def __init__(self, label: str, t, lhs: float, rhs: float):
        self.label = label
        self.t = t
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        super().__init__(
            f"{label} violated at t={t!r}: lhs={lhs!r} > rhs={rhs!r}"
        )


@contextmanager
def naming_instance(instance_id: str):
    """Prefix ``instance 'ID': `` to the message of a package error raised
    inside, keeping its class (and so the CLI's exit code) and its fields."""
    try:
        yield
    except AnticoncError as exc:
        exc.args = (f"instance {instance_id!r}: {exc}",)
        raise


@contextmanager
def naming_field(name: str, error=InputError):
    """Prefix ``name: `` to the message of a DomainError or InputError raised
    inside and raise it as ``error``: a loader names the JSON object or field
    it reads and reports InputError, a constructor keeps DomainError."""
    try:
        yield
    except (DomainError, InputError) as exc:
        raise error(f"{name}: {exc}") from exc
