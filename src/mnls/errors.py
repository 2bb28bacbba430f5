"""Exception types shared across the package, and the number check behind
the config errors."""

import numbers


def is_real(value) -> bool:
    """Whether a config value is a real number: JSON true and "2" are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class MnlsError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimension(MnlsError):
    """Grid dimension other than 1 or 2."""


class InvalidResolution(MnlsError):
    """Grid resolution that is not a power of two >= 8."""


class WrongDimension(MnlsError):
    """Profile requested on a grid of incompatible dimension."""


class TimePastBlowup(MnlsError):
    """Pseudo-conformal profile sampled at or past its blowup time."""


class NegativeTime(MnlsError):
    """Management map queried at a negative time."""


class EmptyWindow(MnlsError):
    """Layer partition requested over an empty or inverted window."""


class NonFiniteState(MnlsError):
    """Non-finite field values appeared without a prior policy trigger."""


class InsufficientSamples(MnlsError):
    """Not enough samples in any layer to form centered differences."""


class BlowupDuringConstruction(MnlsError):
    """Backward construction halted by the blowup policy.

    Carries the detection time and the auxiliary trajectory log so the
    caller can inspect how far the construction got.
    """

    def __init__(self, t_detect, log=None):
        super().__init__(f"blowup during construction at t={t_detect:.6g}")
        self.t_detect = t_detect
        self.log = log


class ConfigError(MnlsError):
    """Malformed or contradictory run configuration."""


class MissingColumn(MnlsError):
    """Requested series column not present in the file."""


class EmptySeries(MnlsError):
    """Series file holds no data rows."""


class UnreadableSeries(MnlsError):
    """Series file that is missing, or holds a short row or a non-numeric cell."""


class CorruptSnapshot(MnlsError):
    """Field snapshot with a bad magic, an unknown version or a short payload."""
