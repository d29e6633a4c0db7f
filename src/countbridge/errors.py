"""Exception types shared across the library."""


class CountBridgeError(Exception):
    """Base class for every error raised by this package."""


class OutOfDomain(CountBridgeError):
    """Evaluation requested outside the model's time or state domain."""


class TabulationGap(OutOfDomain):
    """A tabulated rate model does not cover the requested grid point."""


class EmptyRange(CountBridgeError):
    """A state range with no states in it."""


class BadWindow(CountBridgeError):
    """A time window with s >= u, or a time outside the window."""


class IndexOut(CountBridgeError):
    """Tail index outside {0, ..., n}."""


class BadStep(CountBridgeError):
    """Integration step too large for the requested window."""


class Underflow(CountBridgeError):
    """A pin probability was queried where the mesh does not resolve it."""


class ConservationLoss(CountBridgeError):
    """Probability mass drifted beyond tolerance during forward integration."""


class GridTooCoarse(CountBridgeError):
    """Not enough grid points for the requested difference stencil."""


class NotSorted(CountBridgeError):
    """Jump-time vector is not strictly increasing."""


class PinMiss(CountBridgeError):
    """A sampled bridge path did not land on its endpoint."""


class DegenerateVariance(CountBridgeError):
    """A Monte Carlo comparison with zero variance but differing means."""


class ResourceCap(CountBridgeError):
    """Requested experiment exceeds the configured work budget."""
