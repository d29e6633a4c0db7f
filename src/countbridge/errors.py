"""Exception types shared across the library, and the one way a refusal quotes a value."""

import numpy as np


def count_text(value):
    """A caller's value as a refusal quotes it: its repr, but an int of a million or more
    as ``format(value, ".3g")`` prints it (past the float range, its Decimal); a numpy
    scalar is quoted as its Python value."""
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, int) or abs(value) < 10 ** 6:
        return repr(value)
    if abs(value) > 2 ** 1000:
        from decimal import Decimal
        value = Decimal(value)
    return format(value, ".3g")


def check_keys(error, what, given, required, optional=()):
    """``given`` if a dict with every key of ``required`` and no other but ``optional``'s; else
    an ``error`` naming the unexpected and the missing keys, sorted (a non-dict has none)."""
    keys = set(given) if isinstance(given, dict) else set()
    extra, missing = (sorted(ks, key=str) for ks in (keys - {*required, *optional}, {*required} - keys))
    if extra or missing:
        what += "" if isinstance(given, dict) else " (not an object)"
        raise error(f"{what}: unexpected {', '.join(map(count_text, extra)) or 'none'}; "
                    f"missing {', '.join(map(count_text, missing)) or 'none'}")
    return given


class CountBridgeError(Exception):
    """Base class for every error raised by this package."""


class OutOfDomain(CountBridgeError):
    """Evaluation requested outside the model's time or state domain."""


class TabulationGap(OutOfDomain):
    """A tabulated rate model does not cover the requested grid point."""


class BadWindow(CountBridgeError):
    """A time window with s >= u, or a time outside the window."""


class IndexOut(CountBridgeError):
    """Tail index outside {0, ..., n}."""


class BadStep(CountBridgeError):
    """Integration step too large for the requested window."""


class Underflow(CountBridgeError):
    """The remaining integrated rate underflows to 0 before u: no log to grade a mesh by."""


class BadParameter(CountBridgeError, ValueError):
    """A value a function cannot use, e.g. a NaN rate; a ValueError too."""


class BadOption(CountBridgeError):
    """A command option whose value the command cannot use, e.g. a NaN tolerance."""


class ConservationLoss(CountBridgeError):
    """Probability mass drifted beyond tolerance during forward integration."""


class NotSorted(CountBridgeError):
    """Jump-time vector is not strictly increasing."""


class PinMiss(CountBridgeError):
    """A sampled bridge path did not land on its endpoint."""


class DegenerateVariance(CountBridgeError):
    """A Monte Carlo comparison with zero variance but differing means."""


class ResourceCap(CountBridgeError):
    """Requested experiment exceeds the configured work budget."""


class TooFewSamples(CountBridgeError):
    """A Monte Carlo estimate was asked for with fewer samples than it needs."""
