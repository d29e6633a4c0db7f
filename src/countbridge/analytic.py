"""Closed forms for constant-characteristic bridges.

For a bridge whose characteristic is identically lam, each jump time is an
independent draw from the exponentially tilted density on the window
(density proportional to exp(lam * t)), so the one-time marginal of the
bridge is binomial with success probability given by the tilted CDF.  These
formulas are the benchmarks that every numerical route in the package is
measured against.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import BadParameter, BadWindow, IndexOut, OutOfDomain

# Below this, (exp(lam*t)-1)/(exp(lam)-1) is replaced by its expansion around
# lam = 0 to dodge 0/0 noise: t + lam*t*(t-1)/2 + O(lam^2).
_SMALL_LAM = 1e-6


def tilted_cdf(lam, t):
    """CDF at t of the density on [0, 1] proportional to exp(lam * s).

    (exp(lam*t) - 1) / (exp(lam) - 1), extended continuously through lam = 0
    where it is the identity.  Increasing in t, decreasing in lam, fixed at
    0 and 1 at the window ends.  A non-finite tilt, or one whose e^lam
    overflows (above about 709.78), raises :class:`~countbridge.errors.OutOfDomain`.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise BadWindow("t outside [0, 1]")
    lam = float(lam)
    if abs(lam) < _SMALL_LAM:
        out = t + lam * t * (t - 1.0) / 2.0
    else:
        scale = _tilt_scale(lam)
        # np.expm1 and math.expm1 may round apart by an ulp, which would put the
        # ratio just past 1 at t = 1
        out = np.clip(np.expm1(lam * t) / scale, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _tilt_scale(lam):
    """e^lam - 1; a non-finite tilt, or one whose e^lam overflows, raises OutOfDomain."""
    if not math.isfinite(lam):
        raise OutOfDomain(f"the tilt over the window must be finite, got {lam}")
    try:
        return math.expm1(lam)
    except OverflowError:
        raise OutOfDomain(f"the tilt over the window, {lam:g}, overflows exp;"
                          " it must stay below about 709.78") from None


def tilted_quantile(lam, p):
    """The t in [0, 1] at which :func:`tilted_cdf` reaches p: its inverse in t.

    log1p(p (e^lam - 1)) / lam, clipped to [0, 1]; where |lam| < _SMALL_LAM,
    the inverse of tilted_cdf's own expansion there, p + lam p (1 - p) / 2.
    A non-finite tilt, or one whose e^lam overflows, raises
    :class:`~countbridge.errors.OutOfDomain`.
    """
    p = np.asarray(p, dtype=float)
    lam = float(lam)
    if abs(lam) < _SMALL_LAM:
        return p + lam * p * (1.0 - p) / 2.0
    # below lam of about -37, e^lam - 1 rounds to -1, so p = 1 gives log1p(-1)
    with np.errstate(divide="ignore"):
        return np.clip(np.log1p(p * _tilt_scale(lam)) / lam, 0.0, 1.0)


def tilted_cdf_window(lam, s, u, t):
    """Tilted CDF on a general window [s, u].

    (exp(lam*(t-s)) - 1) / (exp(lam*(u-s)) - 1); identical to rescaling the
    window to [0, 1] and the tilt to lam*(u-s).
    """
    s, u = float(s), float(u)
    if not (0.0 <= s < u <= 1.0 + 1e-12):
        raise BadWindow(f"bad window [{s}, {u}]")
    t = np.asarray(t, dtype=float)
    if np.any(t < s - 1e-12) or np.any(t > u + 1e-12):
        raise BadWindow("t outside the window")
    return tilted_cdf(lam * (u - s), np.clip((t - s) / (u - s), 0.0, 1.0))


def binomial_tail(n, p, i):
    """Upper tail P(X >= i) of the binomial law with n trials and success probability p.

    p and i broadcast together; i = 0 gives exactly 1, and scalars give a float.
    Each distinct p gets one row of tails over k = 0..n, so the work and memory
    are (distinct p) x (n + 1).  A row sums the log pmf ratios
    log((n - k) / (k + 1)) + log p - log1p(-p) outward from the mode
    floor((n + 1) p), which gives each log pmf relative to the mode's, takes
    their exponentials and divides their reversed cumulative sum by its total;
    p = 0 and p = 1 come out exact.  Against scipy's betainc, over 355 values of
    p (0, 1, 1e-300 and 1 - 1e-16 among them), it is within 1.5e-14 absolute at
    n = 2,000 and 5.8e-14 at n = 10,000, and within 9.0e-13 and 2.0e-12
    relative where the tail is above 1e-200.  An n that is not a nonnegative
    integer, or a p outside [0, 1], raises BadParameter, and an i outside 0..n
    :class:`~countbridge.errors.IndexOut`.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise BadParameter(f"n must be a nonnegative integer, got {n!r}")
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise BadParameter("p must lie in [0, 1]")
    i = np.asarray(i, dtype=np.int64)
    bad = i[(i < 0) | (i > n)]
    if bad.size:
        raise IndexOut(f"tail index {bad[0]} outside 0..{n}")
    q, row = np.unique(p, return_inverse=True)
    tails = np.cumsum(_relative_pmf(n, q)[:, ::-1], axis=1)[:, ::-1]
    out = (tails / tails[:, :1])[row.reshape(p.shape), i]
    return float(out) if out.ndim == 0 else out


def _relative_pmf(n, p):
    """Per entry of the 1-D ``p``, the Binomial(n, p) pmf relative to the mode's."""
    q = p[:, None]
    k = np.arange(n)
    # log p = -inf at p = 0 and log1p(-p) = -inf at p = 1 give ratios of -inf and
    # +inf, whose sums put all the mass on k = 0 and k = n
    with np.errstate(divide="ignore"):
        ratio = np.log((n - k) / (k + 1.0)) + (np.log(q) - np.log1p(-q))
    mode = np.minimum(np.floor((n + 1) * q), n)
    logpmf = np.zeros((q.shape[0], n + 1))
    logpmf[:, 1:] = np.cumsum(np.where(k >= mode, ratio, 0.0), axis=1)
    logpmf[:, :-1] -= np.cumsum(np.where(k < mode, ratio, 0.0)[:, ::-1], axis=1)[:, ::-1]
    return np.exp(logpmf, out=logpmf)


def binomial_rows(n, p):
    """The Binomial(n, p) pmf over k = 0..n per entry of the 1-D ``p``: the relative
    pmf of :func:`binomial_tail` over its sum, so p = 0 and p = 1 are point masses."""
    rows = _relative_pmf(n, p)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _clock(model, spec):
    """An ``ExpAffine`` clock's own tilt lam and its law's tilt theta = b (tau(u) - tau(s))
    over [s, u]; lam + b and 0 if b is 0 or lam (u - s) is below the normal floats, where
    the clock is the window's time.  A theta not finite raises OutOfDomain."""
    lam, b = model.lam, model.b
    if b == 0.0 or abs(lam * spec.length) < np.finfo(float).tiny:
        return lam + b, 0.0
    with np.errstate(over="ignore"):
        theta = b * np.exp(lam * spec.s) * np.expm1(lam * spec.length) / lam
    if not np.isfinite(theta):
        raise OutOfDomain(f"the bridge's clock CDF is not finite: its tilt over the window,"
                          f" b (tau(u) - tau(s)), is {theta:g} at b = {b:g}, lambda = {lam:g}")
    return lam, theta


def clock_cdf(model, spec, t):
    """p(t) of an ``ExpAffine`` bridge, X_t - x being Binomial(n, p(t)): on the clock tau(t)
    = expm1(lam t) / lam, the CDF at the tilt theta (:func:`_clock`) of the clock fraction
    v / w = expm1(lam (t - s)) / expm1(lam (u - s)), formed so that nothing overflows, or
    below _SMALL_LAM :func:`tilted_cdf` at theta of its profile :func:`tilted_cdf_window`."""
    tilt, theta = _clock(model, spec)
    if theta < _SMALL_LAM:
        return tilted_cdf(theta, tilted_cdf_window(tilt, spec.s, spec.u, t))
    # one np.expm1 forms both, so v = w at t = u and p(u) = 1 at any theta
    v, w = (np.expm1(tilt * (np.asarray(r, float) - spec.s)) for r in (t, spec.u))
    p = np.exp(theta * ((v - w) / w)) * np.expm1(-theta * (v / w)) / np.expm1(-theta)
    return np.clip(p, 0.0, 1.0)


def clock_quantile(model, spec, q):
    """The t at which :func:`clock_cdf` reaches q: the clock fraction 1 - tilted_quantile(
    -theta, 1 - q), so that e^theta is never formed (q at theta = 0), taken back through the
    clock by :func:`tilted_quantile`.  A tilt past the float range raises OutOfDomain."""
    tilt, theta = _clock(model, spec)
    if theta:
        q = 1.0 - tilted_quantile(-theta, 1.0 - np.asarray(q, float))
    return spec.s + spec.length * tilted_quantile(tilt * spec.length, q)


def mean_upper_bound(spec, lam, t):
    """Upper bound for the bridge mean at time t when lam bounds the characteristic below.

    x + (y - x) * tilted CDF of the window; exact (not just a bound) when the
    characteristic is identically lam.
    """
    p = tilted_cdf_window(lam, spec.s, spec.u, t)
    out = spec.x + (spec.y - spec.x) * np.asarray(p)
    return float(out) if out.ndim == 0 else out
