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
import sys

import numpy as np

from .errors import BadParameter, BadWindow, IndexOut, OutOfDomain, count_text
from .intensity import _T_SLACK, _extent, _integral, _window


def tilted_cdf(lam, t):
    """CDF at t of the density on [0, 1] proportional to exp(lam * s).

    (exp(lam*t) - 1) / (exp(lam) - 1), extended continuously through lam = 0
    where it is the identity.  Increasing in t, decreasing in lam, fixed at 0 and 1
    at the window ends; a non-finite tilt raises :class:`~countbridge.errors.OutOfDomain`.
    """
    return tilted_cdf_window(lam, 0.0, 1.0, t)


def _tilt(lam):
    """``lam`` as a float; a NaN, an infinity or an int past the float range raises OutOfDomain."""
    if not abs(lam) <= sys.float_info.max:
        raise OutOfDomain(f"the tilt over the window must be finite, got {count_text(lam)}")
    return float(lam)


def _tilted(theta, c, c1):
    """The tilted CDF at the finite tilt theta of fractions c in [0, 1], given with c1 =
    c - 1: expm1(theta c) / expm1(theta) below 0, its reflection e^(theta c1) expm1(-theta
    c) / expm1(-theta) above, so that no exponential overflows, and c where |theta| is
    below the normal floats."""
    if abs(theta) < np.finfo(float).tiny:
        return c
    if theta < 0.0:
        # clipped: np.expm1 and math.expm1 may round apart by an ulp at c = 1
        return np.clip(np.expm1(theta * c) / math.expm1(theta), 0.0, 1.0)
    # one np.expm1 forms both, so the ratio is 1 at c = 1
    return np.clip(np.exp(theta * c1) * np.expm1(-theta * c) / np.expm1(-theta), 0.0, 1.0)


def tilted_quantile(lam, p):
    """The t in [0, 1] at which :func:`tilted_cdf` reaches p: its inverse in t.

    log1p(w) / lam, w = p (e^lam - 1), below 0 and 1 + log1p(w) / lam, w = (1 - p)
    (e^-lam - 1), above, clipped to [0, 1]; p where |lam| is below the normal floats.
    Where w < -1/2, 1 + w would cancel the rounding of w, so it is formed as a sum of
    positives, and the far end (p = 1 below 0, p = 0 above) is exact.  A non-finite
    tilt raises :class:`~countbridge.errors.OutOfDomain`.
    """
    return _quantile(_tilt(lam), np.array(p, dtype=float))


def _quantile(lam, t):
    """:func:`tilted_quantile` at a finite ``lam``, worked in place on ``t``, which holds
    p on entry; the one other array is of the entries where 1 + w cancels."""
    if abs(lam) < np.finfo(float).tiny:
        return t
    # w = q m, q = p below 0 and 1 - p above; where w < -1/2 (q > -1/(2 m)) 1 + w cancels
    # and is formed as qc (1 - e^-|lam|) + e^-|lam|, qc = 1 - q exact (p > 1/2 below 0, p above)
    m = math.expm1(-abs(lam))
    far = np.flatnonzero(t > -0.5 / m if lam < 0.0 else t < 1.0 + 0.5 / m)
    ends, qc = np.flatnonzero(t == float(lam < 0.0)), t.take(far)
    np.subtract(1.0, qc if lam < 0.0 else t, out=qc if lam < 0.0 else t)
    qc *= -m
    qc += math.exp(-abs(lam))
    t *= m
    with np.errstate(divide="ignore"):  # w = -1 past |lam| of about 37, e^-|lam| = 0 past 745
        np.log1p(t, out=t)
        t.put(far, np.log(qc, out=qc))
    t /= lam
    if lam > 0.0:
        t += 1.0
    t.put(ends, float(lam < 0.0))
    return np.clip(t, 0.0, 1.0, out=t)


def _fractions(s, u, t):
    """The fractions c = (t - s) / (u - s) and c - 1 = (t - u) / (u - s) of the times t
    in the window [s, u].  The window is read by the one window rule (``_window``); a
    time outside it by more than _T_SLACK raises BadWindow, a NaN time BadParameter."""
    s, u = _window(s, u)
    t = np.asarray(t, dtype=float)
    lo, hi = _extent("time", t)
    if lo < s - _T_SLACK or hi > u + _T_SLACK:
        raise BadWindow("t outside the window")
    return np.clip((t - s) / (u - s), 0.0, 1.0), np.clip((t - u) / (u - s), -1.0, 0.0)


def tilted_cdf_window(lam, s, u, t):
    """Tilted CDF on a general window [s, u].

    (exp(lam*(t-s)) - 1) / (exp(lam*(u-s)) - 1); identical to rescaling the
    window to [0, 1] and the tilt to lam*(u-s).
    """
    lam, (c, c1) = _tilt(lam), _fractions(s, u, t)
    out = _tilted(lam * (float(u) - float(s)), c, c1)
    return float(out) if out.ndim == 0 else out


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
    n = _integral("n", n)
    if n < 0:
        raise BadParameter(f"n must be a nonnegative integer, got {count_text(n)}")
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
    """Per entry of the 1-D ``p``, the Binomial(n, p) pmf relative to the mode's: the
    ratios at and past the mode summed forward in the output, those before it backward
    in their own buffer, each in place, so that it holds two table-sized arrays."""
    q = p[:, None]
    k = np.arange(n)
    # log p = -inf at p = 0 and log1p(-p) = -inf at p = 1 give ratios of -inf and
    # +inf, whose sums put all the mass on k = 0 and k = n
    with np.errstate(divide="ignore"):
        ratio = np.log((n - k) / (k + 1.0)) + (np.log(q) - np.log1p(-q))
    past = k >= np.minimum(np.floor((n + 1) * q), n)
    logpmf = np.zeros((q.shape[0], n + 1))
    up, down = logpmf[:, 1:], ratio[:, ::-1]
    np.copyto(up, ratio, where=past)
    np.cumsum(up, axis=1, out=up)
    ratio[past] = 0.0
    np.cumsum(down, axis=1, out=down)
    logpmf[:, :-1] -= ratio
    return np.exp(logpmf, out=logpmf)


def binomial_rows(n, p):
    """The Binomial(n, p) pmf over k = 0..n per entry of the 1-D ``p``: the relative
    pmf of :func:`binomial_tail` over its sum, so p = 0 and p = 1 are point masses."""
    rows = _relative_pmf(n, p)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _clock(model, spec):
    """The tilt theta = b (tau(u) - tau(s)) of an ``ExpAffine`` bridge's law over [s, u]
    on its clock tau(t) = expm1(lam t) / lam: 0 at b = 0, and b (u - s) where lam (u - s)
    is below the normal floats, where the clock is the window's time.  A bridge that
    starts below the model's state floor, or a theta not finite, raises OutOfDomain."""
    if spec.x < model.state_floor:
        raise OutOfDomain(f"state below floor {count_text(model.state_floor)}")
    lam, b = model.lam, model.b
    if b == 0.0 or abs(lam * spec.length) < np.finfo(float).tiny:
        return b * spec.length
    with np.errstate(over="ignore"):
        theta = b * np.exp(lam * spec.s) * np.expm1(lam * spec.length) / lam
    if not np.isfinite(theta):
        raise OutOfDomain(f"the bridge's clock CDF is not finite: its tilt over the window,"
                          f" b (tau(u) - tau(s)), is {theta:g} at b = {b:g}, lambda = {lam:g}")
    return theta


def clock_cdf(model, spec, t):
    """p(t) of an ``ExpAffine`` bridge, X_t - x being Binomial(n, p(t)): the tilted CDF
    (:func:`_tilted`) at the law's tilt theta (:func:`_clock`) of the clock fraction c =
    expm1(lam (t - s)) / expm1(lam (u - s)), itself the tilted CDF at lam (u - s) of the
    window's fraction, with c - 1 minus the reflected profile, so that nothing overflows
    or cancels.  A time outside the window raises BadWindow, a NaN one BadParameter."""
    x, x1 = _fractions(spec.s, spec.u, t)
    tilt = model.lam * spec.length
    return _tilted(_clock(model, spec), _tilted(tilt, x, x1), -_tilted(-tilt, -x1, -x))


def clock_quantile(model, spec, q):
    """The t at which :func:`clock_cdf` reaches q: the clock fraction tilted_quantile(theta,
    q) taken back through the clock by :func:`tilted_quantile` at lam (u - s), both worked
    in place on one copy of q.  A theta past the float range raises OutOfDomain."""
    clock = _quantile(_clock(model, spec), np.array(q, dtype=float))
    return spec.s + spec.length * _quantile(model.lam * spec.length, clock)
