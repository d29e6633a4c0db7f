"""Jump intensities of Markov counting processes on the unit time interval.

A model gives the rate of the next +1 jump at time t in state z, read one
state's column at a time by ``rate_columns``, and the characteristic

    char(t, z) = d/dt log rate(t, z) + rate(t, z+1) - rate(t, z),

assembled from the rate and its exact time derivative.  It is the quantity that
determines the law of the pinned (bridge) process, and every bound checked by
:mod:`countbridge.verify` is a bound on it.  The parametric rates form one family,
exp(lam t) (a + b z), whose characteristic lam + b exp(lam t) is free of the
state; constant rates, rates linear in the state and rates exponential in time
have a constant characteristic and serve as closed-form benchmarks throughout.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, BadWindow, OutOfDomain, TabulationGap, check_keys, count_text

_T_SLACK = 1e-12


def _finite_real(name, value):
    """``value`` unchanged if it is a finite real number, not a bool; else a
    BadParameter naming ``name``."""
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise BadParameter(f"{name} must be a finite real number, got {count_text(value)}")
    return value


def _integral(name, value):
    """``value``, an integer but not a bool (nor 2.0), as an int; else a BadParameter."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise BadParameter(f"{name} must be an integer, got {count_text(value)}")
    return int(value)


def _window(s, u):
    """The window [s, u] as floats, 0 <= s < u <= 1: an end that is not a real number (a
    bool included) is a BadParameter naming it, any other window a BadWindow quoting both
    ends (a NaN or infinite end, or an int past the float range, among them)."""
    for name, end in (("s", s), ("u", u)):
        if not isinstance(end, numbers.Real) or isinstance(end, bool):
            raise BadParameter(f"{name} must be a finite real number, got {count_text(end)}")
    if not 0 <= s < u <= 1:
        raise BadWindow(f"need 0 <= s < u <= 1, got [{count_text(s)}, {count_text(u)}]")
    return float(s), float(u)


def _finite_array(name, values):
    """``values`` as a float array of finite entries; else a BadParameter naming ``name``."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"{name} must hold finite numbers only: {exc}") from None
    if not np.all(np.isfinite(out)):
        raise BadParameter(f"{name} must hold finite numbers only")
    return out


def _extent(what, a):
    """Smallest and largest entry of ``a``; (inf, -inf) when empty, so that every
    bound test on an empty array passes.  A NaN entry is a BadParameter naming ``what``."""
    if a.size == 0:
        return math.inf, -math.inf
    # as Python numbers, which compare exactly with an int past the float range
    lo, hi = np.minimum.reduce(a, axis=None).item(), np.maximum.reduce(a, axis=None).item()
    if math.isnan(lo):  # the minimum is NaN where any entry is
        nan = np.flatnonzero(np.isnan(a))
        raise BadParameter(f"{what} is NaN at {nan.size} of {a.size} entries, first at index {nan[0]}")
    return lo, hi


def _check_time(t):
    """``t`` as a float array inside [0, 1], with its extent; a NaN time is a BadParameter."""
    t = np.asarray(t, dtype=float)
    lo, hi = _extent("time", t)
    if lo < -_T_SLACK or hi > 1.0 + _T_SLACK:
        raise OutOfDomain(f"time outside [0, 1]: {t[np.argmax((t < 0) | (t > 1))] if t.ndim else float(t)}")
    return t, lo, hi


def _check_state(z, floor, t=0.0):
    """``z`` as an array at or above ``floor``, broadcasting with times ``t``, with its extent."""
    z = np.asarray(z)
    try:
        np.broadcast(z, t)
    except ValueError:
        raise BadParameter(f"states {z.shape} do not broadcast with times {np.shape(t)}") from None
    lo, hi = _extent("state", z)
    if lo < floor:
        raise OutOfDomain(f"state below floor {count_text(floor)}")
    return z, lo, hi


class CharacteristicBounds(NamedTuple):
    """Proved bounds of the characteristic over one bridge's window and the states it
    reads: the extremes for ``ExpAffine``; for ``Tabulated`` within BOUNDS_TOL of
    them and a rounding margin (see :meth:`Tabulated.characteristic_bounds`)."""

    inf: float
    sup: float


class _RateModel:
    """Shared behaviour of the rate families: the JSON descriptor."""

    def to_dict(self):
        return {"family": self.family, "params": self._params(), "state_floor": self.state_floor}


@dataclass(frozen=True)
class ExpAffine(_RateModel):
    """Rate exp(lam * t) * (a + b * z), with b >= 0 and a + b * state_floor > 0.

    Characteristic lam + b * exp(lam * t): state-free and monotone in t, so
    its bounds over any window are exact at the window ends.  Constant rates
    (b = lam = 0), state-linear rates (lam = 0), time-exponential rates
    (b = 0) and their product are all special cases; the legacy descriptor
    families of :func:`model_from_dict` give them in their usual parametrisations.
    """

    a: float
    b: float
    lam: float = 0.0
    state_floor: int = 0
    family = "exp_affine"

    def __post_init__(self):
        for name in ("a", "b", "lam"):
            _finite_real(name, getattr(self, name))
        object.__setattr__(self, "state_floor", _integral("state_floor", self.state_floor))
        if self.b < 0:
            raise BadParameter("b must be nonnegative (rates must stay positive on all states)")
        # a + b z at the floor, read within +-2^1000 (no ladder gets near), so b z is a float
        if not (self.a + self.b * max(-2 ** 1000, min(self.state_floor, 2 ** 1000)) > 0):
            raise BadParameter("rate not positive at the state floor")

    def rate_columns(self, times, states, lo, hi):
        """The rates on a time grid x state set, one state's column at a time,
        each on its own range: times lo[k] to hi[k] - 1 for states[k].

        The time checks and exp(lam * t) are done once, here; a bad time or
        state raises from this call.  Each column is then e^(lam t) (a + b z)
        on its range.
        """
        t = _check_time(times)[0]
        z = _check_state(states, self.state_floor)[0]
        e = np.exp(self.lam * t)
        return (e[a:b] * c for c, a, b in zip(self.a + self.b * z, lo, hi))

    def characteristic(self, t, z):
        t, lo, hi = _check_time(t)
        z = _check_state(z, self.state_floor, t)[0]
        # b e^(lam t) is largest at an end of the times' extent: finite there, it is
        # finite at every time
        if self.b and t.size:
            self._ends(lo, hi)
        # with b = 0 no exponential is formed: exactly lam, where e^(lam t) may overflow
        e = np.exp(self.lam * t) if self.b else np.ones_like(t)
        out = self.lam + self.b * e
        # 0 z widens the result to the states' shape; at b = 0 it also turns -0.0 to 0.0
        if not self.b or out.shape != np.broadcast(out, z).shape:
            out = out + 0.0 * z
        return float(out) if out.ndim == 0 else out

    def characteristic_bounds(self, spec):
        """The characteristic at the ends of the bridge ``spec``'s window, the least
        first; a bridge that starts below the state floor is an OutOfDomain."""
        _check_state(spec.x, self.state_floor)
        return CharacteristicBounds(*sorted(self._ends(spec.s, spec.u)))

    def _ends(self, s, u):
        """The characteristic at times s and u if both are finite; else
        b e^(lam t) has left the float range, an OutOfDomain."""
        try:
            xi = [self.lam + self.b * (math.exp(self.lam * v) if self.b else 1.0) for v in (s, u)]
        except OverflowError:
            xi = [math.inf]
        if not all(map(math.isfinite, xi)):
            raise OutOfDomain(f"the characteristic lambda + b e^(lambda t) leaves the float range"
                              f" at b = {self.b:g}, lambda = {self.lam:g}")
        return xi

    def _params(self):
        return {"a": self.a, "b": self.b, "lambda": self.lam}


def Poisson(alpha, state_floor=0):
    """Constant rate alpha > 0.  Characteristic is identically zero."""
    return ExpAffine(alpha, 0.0, 0.0, state_floor)


def _hermite_coefficients(x, y, dydx):
    """Piecewise cubic coefficients (c0, c1, c2, c3), highest power first.

    On [x[i], x[i+1]] the cubic is c0 s^3 + c1 s^2 + c2 s + c3 with s = t - x[i];
    it matches y and dydx at both nodes.  Formed like scipy's CubicHermiteSpline,
    so values agree with it to the last bit.
    """
    dx = np.diff(x)[:, None]
    slope = np.diff(y, axis=0) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]])


def _pieces(x, t):
    """Piece index of each time and the powers s, s^2, s^3 of its offset s.

    The piece is found as by scipy's PPoly (closed on the right at the last
    node, end pieces extended), and the powers are formed in its order.
    """
    i = np.searchsorted(x[1:-1], t, side="right")
    s = t - x[i]
    sq = s * s
    return i, (s, sq, sq * s)


def _power_sum(c, idx, powers):
    """sum_k c[k].take(idx) * powers, lowest power first as scipy's PPoly sums;
    ``c`` holds one row per power, highest first."""
    out = 0.0 + c[-1].take(idx)
    for ck, p in zip(c[-2::-1], powers):
        out = out + ck.take(idx) * p
    return out


# Tabulated pieces are halved at most this often, to prove them positive and to
# bring the characteristic bounds within BOUNDS_TOL x max(1, |bound|) of the
# extremes; the bounds then move out by each cell's rounding margin.  Only the
# cells near an extreme stay open, so the cells per piece and state stay few.
_MAX_HALVINGS = 48
BOUNDS_TOL = 1e-6
_UNIT = np.finfo(float).eps / 2.0
# Bounds on the roundings along any path from the data to a Bernstein coefficient
# of a cell before halving (16 to form it and 18 in each of the two clipping
# splits, 52 in all), and to a value of ``Tabulated.characteristic``'s cubics (10
# for r'); each halving adds 7 to the first, a product and six sums (see _HALVES).
_FORM_ROUNDINGS = 64
_HALVING_ROUNDINGS = 7
_READ_ROUNDINGS = 16


def _gamma(k):
    """Higham's gamma_k: the relative error of k roundings, each by at most _UNIT."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _split(b, tau):
    """Bernstein coefficients ``b`` (one row each) of polynomials on [0, 1] split
    at ``tau`` by de Casteljau: those of their pieces on [0, tau] and [tau, 1]."""
    rows = [b]
    while len(rows[-1]) > 1:
        rows.append((1.0 - tau) * rows[-1][:-1] + tau * rows[-1][1:])
    return np.array([r[0] for r in rows]), np.array([r[-1] for r in rows[::-1]])


# The de Casteljau halving of degree-6 Bernstein coefficients as one matrix, rows
# 0-6 giving the left half's and 7-13 the right half's.  Its entries C(k, j) / 2^k
# are exact, so a coefficient of a half takes a rounded product and at most six
# rounded sums, in whatever order the matrix product forms them.
_HALVES = np.array([[math.comb(k, j) / 2.0 ** k if j <= k else 0.0 for j in range(7)] for k in range(7)]
                   + [[math.comb(6 - k, j - k) / 2.0 ** (6 - k) if j >= k else 0.0 for j in range(7)]
                      for k in range(7)])


@functools.cache
def _product_weights(p, q):
    """w[i + j, i, j] = C(p, i) C(q, j) / C(p + q, i + j), the weights of the
    products' coefficients (see :func:`_product`); 0 elsewhere."""
    w = np.zeros((p + q + 1, p + 1, q + 1))
    for i in range(p + 1):
        for j in range(q + 1):
            w[i + j, i, j] = math.comb(p, i) * math.comb(q, j) / math.comb(p + q, i + j)
    return w


def _product(a, b):
    """Bernstein coefficients of the products of polynomials given by theirs
    (one row each, degrees p and q): p + q + 1 rows.  Each takes a rounded
    weight, two rounded products and at most three rounded sums (the zero
    weights add exact zeros)."""
    return np.einsum("kij,i...,j...->k...", _product_weights(len(a) - 1, len(b) - 1), a, b)


def _characteristic_cells(r, jump, e):
    """Degree-6 Bernstein coefficients of r' + r D, r and r' (axis 1), from those
    of r, of D = r(., z+1) - r(., z) and of r' (one column per piece and state)."""
    ones5, ones4 = np.ones((5, 1)), np.ones((4, 1))
    slope = _product(e, ones5)
    return np.stack([slope + _product(r, jump), _product(r, ones4), slope], axis=1)


def _cell_ranges(cells, gamma, reach, cell, s_end, exact):
    """Each cell's coefficient ratios, their least and largest, and a margin past
    those that holds the characteristic and its computed values on the cell.

    ``cells`` hold the coefficients of r' + r D, r and r' and then their sizes
    (axis 1): a computed coefficient is within ``gamma`` times its size of the
    exact one.  ``reach`` holds the cubics, lowest power first, that bound r, r'
    and r one state up and their rounding as :meth:`Tabulated.characteristic`
    forms them at an offset into the piece; they are read at ``s_end``.  A cell
    whose r is not proved positive has infinite ratios and no margin.
    """
    num, den, slope = cells[:, 0], cells[:, 1], cells[:, 2]
    err = gamma * cells[:, 3:]
    q = num / den
    floor = den - err[:, 1]  # the exact r on the cell is above every one of these
    # the exact coefficient ratio lies within this of the computed one
    ratio_err = (err[:, 0] + np.abs(q) * err[:, 1]) / floor + _UNIT * np.abs(q)
    r_low = floor.min(axis=0)
    ok = r_low > 0
    # how far Tabulated.characteristic's r'/r + r(., z+1) - r may round from the
    # exact value, from bounds of r, r' and r(., z+1) and of their rounding
    a = reach[:, :, cell]
    size_r, size_dt, size_up = ((a[:, 3] * s_end + a[:, 2]) * s_end + a[:, 1]) * s_end + a[:, 0]
    g = _gamma(_READ_ROUNDINGS)
    slope_max = (np.abs(slope) + err[:, 2]).max(axis=0)
    r_read = r_low - g * size_r
    quotient = (slope_max + g * size_dt) / r_read
    read_err = ((g * size_dt + slope_max * g * size_r / r_low) / r_read + _UNIT * quotient
                + g * (size_up + size_r) + 2.0 * _UNIT * (quotient + size_up + size_r))
    # twice the sum, to hold the roundings of forming these bounds themselves
    margin = 2.0 * (ratio_err.max(axis=0) + np.where(r_read > 0, read_err, np.inf))
    margin = np.where(ok & ~exact, margin, 0.0)
    lo = np.where(ok, q.min(axis=0), -np.inf)
    hi = np.where(ok, q.max(axis=0), np.inf)
    return q, lo, hi, margin


def _unproved_piece(b):
    """(piece, column) of a cubic Hermite interpolant, given by its Bernstein
    coefficients ``b`` (4 x pieces x columns), not proved positive, or None.

    A piece lies between the extremes of its Bernstein coefficients, so it is
    positive when they are.  The others are halved (:func:`_split`) and tried
    again.  A piece is a dip when its value half-way is not above the rounding
    of the halving (4 ulps of its largest coefficient), or when it is still
    unproved after _MAX_HALVINGS halvings.
    """
    columns, b = b.shape[2], b.reshape(4, -1)
    cell = np.arange(b.shape[1])  # piece * columns + column
    slack = 4.0 * np.finfo(float).eps * np.abs(b).max(axis=0)
    for halving in range(_MAX_HALVINGS + 1):
        keep = ~np.all(b > 0, axis=0)
        b, cell = b[:, keep], cell[keep]
        if not b.size:
            return None
        left, right = _split(b, 0.5)
        bad = ~(left[-1] > slack[cell])
        if bad.any() or halving == _MAX_HALVINGS:
            return divmod(int(cell[np.argmax(bad)]), columns)
        b, cell = np.concatenate([left, right], axis=1), np.tile(cell, 2)


class Tabulated(_RateModel):
    """Rates given on a time grid x contiguous state range.

    Values between time nodes come from a cubic Hermite interpolant, and the
    characteristic reads its exact time derivative.  Nodal time derivatives
    may be supplied; otherwise they are filled by centred differences on the
    grid and the model is flagged ``derivative_mode == "numeric"`` (a warning
    sign for characteristic-based checks, which need d/dt log rate).
    ``characteristic`` broadcasts times and states together, as ``ExpAffine``'s
    does.
    """

    family = "tabulated"

    def __init__(self, t_grid, z_min, rates, rates_dt=None, state_floor=None):
        t_grid = _finite_array("t_grid", t_grid)
        rates = _finite_array("rates", rates)
        if t_grid.ndim != 1 or t_grid.size < 2:
            raise BadParameter("t_grid must hold at least two nodes")
        if np.any(np.diff(t_grid) <= 0):
            raise BadParameter("t_grid must be strictly increasing")
        if t_grid[0] < -_T_SLACK or t_grid[-1] > 1.0 + _T_SLACK:
            raise BadParameter("t_grid must lie inside [0, 1]")
        if rates.ndim != 2 or rates.shape[0] != t_grid.size:
            raise BadParameter("rates must be a (time x state) matrix, one row per time node")
        if np.any(rates <= 0):
            raise BadParameter("all tabulated rates must be positive")
        if rates_dt is None:
            rates_dt = np.gradient(rates, t_grid, axis=0)
            self.derivative_mode = "numeric"
        else:
            rates_dt = _finite_array("rates_dt", rates_dt)
            if rates_dt.shape != rates.shape:
                raise BadParameter("rates_dt must match the shape of rates")
            self.derivative_mode = "supplied"
        self.t_grid = t_grid
        self.z_min = _integral("z_min", z_min)
        self.rates = rates
        self.rates_dt = rates_dt
        self.state_floor = self.z_min if state_floor is None else _integral("state_floor", state_floor)
        if self.state_floor < self.z_min:
            raise BadParameter("state_floor below tabulated range")
        self._coef = _hermite_coefficients(t_grid, rates, rates_dt)
        self._coef_dt = self._coef[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]
        # each piece's Bernstein coefficients y0, y0 + dx d0 / 3, y1 - dx d1 / 3, y1
        dx = np.diff(t_grid)[:, None]
        self._bern = np.stack([rates[:-1], rates[:-1] + dx * rates_dt[:-1] / 3.0,
                               rates[1:] - dx * rates_dt[1:] / 3.0, rates[1:]])
        # Hermite interpolation can overshoot between nodes; refuse models
        # whose interpolant is not proved positive on every piece.
        dip = _unproved_piece(self._bern)
        if dip is not None:
            piece, z = dip[0], count_text(self.z_min + dip[1])
            raise BadParameter(f"interpolated rates dip to zero between nodes: state"
                               f" {z} on [{t_grid[piece]:g}, {t_grid[piece + 1]:g}]")

    @property
    def z_max(self):
        return self.z_min + self.rates.shape[1] - 1

    def _locate(self, t, z, reach=0, paired=True):
        """``t`` and ``z`` checked, ``z`` as ints, broadcasting together if ``paired``;
        states up to z + reach must be tabulated."""
        t, t_lo, t_hi = _check_time(t)
        z, z_lo, z_hi = _check_state(z, self.state_floor, t if paired else 0.0)
        if t_lo < self.t_grid[0] - _T_SLACK or t_hi > self.t_grid[-1] + _T_SLACK:
            raise TabulationGap("time outside the tabulated hull")
        if z_hi + reach > self.z_max:
            raise TabulationGap(f"state outside tabulated range [{count_text(self.z_min)},"
                                f" {count_text(self.z_max)}]")
        if z.dtype.kind not in "iu":
            off = z != np.round(z)
            if np.any(off):
                raise OutOfDomain(f"state not an integer: {z[np.argmax(off)] if z.ndim else float(z)}")
        return t, z.astype(int)

    def rate_columns(self, times, states, lo, hi):
        """The rates on a time grid x state set, one state's column at a time,
        each on its own range: times lo[k] to hi[k] - 1 for states[k].

        The checks, the piece search and the powers of the offsets are done
        once, here; a bad time or state raises from this call.  Each column
        then gathers its four coefficients on its range and sums them, lowest
        power first, as scipy's PPoly does.
        """
        t, z = self._locate(times, states, paired=False)
        i, powers = _pieces(self.t_grid, t)
        return (_power_sum(self._coef[:, :, col], i[a:b], [p[a:b] for p in powers])
                for col, a, b in zip(z - self.z_min, lo, hi))

    def characteristic(self, t, z):
        """r'/r + r(., z+1) - r, r the state's cubic; 0 where r is not positive.  The
        three cubics are read from one check and one piece search."""
        t, z = self._locate(t, z, 1)
        i, powers = _pieces(self.t_grid, t)
        idx = i * self.rates.shape[1] + (z - self.z_min)
        r, r_dt, up = (_power_sum(c.reshape(c.shape[0], -1), idx + k, powers)
                       for c, k in ((self._coef, 0), (self._coef_dt, 0), (self._coef, 1)))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, r_dt / r + up - r, 0.0)
        return float(out) if out.ndim == 0 else out

    # its products and ratios may leave the float range: such bounds are refused
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def characteristic_bounds(self, spec):
        """Proved bounds of the characteristic over the bridge ``spec``'s window and the
        states it reads; a state or time outside the table raises as in
        :meth:`characteristic`.

        On a piece it is (r' + r D) / r, r the state's cubic and D = r(., z+1)
        - r(., z).  In the degree-6 Bernstein basis, where the denominator's
        coefficients are positive, it lies between the least and the largest
        coefficient ratio.  Pieces are clipped to the window and halved while
        their ratios reach past the values at cell ends by more than
        BOUNDS_TOL and their rounding margin; the bounds then move out by it.

        A cell's margin bounds both the rounding of its own coefficients and
        that of :meth:`characteristic` on it, so the bounds enclose the values
        it returns.  Each coefficient is a sum of products of the data, and k
        roundings on the way move it by at most gamma_k times the same sum
        formed from the data's absolute values (Higham, Accuracy and Stability
        of Numerical Algorithms, 3.1).  Those sums are carried through the de
        Casteljau splits beside the coefficients: a split's weights are not
        negative, so it maps a cell's sums to its halves' sums, and each cell's
        margin is sized by the terms it is formed from, not by its piece's.
        """
        s, u, zs = spec.s, spec.u, spec.characteristic_states()
        x = self.t_grid
        self._locate(np.array([s, u]), np.array([zs.start, zs.stop]))
        first, last = _pieces(x, np.array([s, u]))[0]
        p, c = (a.ravel() for a in np.meshgrid(np.arange(first, last + 1),
                                               np.arange(zs.start, zs.stop) - self.z_min, indexing="ij"))
        dx = np.diff(x)[p]
        r, jump = self._bern[:, p, c], self._bern[:, p, c + 1] - self._bern[:, p, c]
        e = 3.0 * np.diff(r, axis=0) / dx
        # beside them, the same sums formed from absolute values (their sizes): r's
        # coefficients y0, y0 + dx d0 / 3, y1 - dx d1 / 3 and y1 taken as |y0|,
        # |y0| + dx |d0| / 3, |y1| + dx |d1| / 3 and |y1|
        y, d = np.abs(self.rates), np.abs(self.rates_dt)
        size, up = (np.stack([y[p, k], y[p, k] + dx * d[p, k] / 3.0, y[p + 1, k] + dx * d[p + 1, k] / 3.0,
                              y[p + 1, k]]) for k in (c, c + 1))
        cells = _characteristic_cells(*(np.concatenate(pair, axis=1) for pair in (
            (r, size), (jump, size + up), (e, 3.0 * (size[1:] + size[:-1]) / dx))))
        # axis 1: r' + r D, r and r', then their sizes
        cells = np.concatenate(np.split(cells, 2, axis=2), axis=1)
        if not np.all(np.isfinite(cells[:, :3])):
            raise OutOfDomain("the characteristic's Bernstein coefficients leave the float range")
        # the window's ends, moved out by 4 ulps of the piece so that rounding in
        # the clipping fractions leaves no time of the window uncovered
        ts = np.clip((s - x[p]) / dx - 4.0 * _UNIT, 0.0, 1.0)
        tu = np.clip((u - x[p]) / dx + 4.0 * _UNIT, 0.0, 1.0)
        tau = np.divide(ts, tu, out=np.zeros_like(ts), where=tu > 0)
        cells = _split(_split(cells, tu)[0], tau)[1]
        # no margin where both states' data are one constant: every term is exactly 0
        exact = ~(e.any(axis=0) | jump.any(axis=0))
        reach = self._read_error_terms(p, c)
        # the piece and state of each open cell, its ends as fractions of the piece and
        # its parent's margin; a closed cell stays closed, as the least and the largest
        # value at cell ends only move out, so only its bound is kept
        cell, start, end, parent = np.arange(p.size), ts, tu, np.full(p.size, np.inf)
        least = low = math.inf
        most = high = -math.inf
        for halving in range(_MAX_HALVINGS + 1):
            gamma = _gamma(_FORM_ROUNDINGS + _HALVING_ROUNDINGS * halving)
            q, lo, hi, margin = _cell_ranges(cells, gamma, reach, cell, end * dx[cell], exact[cell])
            # the least and largest value of the characteristic at cell ends; a cell is
            # open while its ratios reach past them by more than BOUNDS_TOL and its
            # rounding margin, or while its bound does and halving still shrinks its
            # margin (by a quarter at least: near a node, rounding in the cubics does
            # not shrink)
            least, most = min(least, q[[0, -1]].min()), max(most, q[[0, -1]].max())
            tol_least, tol_most = (BOUNDS_TOL * max(1.0, abs(v)) for v in (least, most))
            gap = (lo + margin < least - tol_least) | (hi - margin > most + tol_most)
            loose = (lo - margin < least - tol_least) | (hi + margin > most + tol_most)
            open_ = (gap | (loose & (margin < 0.75 * parent))) & (halving < _MAX_HALVINGS)
            # a bound that is nan (an overflowed ratio times a zero in its margin) bounds
            # nothing: it counts as infinite, which the bounds then refuse
            below, above = lo - margin, hi + margin
            low = min(low, np.where(np.isnan(below), -np.inf, below)[~open_].min(initial=math.inf))
            high = max(high, np.where(np.isnan(above), np.inf, above)[~open_].max(initial=-math.inf))
            if not open_.any():
                bounds = CharacteristicBounds(float(low), float(high))
                if not all(map(math.isfinite, bounds)):
                    raise OutOfDomain(f"the characteristic's bounds, {bounds.inf:g} and"
                                      f" {bounds.sup:g}, are not finite")
                return bounds
            mid = 0.5 * (start[open_] + end[open_])
            cells = np.concatenate(np.split(np.tensordot(_HALVES, cells[:, :, open_], axes=1), 2), axis=2)
            start = np.concatenate([start[open_], mid])
            end = np.concatenate([mid, end[open_]])
            cell, parent = (np.tile(a[open_], 2) for a in (cell, margin))

    def _read_error_terms(self, p, c):
        """For pieces ``p`` and state columns ``c``: the coefficients, lowest power
        first, of the sums of absolute values that bound r, r' and r one state up
        as :meth:`characteristic` forms them at an offset s into the piece (axis 0)."""
        dx = np.diff(self.t_grid)[p]

        def absolute(k):
            y, d = np.abs(self.rates[p, k]), np.abs(self.rates_dt[p, k])
            y1, d1 = np.abs(self.rates[p + 1, k]), np.abs(self.rates_dt[p + 1, k])
            slope = (y + y1) / dx
            t = (d + d1 + 2.0 * slope) / dx
            return np.stack([y, d, (slope + d) / dx + t, t / dx])

        r = absolute(c)
        return np.stack([r, np.concatenate([r[1:] * np.array([1.0, 2.0, 3.0])[:, None], 0.0 * r[:1]]),
                         absolute(c + 1)])

    def _params(self):
        params = {
            "t_grid": self.t_grid.tolist(),
            "z_min": self.z_min,
            "rates": self.rates.tolist(),
        }
        if self.derivative_mode == "supplied":
            params["rates_dt"] = self.rates_dt.tolist()
        return params


def constant_characteristic_model(lam):
    """A benchmark model whose characteristic is identically ``lam``.

    Constant rates for lam == 0, state-linear rates for lam > 0 and
    time-exponential rates for lam < 0 (state-linear rates would go negative).
    """
    return ExpAffine(1.0, max(lam, 0.0), min(lam, 0.0))


def _reals(names, build):
    """A parametric family: its parameters, each a finite real number (the first that is not,
    in this order, is the one named), and its model built from them at the floor, 0 if none."""
    return names, (), lambda params, floor: build(
        *[_finite_real(name, params[name]) for name in names], 0 if floor is None else floor)


# each family: its required and its optional parameter names, and its model, built from
# the params object that holds exactly those and the floor (None if none is given)
_FAMILIES = {
    "exp_affine": _reals(("a", "b", "lambda"), ExpAffine),
    "poisson": _reals(("alpha",), Poisson),
    "space_linear": _reals(("lambda", "alpha"),
                           lambda lam, alpha, floor: ExpAffine(alpha, lam, 0.0, floor)),
    "time_exponential": _reals(("alpha", "lambda"),
                               lambda alpha, lam, floor: ExpAffine(alpha, 0.0, lam, floor)),
    "product": _reals(("alpha", "lambda", "beta"),
                      lambda alpha, lam, beta, floor: ExpAffine(alpha, alpha * beta, lam, floor)),
    "tabulated": (("t_grid", "z_min", "rates"), ("rates_dt",),
                  lambda params, floor: Tabulated(**params, state_floor=floor)),
}


def model_from_dict(descriptor):
    """A model from its JSON descriptor ``{"family": ..., "params": {...}}`` and an optional
    integer ``"state_floor"``, read before the params; an unknown or a missing key in either
    object is a BadParameter naming it.  Every family but ``tabulated`` is an ExpAffine."""
    check_keys(BadParameter, "malformed model descriptor", descriptor, ("family", "params"), ("state_floor",))
    family, floor = descriptor["family"], descriptor.get("state_floor")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise BadParameter(f"unknown rate family {count_text(family)}")
    names, optional, build = _FAMILIES[family]
    floor = None if floor is None else _integral("state_floor", floor)
    return build(check_keys(BadParameter, f"{family} params", descriptor["params"], names, optional), floor)
