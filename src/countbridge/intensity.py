"""Jump intensities of Markov counting processes on the unit time interval.

A model gives the rate ``rate(t, z)`` of the next +1 jump at time t in state z,
together with its exact time derivative ``rate_dt``.  From those two pieces the
characteristic

    char(t, z) = d/dt log rate(t, z) + rate(t, z+1) - rate(t, z)

is assembled; it is the quantity that determines the law of the pinned
(bridge) process, and every bound checked by :mod:`countbridge.verify` is a
bound on it.  The parametric rates form one family, exp(lam t) (a + b z),
whose characteristic lam + b exp(lam t) is free of the state; constant rates,
rates linear in the state and rates exponential in time have a constant
characteristic and serve as closed-form benchmarks throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyRange, OutOfDomain, TabulationGap

_T_SLACK = 1e-12


def _extent(a):
    """Smallest and largest entry of ``a``, NaN skipped; (inf, -inf) when empty,
    so that every bound test on an empty array passes."""
    if a.size == 0:
        return math.inf, -math.inf
    return np.fmin.reduce(a, axis=None), np.fmax.reduce(a, axis=None)


def _check_time(t):
    """``t`` as a float array inside [0, 1], with its extent."""
    t = np.asarray(t, dtype=float)
    lo, hi = _extent(t)
    if lo < -_T_SLACK or hi > 1.0 + _T_SLACK:
        raise OutOfDomain(f"time outside [0, 1]: {t[np.argmax((t < 0) | (t > 1))] if t.ndim else float(t)}")
    return t, lo, hi


def _check_state(z, floor):
    """``z`` as an array at or above ``floor``, with its extent."""
    z = np.asarray(z)
    lo, hi = _extent(z)
    if lo < floor:
        raise OutOfDomain(f"state below floor {floor}")
    return z, lo, hi


class CharacteristicBounds(NamedTuple):
    """Infimum/supremum of the characteristic over a window x state range.

    ``certified`` is True when the bounds follow from the parametric form
    (constant or monotone in t, state-free); grid scans set it False.
    """

    inf: float
    sup: float
    certified: bool


class _RateModel:
    """Shared behaviour of the rate families: the JSON descriptor."""

    def to_dict(self):
        return {"family": self.family, "params": self._params(), "state_floor": self.state_floor}


def _validate_window(t_window):
    s, u = float(t_window[0]), float(t_window[1])
    if not (-_T_SLACK <= s < u <= 1.0 + _T_SLACK):
        raise OutOfDomain(f"bad time window [{s}, {u}]")
    return s, u


def _validate_zrange(z_range, floor):
    zlo, zhi = int(z_range[0]), int(z_range[1])
    if zlo > zhi:
        raise EmptyRange(f"empty state range [{zlo}, {zhi}]")
    if zlo < floor:
        raise OutOfDomain(f"state range starts below floor {floor}")
    return zlo, zhi


@dataclass(frozen=True)
class ExpAffine(_RateModel):
    """Rate exp(lam * t) * (a + b * z), with b >= 0 and a + b * state_floor > 0.

    Characteristic lam + b * exp(lam * t): state-free and monotone in t, so
    its bounds over any window are exact at the window ends.  Constant rates
    (b = lam = 0), state-linear rates (lam = 0), time-exponential rates
    (b = 0) and their product are all special cases; :func:`Poisson`,
    :func:`SpaceLinear`, :func:`TimeExponential` and :func:`Product` build
    them in their usual parametrisations.
    """

    a: float
    b: float
    lam: float = 0.0
    state_floor: int = 0
    family = "exp_affine"

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("b must be nonnegative (rates must stay positive on all states)")
        if not self.a + self.b * self.state_floor > 0:
            raise ValueError("rate not positive at the state floor")

    def rate(self, t, z):
        t = _check_time(t)[0]
        z = _check_state(z, self.state_floor)[0]
        out = np.exp(self.lam * t) * (self.a + self.b * z)
        return float(out) if out.ndim == 0 else out

    def rate_dt(self, t, z):
        return self.lam * self.rate(t, z)

    def rate_grid(self, times, states):
        """Rates on a time grid x state set, shape (len(times), len(states))."""
        return self.rate(np.asarray(times, dtype=float)[:, None], np.asarray(states)[None, :])

    def characteristic(self, t, z):
        t = _check_time(t)[0]
        z = _check_state(z, self.state_floor)[0]
        out = self.lam + self.b * np.exp(self.lam * t) + 0.0 * z
        return float(out) if out.ndim == 0 else out

    def characteristic_bounds(self, t_window=(0.0, 1.0), z_range=None, grid_step=1e-3):
        s, u = _validate_window(t_window)
        if z_range is not None:
            _validate_zrange(z_range, self.state_floor)
        lo = self.lam + self.b * math.exp(self.lam * s)
        hi = self.lam + self.b * math.exp(self.lam * u)
        return CharacteristicBounds(min(lo, hi), max(lo, hi), True)

    def _params(self):
        return {"a": self.a, "b": self.b, "lambda": self.lam}


def Poisson(alpha, state_floor=0):
    """Constant rate alpha > 0.  Characteristic is identically zero."""
    return ExpAffine(alpha, 0.0, 0.0, state_floor)


def SpaceLinear(lam, alpha, state_floor=0):
    """Rate lam * z + alpha, constant in time.  Characteristic is lam."""
    return ExpAffine(alpha, lam, 0.0, state_floor)


def TimeExponential(alpha, lam, state_floor=0):
    """Rate alpha * exp(lam * t), constant in space.  Characteristic is lam."""
    return ExpAffine(alpha, 0.0, lam, state_floor)


def Product(alpha, lam, beta, state_floor=0):
    """Rate alpha * exp(lam * t) * (1 + beta * z), i.e. a = alpha and b = alpha * beta."""
    return ExpAffine(alpha, alpha * beta, lam, state_floor)


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


def _piecewise_eval(x, c, t, cols):
    """Evaluate coefficients ``c`` at times ``t`` in columns ``cols`` (broadcast together).

    Only the requested columns are gathered.  The interval is found as by
    scipy's PPoly (closed on the right at the last node, end pieces extended),
    and the sum runs in its order, lowest power first.
    """
    i = np.searchsorted(x[1:-1], t, side="right")
    s = t - x[i]
    idx = i * c.shape[2] + cols
    flat = c.reshape(c.shape[0], -1)
    out, z = 0.0 + flat[-1].take(idx), s
    for ck in flat[-2::-1]:
        out = out + ck.take(idx) * z
        z = z * s
    return out


class Tabulated(_RateModel):
    """Rates given on a time grid x contiguous state range.

    Values between time nodes come from a cubic Hermite interpolant, so
    ``rate_dt`` is the exact derivative of ``rate``.  Nodal time derivatives
    may be supplied; otherwise they are filled by centred differences on the
    grid and the model is flagged ``derivative_mode == "numeric"`` (a warning
    sign for characteristic-based checks, which need d/dt log rate).
    """

    family = "tabulated"

    def __init__(self, t_grid, z_min, rates, rates_dt=None, state_floor=None):
        t_grid = np.asarray(t_grid, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if t_grid.ndim != 1 or t_grid.size < 2:
            raise ValueError("t_grid must hold at least two nodes")
        if np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        if t_grid[0] < -_T_SLACK or t_grid[-1] > 1.0 + _T_SLACK:
            raise ValueError("t_grid must lie inside [0, 1]")
        if rates.ndim != 2 or rates.shape[0] != t_grid.size:
            raise ValueError("rates must be a (time x state) matrix, one row per time node")
        if np.any(rates <= 0):
            raise ValueError("all tabulated rates must be positive")
        if rates_dt is None:
            rates_dt = np.gradient(rates, t_grid, axis=0)
            self.derivative_mode = "numeric"
        else:
            rates_dt = np.asarray(rates_dt, dtype=float)
            if rates_dt.shape != rates.shape:
                raise ValueError("rates_dt must match the shape of rates")
            self.derivative_mode = "supplied"
        self.t_grid = t_grid
        self.z_min = int(z_min)
        self.rates = rates
        self.rates_dt = rates_dt
        self.state_floor = self.z_min if state_floor is None else int(state_floor)
        if self.state_floor < self.z_min:
            raise ValueError("state_floor below tabulated range")
        self._coef = _hermite_coefficients(t_grid, rates, rates_dt)
        self._coef_dt = self._coef[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]
        # Hermite interpolation can overshoot between nodes; refuse models
        # whose interpolant dips to zero or below anywhere on the hull.
        probe = np.linspace(t_grid[0], t_grid[-1], max(101, 4 * t_grid.size))
        if np.min(_piecewise_eval(t_grid, self._coef, probe[:, None],
                                  np.arange(rates.shape[1]))) <= 0:
            raise ValueError("interpolated rates dip to zero between nodes")

    @property
    def z_max(self):
        return self.z_min + self.rates.shape[1] - 1

    def _locate(self, t, z):
        t, t_lo, t_hi = _check_time(t)
        z, z_lo, z_hi = _check_state(z, self.state_floor)
        if t_lo < self.t_grid[0] - _T_SLACK or t_hi > self.t_grid[-1] + _T_SLACK:
            raise TabulationGap("time outside the tabulated hull")
        if z_lo < self.z_min or z_hi > self.z_max:
            raise TabulationGap(f"state outside tabulated range [{self.z_min}, {self.z_max}]")
        if z.dtype.kind not in "iu":
            off = z != np.round(z)
            if np.any(off):
                raise OutOfDomain(f"state not an integer: {z[np.argmax(off)] if z.ndim else float(z)}")
        return t, z.astype(int)

    def _eval(self, coef, t, z):
        t, z = self._locate(t, z)
        if t.ndim == 1 and z.ndim == 1 and t.size != z.size:
            t = t[:, None]  # one row per time, one column per state
        out = _piecewise_eval(self.t_grid, coef, t, z - self.z_min)
        return float(out) if out.ndim == 0 else out

    def rate(self, t, z):
        return self._eval(self._coef, t, z)

    def rate_dt(self, t, z):
        return self._eval(self._coef_dt, t, z)

    def rate_grid(self, times, states):
        """Rates on a time grid x state set, shape (len(times), len(states))."""
        t, z = self._locate(times, states)
        return _piecewise_eval(self.t_grid, self._coef, t[:, None], z - self.z_min)

    def characteristic(self, t, z):
        return generic_characteristic(self, t, z)

    def characteristic_bounds(self, t_window=(0.0, 1.0), z_range=None, grid_step=1e-3):
        s, u = _validate_window(t_window)
        if z_range is None:
            z_range = (self.z_min, self.z_max - 1)
        zlo, zhi = _validate_zrange(z_range, self.state_floor)
        n_t = max(2, int(math.ceil((u - s) / grid_step)) + 1)
        times = np.linspace(s, u, n_t)
        vals = generic_characteristic(self, times[:, None], np.arange(zlo, zhi + 1))
        return CharacteristicBounds(float(vals.min()), float(vals.max()), False)

    def _params(self):
        params = {
            "t_grid": self.t_grid.tolist(),
            "z_min": self.z_min,
            "rates": self.rates.tolist(),
        }
        if self.derivative_mode == "supplied":
            params["rates_dt"] = self.rates_dt.tolist()
        return params


def generic_characteristic(model, t, z):
    """Characteristic assembled directly from rate and rate_dt.

    Equals d/dt log rate + rate(., z+1) - rate(., z) where the rate is
    positive, and 0 where it vanishes (pinned intensities only; the models in
    this module are strictly positive).
    """
    lz = np.asarray(model.rate(t, z), dtype=float)
    lt = np.asarray(model.rate_dt(t, z), dtype=float)
    lup = np.asarray(model.rate(t, np.asarray(z) + 1), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(lz > 0.0, lt / lz + lup - lz, 0.0)
    return float(out) if out.ndim == 0 else out


def characteristic_bounds(model, t_window=(0.0, 1.0), z_range=(0, 0), grid_step=1e-3):
    """Infimum and supremum of the characteristic over window x state range.

    Exact for the parametric families; a grid scan (non-certified) for
    tabulated models.
    """
    return model.characteristic_bounds(t_window=t_window, z_range=z_range, grid_step=grid_step)


def constant_characteristic_model(lam, alpha=1.0):
    """A benchmark model whose characteristic is identically ``lam``.

    Constant rates for lam == 0, state-linear rates for lam > 0 and
    time-exponential rates for lam < 0 (state-linear rates would go negative).
    """
    return ExpAffine(alpha, max(lam, 0.0), min(lam, 0.0))


_PARAMETRIC = {
    "exp_affine": lambda p, floor: ExpAffine(p["a"], p["b"], p["lambda"], floor),
    "poisson": lambda p, floor: Poisson(p["alpha"], floor),
    "space_linear": lambda p, floor: SpaceLinear(p["lambda"], p["alpha"], floor),
    "time_exponential": lambda p, floor: TimeExponential(p["alpha"], p["lambda"], floor),
    "product": lambda p, floor: Product(p["alpha"], p["lambda"], p["beta"], floor),
}


def model_from_dict(descriptor):
    """Build a model from the JSON descriptor form.

    ``{"family": "exp_affine", "params": {"a": ..., "b": ..., "lambda": ...},
    "state_floor": int}`` for the parametric rates; the legacy families
    ``poisson``, ``space_linear``, ``time_exponential`` and ``product`` load
    through their constructors.  The tabulated payload is ``{"t_grid": [...],
    "z_min": int, "rates": [[...]], "rates_dt": [[...]] optional}``.
    """
    try:
        family = descriptor["family"]
        params = dict(descriptor.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed model descriptor: {exc}") from exc
    floor = descriptor.get("state_floor", None)
    if family == "tabulated":
        return Tabulated(params["t_grid"], params["z_min"], params["rates"],
                         params.get("rates_dt"), floor)
    if family not in _PARAMETRIC:
        raise ValueError(f"unknown rate family {family!r}")
    return _PARAMETRIC[family](params, int(floor or 0))


def model_from_json(path):
    """Load a model descriptor from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
