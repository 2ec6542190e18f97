"""Adaptive explicit Runge-Kutta integration.

Dormand-Prince 5(4) pair with the classic PI step-size controller
(Hairer-Norsett-Wanner style: accept when the weighted RMS of the
embedded error estimate is below one, step factor err**-0.17 damped by
the previous error to the 0.04). Two drivers share the stepper:

  integrate_endpoint  free adaptive stepping, returns the final state
  integrate_grid      steps land exactly on every requested grid point,
                 so recorded values carry no interpolation error

Grid landing clamps the proposed step, never the controller's memory,
so step statistics still reflect genuine error control. A step below
1e-14 of the total span raises StepSizeUnderflow; if steps collapse
while the right-hand side is returning non-finite values the failure is
reported as NumericOverflow instead. Running out of the step budget
raises NoConvergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NumericOverflow, StepSizeUnderflow

_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B_LOW = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B - _B_LOW

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_MAX_STEPS = 10_000_000


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(err / scale))))


def _initial_step(f, t0, y0, f0, span, rtol, atol) -> float:
    # a nonfinite probe falls back to a small fraction of the span, so
    # warnings from the intermediate arithmetic are suppressed
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.all(np.isfinite(f0)):
            return span * 1e-3
        scale = atol + rtol * np.abs(y0)
        d0 = float(np.sqrt(np.mean(np.square(y0 / scale))))
        d1 = float(np.sqrt(np.mean(np.square(f0 / scale))))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, span)
        y1 = y0 + h0 * f0
        f1 = f(t0 + h0, y1)
        if not np.all(np.isfinite(f1)):
            return span * 1e-3
        d2 = float(np.sqrt(np.mean(np.square((f1 - f0) / scale)))) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1, span)


class _Stepper:
    """Carries the controller state across targets of one integration."""

    def __init__(self, f: Callable, t0: float, y0: np.ndarray, t_end: float,
                 rtol: float, atol: float):
        self.f = f
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        self.t_end = float(t_end)
        self.rtol = rtol
        self.atol = atol
        self.span = float(t_end) - float(t0)
        if self.span <= 0.0:
            raise ValueError(f"integration span must run forward, got [{t0}, {t_end}]")
        self.k1 = f(self.t, self.y)
        self.h = _initial_step(f, self.t, self.y, self.k1, self.span, rtol, atol)
        self.facold = 1e-4
        self.stats = StepStats()
        self._nonfinite_last = False

    def _step_once(self, h: float):
        """One trial step of size h; returns (y_new, k7, err_norm)."""
        f, t, y = self.f, self.t, self.y
        # nonfinite stage values are detected and rejected below, so the
        # overflow warnings they would raise along the way are suppressed
        with np.errstate(invalid="ignore", over="ignore"):
            k = np.empty((7, y.shape[0]))
            k[0] = self.k1
            for s in range(1, 6):
                ys = y + h * (_A[s] @ k[:s])
                k[s] = f(t + _C[s] * h, ys)
            y5 = y + h * (_A[6] @ k[:6])
            k[6] = f(t + h, y5)  # FSAL stage doubles as next step's k1
            err = h * (_E @ k)
            scale = self.atol + self.rtol * np.maximum(np.abs(y), np.abs(y5))
            if not (np.all(np.isfinite(y5)) and np.all(np.isfinite(err))):
                return y5, k[6], float("inf")
            return y5, k[6], _error_norm(err, scale)

    def advance_to(self, target: float) -> None:
        """Step until t == target exactly (target assumed in [t, t_end])."""
        while self.t < target:
            remaining = target - self.t
            h = min(self.h, remaining)
            landing = h == remaining  # accepted step ends exactly on target
            clamped = h < self.h
            if h < 1e-14 * self.span:
                if self._nonfinite_last:
                    raise NumericOverflow(
                        f"right-hand side non-finite near t = {self.t}; state out of range"
                    )
                raise StepSizeUnderflow(
                    f"step {h} below 1e-14 of span {self.span} at t = {self.t}"
                )
            if self.stats.accepted + self.stats.rejected >= _MAX_STEPS:
                raise NoConvergence(f"step budget of {_MAX_STEPS} exhausted at t = {self.t}")
            y_new, k_last, err = self._step_once(h)
            if not np.isfinite(err):
                self._nonfinite_last = True
                self.stats.rejected += 1
                self.h = h * _MIN_FACTOR
                continue
            self._nonfinite_last = False
            if err <= 1.0:
                # PI growth factor; remembers the previous accepted error
                fac = (max(err, 1e-10) ** _EXPO) / (self.facold ** _BETA)
                fac = max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, fac / _SAFETY))
                h_next = h / fac
                self.facold = max(err, 1e-4)
                self.t = target if landing else self.t + h
                self.y = y_new
                self.k1 = k_last
                self.stats.accepted += 1
                # a clamped step must not shrink the controller's proposal
                self.h = max(h_next, self.h) if clamped else h_next
            else:
                self.stats.rejected += 1
                fac = (err ** _EXPO) / (self.facold ** _BETA)
                self.h = h / min(1.0 / _MIN_FACTOR, fac / _SAFETY)


def integrate_endpoint(f: Callable, t0: float, t_end: float, y0: np.ndarray,
                       rtol: float, atol: float) -> tuple[np.ndarray, StepStats]:
    """Integrate y' = f(t, y) from t0 to t_end, returning y(t_end)."""
    stepper = _Stepper(f, t0, y0, t_end, rtol, atol)
    stepper.advance_to(t_end)
    return stepper.y, stepper.stats


def integrate_grid(f: Callable, grid: np.ndarray, y0: np.ndarray,
                   rtol: float, atol: float) -> tuple[np.ndarray, StepStats]:
    """Integrate along an increasing grid, landing on every point.

    Returns an array of shape (len(grid), len(y0)); row 0 is y0 itself,
    bitwise.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with at least two points")
    out = np.empty((grid.shape[0], np.asarray(y0).shape[0]))
    out[0] = y0
    stepper = _Stepper(f, float(grid[0]), y0, float(grid[-1]), rtol, atol)
    for idx in range(1, grid.shape[0]):
        stepper.advance_to(float(grid[idx]))
        out[idx] = stepper.y
    return out, stepper.stats
