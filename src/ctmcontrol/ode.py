"""Adaptive explicit Runge-Kutta integration.

Dormand-Prince 5(4) pair with the classic PI step-size controller
(Hairer-Norsett-Wanner style: accept when the weighted RMS of the
embedded error estimate is below one, step factor err**-0.17 damped by
the previous error to the 0.04). One driver, integrate_grid, lands
steps exactly on every requested grid point, so recorded values carry
no interpolation error; a caller that wants only the final state passes
the grid [t0, t_end] and reads the last row. The right-hand side is
called as f(t, y, out) and writes y' into out, which is the stage's own
row of the integrator's stage array, so a stage makes no copy.

Grid landing clamps the proposed step, never the controller's memory,
so step statistics still reflect genuine error control. A step below
1e-14 of the total span raises StepSizeUnderflow; if steps collapse
while the right-hand side is returning non-finite values the failure is
reported as NumericOverflow instead. Running out of the step budget
raises NoConvergence.
"""

from __future__ import annotations

import math
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
# stage nodes as Python floats: t + c h stays out of numpy
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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
    # the bits of np.sqrt(np.mean(...)): mean also sums with add.reduce
    q = err / scale
    np.square(q, out=q)
    return math.sqrt(float(np.add.reduce(q)) / q.shape[0])


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
        f1 = np.empty_like(f0)
        f(t0 + h0, y1, f1)
        if not np.all(np.isfinite(f1)):
            return span * 1e-3
        d2 = float(np.sqrt(np.mean(np.square((f1 - f0) / scale)))) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        # a proposal below the step floor would fail before its first
        # trial, so the controller starts at the floor and grows from there
        return max(min(100.0 * h0, h1, span), 1e-14 * span)


def integrate_grid(f: Callable, grid: np.ndarray, y0: np.ndarray,
                   rtol: float, atol: float) -> tuple[np.ndarray, StepStats]:
    """Integrate y' = f(t, y) along an increasing grid, landing on every point.

    f(t, y, out) writes f(t, y) into out, an array shaped like y0 that
    it may not keep, and returns nothing. Returns an array of shape
    (len(grid), len(y0)); row 0 is y0 itself, bitwise, and the last row
    is y(grid[-1]).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with at least two points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    points = grid.tolist()
    n = np.asarray(y0).shape[0]
    out = np.empty((len(points), n))
    out[0] = y0
    t = points[0]
    y = np.asarray(y0, dtype=float).copy()
    span = points[-1] - t
    floor = 1e-14 * span
    # the stages k, with k[0] = f(t, y) handed on from the last accepted
    # step (first same as last), each written by f into its own row, and
    # the work arrays every step reuses; y and y5, and |y| and |y5|, swap
    # when a step is accepted
    k = np.empty((7, n))
    f(t, y, k[0])
    stages = [(_A[s], k[:s], _C[s], k[s]) for s in range(1, 6)]
    a6, k6, k_last = _A[6], k[:6], k[6]
    ys, err, scale = np.empty(n), np.empty(n), np.empty(n)
    y5, abs_y, abs_y5 = np.empty(n), np.abs(y), np.empty(n)
    h_ctrl = _initial_step(f, t, y, k[0], span, rtol, atol)
    facold = 1e-4
    accepted = rejected = 0
    nonfinite_last = False
    # non-finite stage values are detected and rejected in the loop, so
    # the overflow warnings they raise along the way are suppressed
    with np.errstate(invalid="ignore", over="ignore"):
        for idx in range(1, len(points)):
            target = points[idx]
            while t < target:
                remaining = target - t
                h = min(h_ctrl, remaining)
                if 0.0 < target - (t + h) < floor:
                    # the sliver left before the target would be below the
                    # step floor, so the step stretches to land instead
                    h = remaining
                if h < floor:
                    if nonfinite_last:
                        raise NumericOverflow(
                            f"right-hand side non-finite near t = {t}; state out of range"
                        )
                    raise StepSizeUnderflow(f"step {h} below 1e-14 of span {span} at t = {t}")
                if accepted + rejected >= _MAX_STEPS:
                    raise NoConvergence(f"step budget of {_MAX_STEPS} exhausted at t = {t}")
                # one Dormand-Prince trial step; y + h (a . k) is evaluated
                # as written, in place, since folding h into a changes bits
                for a, ks, c, row in stages:
                    a.dot(ks, out=ys)
                    ys *= h
                    ys += y
                    f(t + c * h, ys, row)
                a6.dot(k6, out=y5)
                y5 *= h
                y5 += y
                f(t + h, y5, k_last)
                np.abs(y5, out=abs_y5)
                # a non-finite err shows in the norm, but an infinite y5 can
                # give the finite norm 0 through an infinite scale
                if math.isfinite(np.maximum.reduce(abs_y5)):
                    _E.dot(k, out=err)
                    err *= h
                    np.maximum(abs_y, abs_y5, out=scale)
                    scale *= rtol
                    scale += atol
                    err_norm = _error_norm(err, scale)
                else:
                    err_norm = math.inf
                if not math.isfinite(err_norm):
                    nonfinite_last = True
                    rejected += 1
                    h_ctrl = h * _MIN_FACTOR
                    continue
                nonfinite_last = False
                if err_norm <= 1.0:
                    # PI growth factor; remembers the previous accepted error
                    fac = (max(err_norm, 1e-10) ** _EXPO) / (facold ** _BETA)
                    fac = max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, fac / _SAFETY))
                    facold = max(err_norm, 1e-4)
                    accepted += 1
                    # a clamped step must not shrink the controller's proposal
                    h_ctrl = max(h / fac, h_ctrl) if h < h_ctrl else h / fac
                    t = target if h == remaining else t + h
                    y, y5 = y5, y
                    abs_y, abs_y5 = abs_y5, abs_y
                    k[0] = k_last
                else:
                    rejected += 1
                    fac = (err_norm ** _EXPO) / (facold ** _BETA)
                    h_ctrl = h / min(1.0 / _MIN_FACTOR, fac / _SAFETY)
            out[idx] = y
    return out, StepStats(accepted, rejected)
