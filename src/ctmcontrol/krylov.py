"""Restarted GMRES for the sparse linear systems of the Newton solves.

Every linear system the package solves is a generator system: its
matrix is the generator Q of a jump chain (one entry per edge), shifted
by a discount or bordered by a column for the ergodic constant. Such a
matrix is only ever applied to vectors, in O(edges), and never formed.
GMRES (Saad and Schultz 1986) needs nothing more.
"""

from __future__ import annotations

import math

import numpy as np

_RESTART = 60  # Arnoldi vectors per cycle; the basis is (_RESTART + 1, n)
_CYCLES = 40   # cycles before a slowly converging system is given up


def gmres(apply, b: np.ndarray, diag: np.ndarray, tol: float) -> tuple[np.ndarray, float, int]:
    """Minimum-residual solution of A x = b, with A given by apply(x) = A x.

    Restarted GMRES from x = 0, right-preconditioned by diag, the
    diagonal of A (Jacobi; a zero entry counts as 1), so the residual
    it minimizes is that of A x = b itself. A cycle ends when its
    2-norm residual, which bounds the sup norm, is within tol, when
    the image of a new direction lies in the span of the earlier ones
    (which is how a singular A shows), or after min(_RESTART, n)
    iterations; the true residual b - A x is then measured in the sup
    norm. The solve ends when that is within tol, or when a cycle
    lowered the residual's 2-norm by less than 1%, which is how an
    inconsistent system or the rounding floor of A x shows. Returns the
    iterate of smallest sup-norm residual, that residual and the number
    of Arnoldi iterations.
    """
    n = b.shape[0]
    m = min(_RESTART, n)
    inv = 1.0 / np.where(diag != 0.0, diag, 1.0)
    basis = np.empty((m + 1, n))
    x, res = np.zeros(n), b
    best, best_norm = x, float(np.max(np.abs(b)))
    iterations = 0
    for _ in range(_CYCLES):
        if not best_norm > tol:
            break
        beta = math.sqrt(res @ res)
        basis[0] = res / beta
        # the Hessenberg matrix, reduced to triangular columns by Givens
        # rotations as it grows; g is the rotated right side, and |g[-1]|
        # the 2-norm residual of the cycle's current iterate
        rot: list[tuple[float, float]] = []
        cols: list[list[float]] = []
        g = [beta]
        k = 0
        while k < m and abs(g[-1]) > tol:
            # one classical Gram-Schmidt pass, in einsum: multithreaded
            # BLAS matmul idles between these skinny products, and took
            # 10x longer at n = 10^4 on a 2-vCPU machine
            w = apply(inv * basis[k])
            h = np.einsum("ij,j->i", basis[:k + 1], w)
            w -= np.einsum("i,ij->j", h, basis[:k + 1])
            hn = math.sqrt(w @ w)
            k += 1
            col = h.tolist()
            for j, (c, s) in enumerate(rot):
                col[j], col[j + 1] = c * col[j] + s * col[j + 1], c * col[j + 1] - s * col[j]
            # d is the part of A v_k outside the span of the earlier images
            d = math.hypot(col[-1], hn)
            if not d > 1e-13 * math.hypot(hn, *col):
                break
            c, s = col[-1] / d, hn / d
            col[-1] = d
            rot.append((c, s))
            cols.append(col)
            g.append(-s * g[-1])
            g[-2] *= c
            if hn == 0.0:
                break
            basis[k] = w / hn
        iterations += k
        # back substitution on the triangular columns
        y = g[:len(cols)]
        for j in range(len(cols) - 1, -1, -1):
            y[j] /= cols[j][j]
            for i in range(j):
                y[i] -= cols[j][i] * y[j]
        x = x + inv * np.einsum("i,ij->j", np.array(y), basis[:len(y)])
        res = b - apply(x)
        norm = float(np.max(np.abs(res)))
        if norm < best_norm:
            best, best_norm = x, norm
        if not math.sqrt(res @ res) <= 0.99 * beta:
            break
    return best, best_norm, iterations
