"""One linear solver for the coupled 3D-1D systems of flow and oxygen.

Both physics assemble one sparse matrix over (tissue cells, network nodes),
cells first in the grid's linear order. `solve_linear` solves it by
restarted GMRES, right-preconditioned block lower-triangularly: an exact
LU of the node block (small, and it holds the pinned Dirichlet rows), then
one multigrid V-cycle on the tissue block applied to r_t - A_tv x_v.

The V-cycle aggregates 2x2x2 cells per coarse cell (ceil(n/2) coarse cells
on an odd axis), takes Galerkin coarse operators P^T A P, smooths with
damped Jacobi, over-corrects the coarse-grid correction as in Notay, "An
aggregation-based algebraic multigrid method", ETNA 37 (2010), and factors
the first level small enough exactly. See Briggs, Henson & McCormick, "A
Multigrid Tutorial", 2nd ed. (SIAM, 2000).

GMRES stops on the row-scaled residual the callers gate on
(`scaled_residual`): each cycle runs on the system whose rows are divided
by |A||x| + |b| of the cycle's starting iterate, so the Krylov residual's
2-norm bounds that measure, and the cycle ends once it reaches TARGET.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

RESTART = 60  # GMRES(60): Krylov vectors per cycle
MAX_CYCLES = 10
# 2-norm of the row-scaled residuals a solve aims for, far below the
# callers' 1e-10 gates: at 1e-13 the answers agreed with a direct solve
# only to 5e-12 on an oxygen Jacobian, at 1e-14 to 3e-13, for two or three
# more iterations.
TARGET = 1.0e-14
JACOBI_WEIGHT = 0.7
SWEEPS = 2  # pre- and post-smoothing sweeps per level
OVER_CORRECTION = 1.9
COARSEST_CELLS = 1500


def scaled_residual(matrix, x, rhs, nonlinear=0.0) -> float:
    """Row-scaled residual max_i |(Ax + f - b)_i| / (sum_j |A_ij x_j| +
    |f_i| + |b_i|), with f an optional nonlinear term such as a sink.

    Every row, physics and Dirichlet alike, is measured against its own
    magnitude, so a bad solve fails the gate even where the coefficients
    are many orders below the Dirichlet rows' 1.
    """
    residual = np.abs(matrix @ x + nonlinear - rhs)
    scale = abs(matrix) @ np.abs(x) + np.abs(nonlinear) + np.abs(rhs)
    return float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))


def _aggregate(shape):
    """Coarse cell of every fine cell under 2x2x2 aggregation, and the
    coarse shape; both in linear order i + nx*(j + ny*k)."""
    nx, ny, nz = shape
    coarse = tuple((n + 1) // 2 for n in shape)
    k, j, i = np.meshgrid(
        np.arange(nz) // 2, np.arange(ny) // 2, np.arange(nx) // 2, indexing="ij"
    )
    return (i + coarse[0] * (j + coarse[1] * k)).ravel(), coarse


class VCycle:
    """Aggregation V-cycle for the tissue block of a grid of `shape` cells."""

    def __init__(self, matrix, shape):
        self.levels = []  # (matrix, Jacobi weights, coarse cell of each cell)
        while matrix.shape[0] > COARSEST_CELLS:
            aggregate, shape = _aggregate(shape)
            n_fine, n_coarse = aggregate.size, int(np.prod(shape))
            prolong = sp.csr_matrix(
                (np.ones(n_fine), (np.arange(n_fine), aggregate)), shape=(n_fine, n_coarse)
            )
            self.levels.append((matrix, JACOBI_WEIGHT / matrix.diagonal(), aggregate))
            matrix = (prolong.T @ matrix @ prolong).tocsr()
        self.coarsest = spla.splu(matrix.tocsc())

    def __call__(self, r, depth=0):
        if depth == len(self.levels):
            return self.coarsest.solve(r)
        matrix, weight, aggregate = self.levels[depth]
        x = weight * r
        for _ in range(SWEEPS - 1):
            x += weight * (r - matrix @ x)
        coarse = np.bincount(aggregate, r - matrix @ x)
        x += OVER_CORRECTION * self(coarse, depth + 1)[aggregate]
        for _ in range(SWEEPS):
            x += weight * (r - matrix @ x)
        return x


class BlockPreconditioner:
    """x_v = A_vv^-1 r_v exactly, then x_t = V-cycle(r_t - A_tv x_v)."""

    def __init__(self, matrix, shape):
        self.cells = cells = int(np.prod(shape))
        self.tissue_nodes = matrix[:cells, cells:]
        self.nodes_tissue = matrix[cells:, :cells]
        self.nodes = spla.splu(matrix[cells:, cells:].tocsc())
        self.vcycle = VCycle(matrix[:cells, :cells], shape)

    def __call__(self, r):
        x_v = self.nodes.solve(r[self.cells :])
        x_t = self.vcycle(r[: self.cells] - self.tissue_nodes @ x_v)
        return np.concatenate([x_t, x_v])

    def settle_nodes(self, x, rhs):
        """x with its node part solved exactly for its tissue part, so the
        node rows, and with them the 1D mass balance, hold to rounding."""
        x_t = x[: self.cells]
        x_v = self.nodes.solve(rhs[self.cells :] - self.nodes_tissue @ x_t)
        return np.concatenate([x_t, x_v])


def solve_linear(matrix, rhs, shape) -> tuple[np.ndarray, int]:
    """Solve matrix @ x = rhs for a coupled system over the cells of a grid
    with `shape` cells per axis, followed by the network nodes; returns x
    and the number of GMRES iterations taken.

    Cycles end once the 2-norm of the row-scaled residuals is at most
    TARGET, when a cycle fails to halve it (rounding has the last word), or
    after MAX_CYCLES. The last iterate is returned either way: whether it
    is good enough is the caller's gate on `scaled_residual`.
    """
    matrix = sp.csr_matrix(matrix)
    magnitude = abs(matrix)
    precond = BlockPreconditioner(matrix, shape)
    x, previous, iterations = precond(rhs), np.inf, 0
    for cycle in range(MAX_CYCLES + 1):
        x = precond.settle_nodes(x, rhs)
        r = rhs - matrix @ x
        scale = magnitude @ np.abs(x) + np.abs(rhs)
        weight = 1.0 / np.where(scale > 0.0, scale, 1.0)
        measure = np.linalg.norm(weight * r)
        if measure <= TARGET or measure > 0.5 * previous or cycle == MAX_CYCLES:
            return x, iterations
        previous = measure
        correction, steps = _gmres_cycle(matrix, precond, weight * r, weight)
        x, iterations = x + correction, iterations + steps


def _gmres_cycle(matrix, precond, residual, weight):
    """One GMRES(RESTART) cycle on W A M W^-1 y = W r, with W = diag(weight)
    and M the preconditioner, from y = 0 until ||W r||_2 <= TARGET; returns
    the correction M W^-1 y and the iterations taken."""
    basis = np.empty((RESTART + 1, residual.size))
    hessenberg = np.zeros((RESTART + 1, RESTART))
    cos, sin = np.zeros(RESTART), np.zeros(RESTART)
    g = np.zeros(RESTART + 1)  # the rotated right-hand side beta e_1
    g[0] = np.linalg.norm(residual)
    basis[0] = residual / g[0]
    for k in range(RESTART):
        w = weight * (matrix @ precond(basis[k] / weight))
        for _ in range(2):  # classical Gram-Schmidt, reorthogonalised once
            h = basis[: k + 1] @ w
            w -= h @ basis[: k + 1]
            hessenberg[: k + 1, k] += h
        norm = np.linalg.norm(w)
        if norm > 0.0:
            basis[k + 1] = w / norm
        column = hessenberg[:, k]
        for i in range(k):  # the earlier Givens rotations
            column[i], column[i + 1] = (
                cos[i] * column[i] + sin[i] * column[i + 1],
                -sin[i] * column[i] + cos[i] * column[i + 1],
            )
        radius = np.hypot(column[k], norm)
        cos[k], sin[k] = column[k] / radius, norm / radius
        column[k] = radius
        g[k + 1], g[k] = -sin[k] * g[k], cos[k] * g[k]
        if abs(g[k + 1]) <= TARGET or norm == 0.0:
            break
    y = solve_triangular(hessenberg[: k + 1, : k + 1], g[: k + 1])
    return precond((y @ basis[: k + 1]) / weight), k + 1
