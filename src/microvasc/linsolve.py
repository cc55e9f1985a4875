"""One linear solver for the coupled 3D-1D systems of flow and oxygen.

Both physics assemble one sparse matrix over (tissue cells, network nodes),
cells first in the grid's linear order. A `LinearSolver` is built once per
matrix A and solves A + diag(d, 0) for any cell diagonal d, as every
Newton step of the oxygen solve needs: only the cell sink diagonal changes
from step to step. Each solve is restarted GMRES, right-preconditioned
block lower-triangularly: an exact LU of the node block (small, and it
holds the pinned Dirichlet rows), then a solve of the tissue block applied
to r_t - A_tv x_v, the cosine solve or the V-cycle.

The tissue is a homogeneous porous medium on a uniform grid with zero-flux
outer faces, so a tissue block is c L plus a small diagonal from the wall
exchange and the sink, L the grid's face Laplacian with unit coefficient.
The orthonormal DCT-II diagonalises L (Strang, "The discrete cosine
transform", SIAM Rev. 41, 1999; Swarztrauber, SIAM Rev. 19, 1977), whose
eigenvalues in that basis the grid keeps (`TissueGrid.eigenvalues`).
The 3D transform is separable, so `CosineSolve` applies (c L + eps I)^-1
as three dense products with the grid's per-axis basis matrices
(`TissueGrid.cosine_basis`), a division, and the three transposed
products: a few BLAS calls, where a pair of FFT-based transforms spent
most of an application on call overhead at the benchmark's grid sizes.
c is the least-squares fit of the block's face entries to L's (for flow,
the mobility), eps the block's mean row sum plus the mean of the cell
diagonal, the Rayleigh quotient of the constant vector; eps <= 0 at a
solve raises SolverError. `tissue_preconditioner` chooses from the matrix
alone: the cosine solve when c > 0 and no entry of |A - c L| exceeds c
times the weakest face coupling min(area/h), so that no cell's exchange
outweighs one face; the V-cycle otherwise, the path that converges for
strongly coupled walls or a pinned cell, and only then is the grid's
multigrid plan built.

The V-cycle aggregates 2x2x2 cells per coarse cell (ceil(n/2) coarse cells
on an odd axis), takes Galerkin coarse operators P^T A P, smooths each
level with one symmetric red-black Gauss-Seidel sweep (red then black
before the coarse correction, black then red after it; Trottenberg,
Oosterlee & Schueller, "Multigrid", Academic Press, 2001, section 4.1),
over-corrects the coarse-grid correction as in Notay, "An
aggregation-based algebraic multigrid method", ETNA 37 (2010), and solves
the first level of at most COARSEST_CELLS cells (6^3 on a 12^3 grid,
5x5x7 on 40x40x50) exactly, by LAPACK's band LU with partial pivoting
(Anderson et al., "LAPACK Users' Guide", SIAM, 1999): numbered with its
longest axis outermost, its half-bandwidth is the product of its two
shorter axes. See Briggs, Henson & McCormick, "A Multigrid Tutorial",
2nd ed. (SIAM, 2000).

What is fixed by the grid is built once per grid, as its `MultigridPlan`
(`TissueGrid.multigrid`): the aggregation maps, every level's sparsity,
the index map sending each fine nonzero to its coarse one, the red-black
order of every smoothed level, and the band order and band storage of the
coarsest level. Every tissue block is on the grid's face stencil plus the
diagonal, so with P one 1 per row a coarse level's data is
bincount(map, fine data): exact Galerkin, only summed in another order. A
block off that sparsity raises SolverError. Aggregating a face stencil
2x2x2 gives a face stencil again, so the parity of i + j + k colours every
level: no off-diagonal entry joins two cells of one colour (the plan
raises SolverError if one does), and in red-black order a level is
[[D_r, A_rb], [A_br, D_b]] with D_r and D_b diagonal. Each sweep over one
colour is then a half-size product and a division.

Where each block of a coupled matrix sits in its data depends on the
pattern alone: `block_plan` takes it from the canonical CSR pattern once,
as a `BlockPlan` (the tissue block's positions on the grid Laplacian's
pattern, the cell diagonal's, and the compressed patterns of A_tv, A_vt
and, as CSC for SuperLU, A_vv, each with its gather positions). A
`SurfaceCoupling` keeps its plan (`SurfaceCoupling.blocks`), so the flow
and the oxygen solver of a state gather their blocks through one plan
and slice nothing.

Built once per solver: the node-block LU, the off-diagonal blocks, A_rb
and A_br of every smoothed level, gathered from its values in one pass,
and the values of the coarsest level. A solve with a cell diagonal d adds
it in place: d on the finest level and bincount(aggregate, d) on each
coarser one, exact because P^T (A + D) P = P^T A P + diag(P^T D P) when P
has one 1 per row; only the per-colour diagonals change, and the coarsest
level is refactored when a V-cycle next reaches it.

GMRES stops on the row-scaled residual the callers gate on
(`scaled_residual`): each cycle runs on the system whose rows are divided
by |A||x| + |b| of the cycle's starting iterate, so the Krylov residual's
2-norm bounds that measure, and the cycle ends once it reaches the solve's
target. A solve starts from its guess when given one, as a Newton step is
a correction to its iterate, and from M^-1 b otherwise; a right-hand side
of exact zeros returns exact zeros.

Each iterate a solve settles is multiplied once, (A + D) x and
|A + D| |x| with the solve's own shifted matrix, and the solver keeps the
last one with those `Products`. Outside GMRES they are all an iterate
needs: the caller's gate reads them (`LinearSolver.products`, which takes
the cell diagonal back out on the cell rows), and a solve whose guess is
that iterate, for the same node rows, starts from it without settling or
multiplying it again, the products corrected on the cell rows for its own
diagonal. A cold start, and every iterate a cycle ends on, is multiplied
with the shifted matrix itself: the correction adds a rounding a solve's
accuracy would carry. A vector that is not the kept iterate to the bit,
such as one a line search moved or a caller wrote into, is multiplied
afresh.

The target is TARGET, far below the callers' gates, unless the solve is
given a forcing term eta > 0: then it is max(TARGET, eta * the measure of
the start), the relative accuracy an inexact Newton step asks for
(Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996). Flow solves use
eta = 0; an oxygen Newton solve sets eta per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SolverError

RESTART = 60  # GMRES(60): Krylov vectors per cycle
MAX_CYCLES = 10
# 2-norm of the row-scaled residuals a solve aims for, far below the
# callers' 1e-10 gates: at 1e-13 the answers agreed with a direct solve
# only to 5e-12 on an oxygen Jacobian, at 1e-14 to 3e-13, for two or three
# more iterations.
TARGET = 1.0e-14
OVER_CORRECTION = 1.9
COARSEST_CELLS = 500  # every Newton step refactors the coarsest level


def scaled_residuals(matrix, x, rhs, nonlinear=0.0) -> np.ndarray:
    """Row-scaled residuals |(Ax + f - b)_i| / (sum_j |A_ij x_j| + |f_i| +
    |b_i|), with f an optional nonlinear term such as a sink."""
    return row_scaled(matrix @ x + nonlinear - rhs, abs(matrix) @ np.abs(x), rhs, nonlinear)


def row_scaled(residual, magnitude, rhs, nonlinear=0.0) -> np.ndarray:
    """`scaled_residuals` of a residual Ax + f - b the caller has already
    formed, `magnitude` being |A||x|, as `LinearSolver.products` gives it."""
    scale = magnitude + np.abs(nonlinear) + np.abs(rhs)
    return np.abs(residual) / np.where(scale > 0.0, scale, 1.0)


def scaled_residual(matrix, x, rhs, nonlinear=0.0) -> float:
    """Row-scaled residual, the largest of `scaled_residuals`.

    Every row, physics and Dirichlet alike, is measured against its own
    magnitude, so a bad solve fails the gate even where the coefficients
    are many orders below the Dirichlet rows' 1.
    """
    return float(np.max(scaled_residuals(matrix, x, rhs, nonlinear)))


def _aggregate(shape):
    """Coarse cell of every fine cell under 2x2x2 aggregation, and the
    coarse shape; both in linear order i + nx*(j + ny*k)."""
    nx, ny, nz = shape
    coarse = tuple((n + 1) // 2 for n in shape)
    k, j, i = np.meshgrid(
        np.arange(nz) // 2, np.arange(ny) // 2, np.arange(nx) // 2, indexing="ij"
    )
    return (i + coarse[0] * (j + coarse[1] * k)).ravel(), coarse


def _band_order(shape):
    """Place of each cell of a box, given in linear order i + nx*(j + ny*k),
    when the longest axis is numbered outermost (z on a tie, so a cube keeps
    its linear order), and the half-bandwidth of the face stencil in that
    order: the product of the two shorter axes."""
    cells = np.arange(int(np.prod(shape))).reshape(shape[::-1])  # axes z, y, x
    order = np.moveaxis(cells, int(np.argmax(shape[::-1])), 0).ravel()
    return _inverse(order), order.size // max(shape)


def csr_pattern(rows, cols, n):
    """CSR pattern (indptr, indices) of the n x n matrix that sums each
    term k of a list into entry (rows[k], cols[k]), and the position of
    that entry in the pattern for every k: the matrix's data is then
    bincount(position, terms)."""
    key = rows.astype(np.int64) * n + cols
    unique, position = np.unique(key, return_inverse=True)
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
    return indptr, (unique % n).astype(np.int32), position


@dataclass(frozen=True)
class Level:
    """The sparsity of one level's operator and its map to the next.

    `aggregate` is the next level's cell of each cell and `galerkin` the
    next level's nonzero of each nonzero, so P^T A P has the data
    bincount(galerkin, A.data). On the coarsest level `aggregate` is each
    cell's place in band order and `galerkin` the place of each nonzero
    (i, j), in that order, in LAPACK band storage ab[2 kl + i - j, j]
    (3 kl + 1 rows), as a flat index into the C-ordered transpose of ab.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray  # position of each row's diagonal entry in the data
    aggregate: np.ndarray
    galerkin: np.ndarray

    def matrix(self, data) -> sp.csr_matrix:
        n = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def restrict(self, data) -> np.ndarray:
        """The next level's data from this level's."""
        return np.bincount(self.galerkin, data)


@dataclass(frozen=True)
class RedBlack:
    """A smoothed level in the order its V-cycle works in: the red cells,
    those with i + j + k even, then the black ones. Every off-diagonal
    entry joins two cells of different colour, so in that order the
    operator is [[D_r, A_rb], [A_br, D_b]] with D_r and D_b diagonal.

    `order` is the level's cell at each place and `red` the number of red
    places; `diagonal` is the position in the level's data of each place's
    diagonal entry. `indptr` and `indices` are the off-diagonal part in
    red-black order as one CSR pattern, the rows of A_rb then those of
    A_br, each column numbered within its colour, and `gather` the
    position in the level's data of each of its entries. `aggregate` is
    the next level's place, in the order its cycle works in, of each red
    cell; every coarse cell has one, its cell with even i, j and k.
    """

    order: np.ndarray
    red: int
    diagonal: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    aggregate: np.ndarray

    def blocks(self, data) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """A_rb and A_br of the level with this data, by one gather."""
        values, red, black = data[self.gather], self.red, self.order.size - self.red
        split = self.indptr[red]
        return (
            sp.csr_matrix(
                (values[:split], self.indices[:split], self.indptr[: red + 1]),
                shape=(red, black),
            ),
            sp.csr_matrix(
                (values[split:], self.indices[split:], self.indptr[red:] - split),
                shape=(black, red),
            ),
        )


def _inverse(order):
    """The place of each item in a permutation `order` of 0..n-1."""
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return place


def _red_black(shape, indptr, indices, diagonal):
    """Red-black order of a level of this shape and (canonical CSR)
    pattern: its cells by the parity of i + j + k, then the off-diagonal
    pattern in that order (see `RedBlack`), with no aggregation yet;
    SolverError when an off-diagonal entry joins two cells of one colour."""
    colour = np.indices(shape[::-1]).sum(axis=0).ravel() % 2  # axes z, y, x
    red_cells = np.flatnonzero(colour == 0)
    order = np.concatenate([red_cells, np.flatnonzero(colour)])
    red, place, n = red_cells.size, _inverse(order), order.size
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off = np.flatnonzero(indices != rows)
    if np.any(colour[rows[off]] == colour[indices[off]]):
        raise SolverError("an off-diagonal entry joins two cells of one colour")
    # the rows move, each keeping its entries in their order: its columns
    # are all of the other colour, whose places rise with the cells
    counts = np.bincount(rows[off], minlength=n)
    first = np.cumsum(counts) - counts  # of each row's entries in `off`
    counts = counts[order]
    block_indptr = np.zeros(n + 1, indptr.dtype)
    np.cumsum(counts, out=block_indptr[1:])
    gather = off[np.repeat(first[order] - block_indptr[:-1], counts) + np.arange(off.size)]
    block_indices = place[indices[gather]].astype(indices.dtype)
    block_indices[: block_indptr[red]] -= red  # A_rb's columns are black
    return order, red, diagonal[order], block_indptr, block_indices, gather


@dataclass(frozen=True)
class Block:
    """The compressed pattern of one block of a coupled matrix, with the
    position in the coupled matrix's data of each of its entries."""

    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    shape: tuple[int, int]

    def csr(self, data) -> sp.csr_matrix:
        return sp.csr_matrix((data[self.gather], self.indices, self.indptr), shape=self.shape)

    def csc(self, data) -> sp.csc_matrix:
        return sp.csc_matrix((data[self.gather], self.indices, self.indptr), shape=self.shape)


@dataclass(frozen=True)
class BlockPlan:
    """Where the blocks of a coupled matrix over (cells, nodes) sit in its
    data, taken from its pattern once: `tissue`, the position of each
    entry of the grid Laplacian's data, so the tissue block's data on that
    pattern is data[tissue]; `cell_diagonal`, the position of each cell's
    diagonal; A_tv and A_vt as CSR blocks and the node block A_vv as a CSC
    one, the form `splu` factors."""

    tissue: np.ndarray
    cell_diagonal: np.ndarray
    tissue_nodes: Block
    nodes_tissue: Block
    nodes: Block

    def factor_nodes(self, data) -> spla.SuperLU:
        """The LU of the node block of a matrix with `data` on the plan's
        pattern, in SuperLU's symmetric mode; SolverError when singular.

        The node block is a graph Laplacian plus the wall terms, nearly
        symmetric: a minimum-degree order on its symmetric part fills in
        about half what COLAMD's does on a lattice of capillaries. The
        symmetric mode keeps that order's elimination tree (of A + A^T),
        where the default postorders the column tree of A^T A instead and
        factors several times slower with the same fill. The order depends
        on the pattern alone (George & Liu, SIAM Rev. 31, 1989), so every
        factor on a plan takes the same one."""
        matrix = self.nodes.csc(data)
        try:
            lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"node block: {exc}") from exc
        # SuperLU stops only at an exact zero pivot. |A^-1 |A| 1| bounds
        # Skeel's condition number |A^-1||A| from below; past 1 / (n eps),
        # rounding alone may have moved A off a singular matrix
        n = self.nodes.shape[0]
        growth = np.max(np.abs(lu.solve(np.bincount(matrix.indices, np.abs(matrix.data), n))))
        if not growth * n * np.finfo(float).eps < 1.0:
            raise SolverError(
                f"node block is singular to working precision: |A^-1||A| 1 reaches {growth:.3e}"
            )
        return lu


def block_plan(pattern, grid) -> BlockPlan:
    """The `BlockPlan` of a coupled matrix over `grid`'s cells, then the
    network nodes, whose canonical CSR pattern is `pattern` (anything with
    `indptr` and `indices`: a `grid.CoupledPattern` or a matrix);
    SolverError when its tissue block is not on the face stencil plus the
    diagonal."""
    indptr, indices, cells = pattern.indptr, pattern.indices, grid.n_cells
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    node_row, node_col = rows >= cells, indices >= cells
    tissue = np.flatnonzero(~(node_row | node_col))
    laplacian = grid.laplacian
    if not (
        tissue.size == laplacian.nnz
        and np.array_equal(indices[tissue], laplacian.indices)
        and np.array_equal(np.searchsorted(tissue, indptr[: cells + 1]), laplacian.indptr)
    ):
        raise SolverError("tissue block is not on the grid's face stencil plus diagonal")

    def block(at, major, minor, shape):
        """The entries `at` compressed along `major`, the first axis of
        `shape`: the rows of a CSR block, the columns of the (square) node
        block's CSC."""
        compressed = np.zeros(shape[0] + 1, np.int32)
        np.cumsum(np.bincount(major, minlength=shape[0]), out=compressed[1:])
        return Block(compressed, minor.astype(np.int32), at, shape)

    nodes = n - cells
    tissue_nodes = np.flatnonzero(node_col & ~node_row)
    nodes_tissue = np.flatnonzero(node_row & ~node_col)
    node_block = np.flatnonzero(node_row & node_col)
    # by column, each column's rows kept in their ascending order
    node_block = node_block[np.argsort(indices[node_block], kind="stable")]
    return BlockPlan(
        tissue=tissue,
        cell_diagonal=tissue[grid.stencil[0]],
        tissue_nodes=block(
            tissue_nodes, rows[tissue_nodes], indices[tissue_nodes] - cells, (cells, nodes)
        ),
        nodes_tissue=block(
            nodes_tissue, rows[nodes_tissue] - cells, indices[nodes_tissue], (nodes, cells)
        ),
        nodes=block(
            node_block, indices[node_block] - cells, rows[node_block] - cells, (nodes, nodes)
        ),
    )


class MultigridPlan:
    """What a V-cycle needs of a grid and does not depend on the values:
    the aggregation, every level's pattern and Galerkin map, the red-black
    order of every smoothed level (`red_black`), the order the finest
    level's cycle works in (`order`, the cell at each place, and `place`,
    its inverse), and the band order, storage and half-bandwidth
    `bandwidth` of the coarsest level.

    Built from the shape and the sparsity of the grid's tissue operators
    (the face stencil plus the diagonal), once per grid: see
    `TissueGrid.multigrid`. 2x2x2 aggregation of a face stencil is a face
    stencil again, so every level is two-coloured by parity.
    """

    def __init__(self, shape, pattern):
        indptr, indices = pattern.indptr, pattern.indices
        n = int(np.prod(shape))
        self.levels = []  # the smoothed levels, then the coarsest
        colourings = []
        while True:
            rows = np.repeat(np.arange(n), np.diff(indptr))
            diagonal = np.flatnonzero(indices == rows)
            if n <= COARSEST_CELLS:
                break
            colourings.append(_red_black(shape, indptr, indices, diagonal))
            aggregate, shape = _aggregate(shape)
            n = int(np.prod(shape))
            *coarse, galerkin = csr_pattern(aggregate[rows], aggregate[indices], n)
            self.levels.append(Level(indptr, indices, diagonal, aggregate, galerkin))
            indptr, indices = coarse
        rank, kl = _band_order(shape)
        i, j = rank[rows], rank[indices]
        band = j * (3 * kl + 1) + 2 * kl + i - j
        self.levels.append(Level(indptr, indices, diagonal, rank, band))
        self.bandwidth = kl
        # every level's place of each of its cells in its cycle's order
        places = [_inverse(order) for order, *_ in colourings] + [rank]
        self.red_black = [
            RedBlack(order, red, *pattern, place[level.aggregate[order[:red]]])
            for level, (order, red, *pattern), place in zip(self.levels, colourings, places[1:])
        ]
        self.place, self.order = places[0], _inverse(places[0])


class VCycle:
    """Aggregation V-cycle for a tissue block of `grid`'s cells, given as
    its data on the grid Laplacian's pattern (`BlockPlan.tissue` gathers
    it): the grid's `MultigridPlan` filled with the block's values, and a
    cell diagonal set by `shift`. Each smoothed level is kept in red-black
    order, as its off-diagonal blocks A_rb and A_br and its diagonal; the
    cycle permutes only on entry and exit. The coarsest level is factored
    when a cycle first reaches it after construction or a shift."""

    def __init__(self, data, grid):
        self.plan = plan = grid.multigrid
        self.levels = []  # (A_rb, A_br, red-black diagonal as built)
        for level, colouring in zip(plan.levels, plan.red_black):
            self.levels.append((*colouring.blocks(data), data[colouring.diagonal]))
            data = level.restrict(data)
        bottom = plan.levels[-1]  # `shift` writes its diagonal
        self.bottom = (bottom.matrix(data), data[bottom.diagonal])
        self.shift(np.zeros(plan.levels[0].diagonal.size))

    def shift(self, d):
        """Make this, in place, the V-cycle of the tissue block plus diag(d):
        d on the finest level and diag(P^T D P) = bincount(aggregate, d) on
        each coarser one; touches only the diagonals, and drops the
        coarsest LU."""
        self.diagonals = []  # of each smoothed level, in red-black order
        for (*_, diagonal), level, colouring in zip(
            self.levels, self.plan.levels, self.plan.red_black
        ):
            self.diagonals.append(diagonal + d[colouring.order])
            d = np.bincount(level.aggregate, d)
        matrix, diagonal = self.bottom
        matrix.data[self.plan.levels[-1].diagonal] = diagonal + d
        self.coarsest = None

    def __call__(self, r):
        return self._cycle(r[self.plan.order])[self.plan.place]

    def _cycle(self, r, depth=0):
        """The V-cycle from zero on level `depth`, r and the answer in the
        order that level's cycle works in. One symmetric red-black
        Gauss-Seidel sweep smooths: red then black before the coarse
        correction, black then red after it."""
        if depth == len(self.levels):
            return self._solve_coarsest(r)
        red_black, black_red, _ = self.levels[depth]
        diagonal, colouring = self.diagonals[depth], self.plan.red_black[depth]
        red, aggregate = colouring.red, colouring.aggregate
        # from x = 0 the red update takes no product, and the black one
        # leaves the black residual zero; the red one is -A_rb x_b
        x_red = r[:red] / diagonal[:red]
        x_black = (r[red:] - black_red @ x_red) / diagonal[red:]
        coarse = np.bincount(aggregate, red_black @ x_black)
        # the black update overwrites black: only red takes the correction
        x_red -= OVER_CORRECTION * self._cycle(coarse, depth + 1)[aggregate]
        x_black = (r[red:] - black_red @ x_red) / diagonal[red:]
        x_red = (r[:red] - red_black @ x_black) / diagonal[:red]
        return np.concatenate([x_red, x_black])

    def _solve_coarsest(self, r):
        """The coarsest level solved exactly by LAPACK's band LU with
        partial pivoting, factored on first use; r and the answer in band
        order."""
        level, kl = self.plan.levels[-1], self.plan.bandwidth
        if self.coarsest is None:
            band = np.zeros((level.aggregate.size, 3 * kl + 1))
            band.ravel()[level.galerkin] = self.bottom[0].data
            lu, pivots, info = dgbtrf(band.T, kl, kl, overwrite_ab=True)
            if info > 0:
                raise SolverError(f"coarsest multigrid level is singular (U[{info}, {info}] = 0)")
            self.coarsest = lu, pivots
        lu, pivots = self.coarsest
        return dgbtrs(lu, kl, kl, r, pivots)[0]


@dataclass(frozen=True)
class CosineFit:
    """What the cosine solve's fit of a tissue block takes from the grid
    alone (`TissueGrid.cosine_fit`): `faces`, the position in the grid
    Laplacian's data of each face's (lo, hi) and (hi, lo) entries; `unit`,
    those entries of the unit Laplacian; `norm`, unit @ unit; `weakest`,
    the weakest face coupling min(area/h)."""

    faces: np.ndarray
    unit: np.ndarray
    norm: float
    weakest: float


class CosineSolve:
    """(c L + eps I)^-1 for a tissue block of `grid`'s cells, given as in
    `VCycle`, L the grid's face Laplacian with unit coefficient, by the
    orthonormal DCT-II, which diagonalises L (Strang, SIAM Rev. 41, 1999):
    the grid keeps that basis, one matrix per axis
    (`TissueGrid.cosine_basis`), and L's eigenvalues in it
    (`TissueGrid.eigenvalues`).

    c is the least-squares fit of the block's face entries to L's, eps
    the block's mean row sum plus the mean of the cell diagonal set by
    `shift`: the Rayleigh quotient of the constant vector, L's null
    space. `mismatch` is the largest entry of |A - c L| over the pattern
    in units of c times the weakest face coupling, the measure
    `tissue_preconditioner` selects on. What the fit takes from the grid
    alone, the grid keeps (`TissueGrid.cosine_fit`).
    """

    def __init__(self, data, grid):
        self.grid = grid
        fit = grid.cosine_fit
        self.coefficient = c = data[fit.faces] @ fit.unit / fit.norm
        self.mismatch = (
            np.max(np.abs(data - c * grid.laplacian.data)) / (c * fit.weakest)
            if c > 0.0
            else np.inf
        )
        self.row_sum = np.sum(data) / grid.n_cells
        self.shift(np.zeros(grid.n_cells))

    def shift(self, d):
        """Make this the solve of the tissue block plus diag(d): eps moves
        by the mean of d."""
        self.epsilon = self.row_sum + np.mean(d)
        self.denominator = None

    def __call__(self, r):
        """Q^T (Q r / denominator), Q the 3D DCT-II applied axis by axis: a
        product with each axis's basis matrix, and the transposes back."""
        if self.denominator is None:
            if not self.epsilon > 0.0:
                raise SolverError(
                    f"tissue block is singular: its constant mode has eps = {self.epsilon:.3e}"
                )
            self.denominator = self.coefficient * self.grid.eigenvalues + self.epsilon
        qx, qy, qz = self.grid.cosine_basis
        nz, ny, nx = shape = self.denominator.shape
        x = r.reshape(nz * ny, nx) @ qx.T
        x = qy @ x.reshape(shape)
        x = qz @ x.reshape(nz, ny * nx)
        x /= self.denominator.reshape(nz, ny * nx)
        x = (qz.T @ x).reshape(shape)
        x = qy.T @ x
        return (x.reshape(nz * ny, nx) @ qx).ravel()


def tissue_preconditioner(data, grid):
    """The cosine solve of a tissue block, given as in `VCycle`, when it is
    close to a constant-coefficient c L, that is c > 0 and no entry of
    A - c L outweighs c times the weakest face coupling; the V-cycle
    otherwise, which is the path that converges for strongly coupled
    walls."""
    cosine = CosineSolve(data, grid)
    if cosine.mismatch <= 1.0:
        return cosine
    return VCycle(data, grid)


@dataclass(frozen=True)
class Products:
    """An iterate x with (A + D) x and |A + D| |x|, A a solver's matrix and
    D a cell diagonal; `diagonal` is A's cell diagonal plus D's."""

    x: np.ndarray
    product: np.ndarray
    magnitude: np.ndarray
    diagonal: np.ndarray

    def under(self, diagonal) -> tuple[np.ndarray, np.ndarray]:
        """The products of x under the cell diagonal `diagonal` (A's plus
        another D): they differ only on the cell rows, by the change of
        the diagonal times x there."""
        if diagonal is self.diagonal:
            return self.product, self.magnitude
        cells, x_t = diagonal.size, self.x[: diagonal.size]
        product, magnitude = self.product.copy(), self.magnitude.copy()
        product[:cells] += (diagonal - self.diagonal) * x_t
        magnitude[:cells] += (np.abs(diagonal) - np.abs(self.diagonal)) * np.abs(x_t)
        return product, magnitude


class LinearSolver:
    """Solver for (A + diag(d, 0)) x = b, A a coupled system over the cells
    of `grid` followed by the network nodes, and d a diagonal on the cell
    rows given per solve.

    The preconditioner M is x_v = A_vv^-1 r_v exactly, then
    x_t = T(r_t - A_tv x_v), T the `tissue_preconditioner` of the tissue
    block: its cosine solve or its V-cycle. Neither the node block nor the
    off-diagonal blocks see d.

    The blocks are gathered from A's data through `plan`, the `BlockPlan`
    of A's canonical CSR pattern: a coupled system passes its coupling's
    (`SurfaceCoupling.blocks`), shared by flow and oxygen; without one it
    is made from A. The node block is factored by `BlockPlan.factor_nodes`.
    A itself is never written: the solver multiplies with its own copy of
    the data, on A's index arrays, whose cell diagonal a solve shifts.

    Each iterate a solve settles is multiplied once. The solver keeps the
    last one (a copy, `settled`), the node rows it was settled for and
    its `Products` under the diagonal of that solve. A later solve whose
    guess is that iterate, to the bit, for the same node rows neither
    settles it again nor multiplies it: its residual is the kept products
    corrected on the cell rows for the new d. `products` serves a
    caller's gate from them too. Any other vector, such as an iterate a
    line search moved or a caller wrote into, is multiplied afresh.
    """

    def __init__(self, matrix, grid, plan=None):
        matrix = matrix.tocsr()
        if plan is None:
            plan = block_plan(matrix, grid)
        data, pattern = matrix.data, (matrix.indices, matrix.indptr)
        # `solve` writes the cell diagonal of these two, which stay on A's
        # pattern: no sum_duplicates may reorder them under the plan
        self.matrix = sp.csr_matrix((data.copy(), *pattern), shape=matrix.shape)
        self.magnitude = sp.csr_matrix((np.abs(data), *pattern), shape=matrix.shape)
        self.cells = grid.n_cells
        self.tissue = tissue_preconditioner(data[plan.tissue], grid)
        self.cell_diagonal_at = plan.cell_diagonal
        self.cell_diagonal = data[plan.cell_diagonal]
        self.diagonal = self.cell_diagonal  # in `matrix`: A's, plus the last solve's d
        self.tissue_nodes = plan.tissue_nodes.csr(data)
        self.nodes_tissue = plan.nodes_tissue.csr(data)
        self.nodes = plan.factor_nodes(data)
        self.shifted = False
        self.settled = None  # the last settled iterate's Products, its x a copy
        self.settled_nodes = None  # the node rows of the rhs it was settled for

    def solve(self, rhs, cell_diagonal=None, guess=None, forcing=0.0) -> tuple[np.ndarray, int]:
        """Solve (A + diag(cell_diagonal, 0)) x = rhs; returns x and the
        number of GMRES iterations taken.

        GMRES starts from `guess` when one is given and from M^-1 rhs
        otherwise, with its node part settled (already so when the guess
        is the last iterate settled for these node rows); a right-hand
        side of exact zeros gives exact zeros. Cycles end once the 2-norm
        of the row-scaled residuals is at most max(TARGET, forcing * that
        of the start), when a cycle fails to halve it (rounding has the
        last word), or after MAX_CYCLES. The last iterate is returned
        either way: whether it is good enough is the caller's gate on
        `scaled_residual`, whose products `products` serves.
        """
        if not np.any(rhs):
            return np.zeros(rhs.size), 0
        if cell_diagonal is None and self.shifted:
            cell_diagonal = np.zeros(self.cells)  # back to A itself
        if cell_diagonal is not None:
            self.diagonal = self.cell_diagonal + cell_diagonal
            self.matrix.data[self.cell_diagonal_at] = self.diagonal
            self.magnitude.data[self.cell_diagonal_at] = np.abs(self.diagonal)
            self.tissue.shift(cell_diagonal)
            self.shifted = bool(np.any(cell_diagonal))
        kept = None if guess is None else self._kept(guess)
        if kept is not None and np.array_equal(rhs[self.cells :], self.settled_nodes):
            x = np.array(guess, float)  # settled for these node rows already
        else:
            kept = None
            start = self._precondition(rhs) if guess is None else np.asarray(guess, float)
            x = self._settle(start, rhs)
        r, weight, measure = self._residual(x, rhs, kept)
        target = max(TARGET, forcing * measure)
        previous, iterations = np.inf, 0
        for cycle in range(MAX_CYCLES + 1):
            if measure <= target or measure > 0.5 * previous or cycle == MAX_CYCLES:
                return x, iterations
            previous = measure
            correction, steps = _gmres_cycle(
                self.matrix, self._precondition, weight * r, weight, target
            )
            x, iterations = self._settle(x + correction, rhs), iterations + steps
            r, weight, measure = self._residual(x, rhs)

    def products(self, x) -> tuple[np.ndarray, np.ndarray]:
        """A x and |A| |x|, A the matrix the solver was built from, as a
        residual gate on x needs them: the kept products corrected for the
        cell diagonal when x is the last settled iterate, else formed. The
        arrays may be the kept ones, which are read-only."""
        kept = self._kept(x)
        return (self._multiply(x) if kept is None else kept).under(self.cell_diagonal)

    def _kept(self, x) -> Products | None:
        """The kept `Products` when x is the last settled iterate, to the
        bit, else None."""
        kept = self.settled
        return kept if kept is not None and np.array_equal(x, kept.x) else None

    def _multiply(self, x) -> Products:
        """x's products under the current cell diagonal, formed."""
        return Products(x, self.matrix @ x, self.magnitude @ np.abs(x), self.diagonal)

    def _precondition(self, r):
        x_v = self.nodes.solve(r[self.cells :])
        x_t = self.tissue(r[: self.cells] - self.tissue_nodes @ x_v)
        return np.concatenate([x_t, x_v])

    def _settle(self, x, rhs):
        """x with its node part solved exactly for its tissue part, so the
        node rows, and with them the 1D mass balance, hold to rounding."""
        x_t = x[: self.cells]
        x_v = self.nodes.solve(rhs[self.cells :] - self.nodes_tissue @ x_t)
        return np.concatenate([x_t, x_v])

    def _residual(self, x, rhs, kept=None):
        """rhs - A x, the row weights 1 / (|A||x| + |rhs|) and the 2-norm of
        the row-scaled residuals, A with the current cell diagonal, for x
        settled for `rhs`: from x's `kept` products when given, else from
        products formed now and kept as the last settled iterate's."""
        if kept is None:
            kept = self._multiply(x.copy())
            for array in (kept.x, kept.product, kept.magnitude):
                array.flags.writeable = False
            self.settled, self.settled_nodes = kept, rhs[self.cells :].copy()
        product, magnitude = kept.under(self.diagonal)
        r = rhs - product
        scale = magnitude + np.abs(rhs)
        weight = 1.0 / np.where(scale > 0.0, scale, 1.0)
        return r, weight, np.linalg.norm(weight * r)


def _gmres_cycle(matrix, precond, residual, weight, target):
    """One GMRES(RESTART) cycle on W A M W^-1 y = W r, with W = diag(weight)
    and M the preconditioner, from y = 0 until ||W r||_2 <= target; returns
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
        if abs(g[k + 1]) <= target or norm == 0.0:
            break
    y = solve_triangular(hessenberg[: k + 1, : k + 1], g[: k + 1])
    return precond((y @ basis[: k + 1]) / weight), k + 1
