"""Direct 3D diagonalization of the relative-motion operator on a cubic grid.

This is the route that never uses separability: the full operator

    -(1/2) (d2/dX1^2 + d2/dX2^2 + d2/dX3^2)
    + (omega^2/2) (X1^2 + X2^2 + X3^2) + g1^2/(6 X2^2)

is discretized with the 7-point stencil.  The barrier makes the particles
impenetrable: the half-spaces X2 > 0 and X2 < 0 never couple and are mirror
images, so the grid holds X2 > 0 only, the positive nodes j * h of the X1/X3
axis behind a Dirichlet plane at X2 = 0, and every level counts twice.  The
barrier diagonal is that of the 1D channels (numsolve.inverse_square_diag),
which keeps the grid second order at every g1^2; g1^2 = 0 is the
impenetrable limit.

The reflections X1 -> -X1, X3 -> -X3 and the mirror X1 <-> X3 commute with
the stencil and the potential, so the half-space splits into sectors, each
solved by a matrix-free thick-restart Lanczos iteration with full
reorthogonalization.  The split is needed for correctness as well as speed:
a single-vector Krylov space holds one vector of each eigenspace, so exactly
degenerate partners such as an X1 <-> X3 image pair are found only because
they fall in different sectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .model import ModelParams
from .numsolve import ConvergenceError, EigenResult, inverse_square_diag

#: Smallest and largest requested points per axis.  At the largest, the
#: biggest sector has ~220k unknowns and its Lanczos basis takes ~45 MB
#: (`verify 3d` peaks near 150 MB); it admits a halving of the 61-point default.
MIN_POINTS_PER_AXIS = 16
MAX_POINTS_PER_AXIS = 121


@dataclass(frozen=True)
class AxisLayout:
    """Node count and spacing for a requested resolution.

    X1 and X3 carry n_sym (odd) node-centered nodes including 0; X2 carries
    their (n_sym - 1) / 2 positive nodes.  One spacing serves every axis.
    """

    n_sym: int
    h_sym: float
    extent: float

    @classmethod
    def for_resolution(cls, n_per_axis: int, extent: float) -> "AxisLayout":
        if not MIN_POINTS_PER_AXIS <= n_per_axis <= MAX_POINTS_PER_AXIS:
            raise ValueError(f"n_per_axis must lie in [{MIN_POINTS_PER_AXIS}, "
                             f"{MAX_POINTS_PER_AXIS}], got {n_per_axis}")
        if not (extent > 0):
            raise ValueError("extent must be positive")
        n_sym = n_per_axis if n_per_axis % 2 == 1 else n_per_axis + 1
        return cls(n_sym=n_sym, h_sym=2.0 * extent / (n_sym + 1), extent=extent)

    def nodes_sym(self) -> np.ndarray:
        return -self.extent + self.h_sym * np.arange(1, self.n_sym + 1)


#: Reflection sectors in the order they are solved: the parities (+1 even,
#: -1 odd) under X1 -> -X1 and X3 -> -X3, then the parity under X1 <-> X3
#: where the X1 and X3 parities agree (0 where they differ).
SECTORS = tuple((p1, p3, swap)
                for p1, p3 in itertools.product((1, -1), repeat=2)
                for swap in ((1, -1) if p1 == p3 else (0,)))

#: Lanczos basis size of a sector solve.  16-30 measured alike at 41 points
#: per axis; 16 came near the restart cap at 81.
SECTOR_KRYLOV_DIM = 24
#: Thick restarts a sector solve may take before it raises ConvergenceError.
SECTOR_MAX_RESTARTS = 40

#: Largest g1^2 the grid takes, below the CLI's range until the X2 window
#: follows the barrier: g1^2 / (6 h^2) at the first X2 node widens the
#: spectrum; the 61-point default passes to g1^2 = 800 and stops converging
#: near 1000, finer grids sooner.
MAX_G1_SQUARED = 1000.0

_SQRT2 = math.sqrt(2.0)


def _sector_axis(nodes: np.ndarray, h: float, parity: int):
    """One axis of a reflection sector: kept nodes and the axis kinetic matrix.

    The kept nodes are x >= 0 in the orthonormal basis (delta_x +/- delta_-x)
    / sqrt(2), with delta_0 alone for an even function.  The x = 0 node
    couples to x = h by sqrt(2) times the stencil weight (even), or is
    dropped, which leaves a Dirichlet boundary (odd).
    """
    c = -0.5 / h**2
    half = len(nodes) // 2
    x = nodes[half + 1:] if parity < 0 else nodes[half:]
    links = np.full(len(x) - 1, c)
    kinetic = np.diag(np.full(len(x), 1.0 / h**2)) + np.diag(links, 1) + np.diag(links, -1)
    if parity > 0:
        kinetic[0, 1] = kinetic[1, 0] = _SQRT2 * c
    return x, kinetic


def _build_operator(params: ModelParams, layout: AxisLayout,
                    sector: tuple = SECTORS[0]):
    """Matrix-free symmetric operator of one sector of SECTORS, and its size.

    The 7-point stencil is applied axis by axis, each axis's tridiagonal
    kinetic matrix along its own axis; X2 is kept as an odd axis is.
    """
    p1, p3, swap = sector
    nodes, h = layout.nodes_sym(), layout.h_sym
    x1, k1 = _sector_axis(nodes, h, p1)
    x2, k2 = _sector_axis(nodes, h, -1)
    x3, k3 = _sector_axis(nodes, h, p3)
    barrier = inverse_square_diag(np.arange(1, len(x2) + 1), params.g1_squared / 6.0,
                                  0.5, h)
    pot = (0.5 * params.omega**2 * (x1[:, None, None] ** 2 + x2[None, :, None] ** 2
                                    + x3[None, None, :] ** 2)
           + barrier[None, :, None])
    shape = pot.shape

    def stencil(u: np.ndarray) -> np.ndarray:
        u = u.reshape(shape)
        y = pot * u
        y += (k1 @ u.reshape(shape[0], -1)).reshape(shape)
        y += k2 @ u
        y += u @ k3
        return y

    if not swap:
        return (lambda u: stencil(u).ravel()), pot.size

    # X1 <-> X3 mirror basis: index pairs i >= j (i > j when odd) and their norms
    i, j = np.tril_indices(shape[0], 0 if swap > 0 else -1)
    norm = np.where(i == j, 1.0, _SQRT2)[:, None]

    def matvec(u: np.ndarray) -> np.ndarray:
        c = u.reshape(i.size, shape[1]) / norm
        full = np.zeros(shape)
        full[i, :, j] = c
        full[j, :, i] = swap * c
        return (stencil(full)[i, :, j] * norm).ravel()

    return matvec, i.size * shape[1]


def _start_vector(n: int) -> np.ndarray:
    # The all-equal vector with a tiny deterministic modulation, so that no
    # regular pattern on the grid leaves it orthogonal to an eigenvector; it
    # reaches one vector of each eigenspace only (see the module docstring).
    v = 1.0 + 1e-3 * np.sin(1.0 + np.arange(n, dtype=float))
    return v / np.linalg.norm(v)


def lanczos_lowest(matvec: Callable[[np.ndarray], np.ndarray], n: int, k: int,
                   krylov_dim: int = 90, max_restarts: int = 40,
                   tol: float = 1e-8, history: list | None = None):
    """Lowest k eigenvalues and their residuals, as a pair of arrays.

    Thick-restart Lanczos with full reorthogonalization, deterministic, with
    at most krylov_dim * max_restarts matrix applications; raises
    ConvergenceError with the residuals beyond them.  A ``history`` list gets
    the lowest Ritz value of each restart cycle, non-increasing by the
    variational principle.
    """
    m = min(krylov_dim, n - 1)
    if k > m - 2:
        raise ValueError("k too large for the Krylov dimension")
    keep_extra = min(6, m - 2 - k)
    V = np.zeros((m + 1, n))
    V[0] = _start_vector(n)
    n_locked = 0
    locked_vals = np.zeros(0)
    locked_links = np.zeros(0)
    lam = res = None
    for _ in range(max_restarts):
        T = np.zeros((m, m))
        if n_locked:
            T[:n_locked, :n_locked] = np.diag(locked_vals)
            T[:n_locked, n_locked] = locked_links
            T[n_locked, :n_locked] = locked_links
        beta = 0.0
        for j in range(n_locked, m):
            w = matvec(V[j])
            T[j, j] = float(w @ V[j])
            for _pass in range(2):  # full reorthogonalization, two passes
                w -= V[: j + 1].T @ (V[: j + 1] @ w)
            beta = float(np.linalg.norm(w))
            if beta < 1e-12:
                # Krylov space exhausted an invariant subspace; deterministic refill
                w = np.cos(0.7 * np.arange(n, dtype=float) + j)
                w -= V[: j + 1].T @ (V[: j + 1] @ w)
                beta = float(np.linalg.norm(w))
            V[j + 1] = w / beta
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, S = eigh(T)
        order = np.argsort(theta)
        lam = theta[order]
        res = np.abs(beta * S[m - 1, order])
        if history is not None:
            history.append(float(lam[0]))
        if np.all(res[:k] <= tol * np.maximum(1.0, np.abs(lam[:k]))):
            return lam[:k], res[:k]
        kk = k + keep_extra
        keep = order[:kk]
        ritz = (V[:m].T @ S[:, keep]).T
        V[:kk] = ritz
        V[kk] = V[m]
        n_locked = kk
        locked_vals = theta[keep]
        locked_links = beta * S[m - 1, keep]
    raise ConvergenceError(
        f"Lanczos did not converge within {max_restarts} restarts; "
        f"residuals {res[:k]}", residuals=res[:k])


def solve_hd_3d(params: ModelParams, n_per_axis: int, extent: float, k: int,
                tol: float = 1e-8) -> EigenResult:
    """Lowest k eigenvalues of the relative-motion operator on the 3D grid.

    ``n_per_axis`` is rounded up to an odd count on X1 and X3; X2 holds
    their positive half (see AxisLayout).  Eigenvalues converge at O(h^2),
    so a run paired with one at half resolution can be extrapolated.

    The X2 > 0 half-space is solved for its lowest (k + 1) // 2 values, each
    counted twice for its X2 < 0 mirror image.  Every sector of SECTORS is
    solved with SECTOR_KRYLOV_DIM Lanczos vectors (more if asked for many
    values); a sector that returns fewer than needed, all below the merged
    last one, is asked again for twice as many.  ``residual_bound`` is the
    largest residual of any sector.  Raises ValueError when g1^2 exceeds
    MAX_G1_SQUARED.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if params.g1_squared > MAX_G1_SQUARED:
        raise ValueError(f"g1^2 must be at most {MAX_G1_SQUARED:g}, got {params.g1_squared:g}")
    layout = AxisLayout.for_resolution(n_per_axis, extent)
    k_half = (k + 1) // 2
    # two values per sector to start measured fastest at k = 6
    wanted = dict.fromkeys(SECTORS, min(k_half, 2))
    solved: dict = {}
    while True:
        for sector in SECTORS:
            if sector in solved and len(solved[sector][0]) >= wanted[sector]:
                continue
            matvec, n = _build_operator(params, layout, sector)
            # a restart keeps up to wanted + 6 Ritz vectors; leave room for new ones
            solved[sector] = lanczos_lowest(
                matvec, n, wanted[sector],
                krylov_dim=max(SECTOR_KRYLOV_DIM, 2 * wanted[sector] + 10),
                max_restarts=SECTOR_MAX_RESTARTS, tol=tol)
        vals = np.concatenate([solved[s][0] for s in SECTORS])
        # near-degenerate pairs may come back equal to rounding; order ties stably
        order = np.argsort(vals, kind="stable")[:k_half]
        kth = vals[order[-1]] if len(order) == k_half else np.inf
        short = [s for s in SECTORS
                 if len(solved[s][0]) < k_half and solved[s][0][-1] < kth]
        if not short:
            break
        wanted.update({s: min(k_half, 2 * wanted[s]) for s in short})
    return EigenResult(eigenvalues=np.repeat(vals[order], 2)[:k], eigenvectors=None,
                       residual_bound=float(max(np.max(solved[s][1]) for s in SECTORS)))
