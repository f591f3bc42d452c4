"""Direct 3D diagonalization of the relative-motion operator on a cubic grid.

This is the route that never uses separability: the full three-dimensional
operator

    -(1/2) (d2/dX1^2 + d2/dX2^2 + d2/dX3^2)
    + (omega^2/2) (X1^2 + X2^2 + X3^2) + g1^2/(6 X2^2)

is discretized with the 7-point stencil.  The X2 axis uses half-offset nodes
(j + 1/2) * h so no node hits the singular plane while mirror symmetry is
kept; the barrier then splits every level into a nearly degenerate even/odd
pair, which is the grid signature of the two half-line sectors.

The grid is solved sector by sector.  The reflections X1 -> -X1, X2 -> -X2
and X3 -> -X3 commute with the stencil and the potential, and so does the
mirror X1 <-> X3, because the two axes share their nodes.  Each reflection
sector is a symmetric operator on a half grid in every axis, about an eighth
of the unknowns; where the X1 and X3 parities agree, the X1 <-> X3 mirror
halves it once more.  The lowest eigenvalues of every sector come from a
matrix-free Lanczos iteration with full reorthogonalization and thick
restarts, and the sectors are merged.  The split is needed for correctness
as well as speed: a single-vector Krylov space holds one vector of each
eigenspace, so exactly degenerate partners such as an X1 <-> X3 image pair
are found only because they fall in different sectors, and the two members
of a barrier pair no longer have to be told apart inside one Krylov space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .model import ModelParams
from .numsolve import ConvergenceError, EigenResult


@dataclass(frozen=True)
class AxisLayout:
    """Per-axis node counts and spacings for a requested resolution."""

    n_sym: int      # X1 and X3: odd count, node-centered including 0
    n_offset: int   # X2: even count, half-offset symmetric nodes
    h_sym: float
    h_offset: float
    extent: float

    @classmethod
    def for_resolution(cls, n_per_axis: int, extent: float) -> "AxisLayout":
        if n_per_axis < 16:
            raise ValueError("n_per_axis must be at least 16")
        if not (extent > 0):
            raise ValueError("extent must be positive")
        n_sym = n_per_axis if n_per_axis % 2 == 1 else n_per_axis + 1
        n_offset = n_per_axis if n_per_axis % 2 == 0 else n_per_axis - 1
        return cls(n_sym=n_sym, n_offset=n_offset,
                   h_sym=2.0 * extent / (n_sym + 1),
                   h_offset=2.0 * extent / (n_offset + 1),
                   extent=extent)

    def nodes_sym(self) -> np.ndarray:
        return -self.extent + self.h_sym * np.arange(1, self.n_sym + 1)

    def nodes_offset(self) -> np.ndarray:
        return (np.arange(1, self.n_offset + 1) - (self.n_offset + 1) / 2.0) * self.h_offset


#: Reflection sectors in the order they are solved: the parities (+1 even,
#: -1 odd) under X1 -> -X1, X2 -> -X2 and X3 -> -X3, then the parity under
#: X1 <-> X3 where the X1 and X3 parities agree (0 where they differ).
SECTORS = tuple((p1, p2, p3, swap)
                for p1, p2, p3 in itertools.product((1, -1), repeat=3)
                for swap in ((1, -1) if p1 == p3 else (0,)))

#: Lanczos basis size of a sector solve.  16-30 measured alike at 41 points
#: per axis; 16 came near the restart cap at 81.
SECTOR_KRYLOV_DIM = 24
#: Thick restarts a sector solve may take before it raises ConvergenceError.
SECTOR_MAX_RESTARTS = 40

_SQRT2 = math.sqrt(2.0)


def _sector_axis(nodes: np.ndarray, h: float, parity: int):
    """One axis of a reflection sector: kept nodes and the axis kinetic matrix.

    The kept nodes are x >= 0 in the orthonormal basis (delta_x +/- delta_-x)
    / sqrt(2), with delta_0 alone for an even function on a node-centered
    axis.  There the x = 0 node couples to x = h by sqrt(2) times the stencil
    weight (even), or is dropped, which leaves a Dirichlet boundary (odd).
    On a half-offset axis the first node's mirror image is its neighbour,
    which adds +/- the stencil weight to the first diagonal entry.
    """
    c = -0.5 / h**2
    half = len(nodes) // 2
    x = nodes[half + 1:] if len(nodes) % 2 and parity < 0 else nodes[half:]
    links = np.full(len(x) - 1, c)
    kinetic = np.diag(np.full(len(x), 1.0 / h**2)) + np.diag(links, 1) + np.diag(links, -1)
    if len(nodes) % 2 == 0:
        kinetic[0, 0] += parity * c
    elif parity > 0:
        kinetic[0, 1] = kinetic[1, 0] = _SQRT2 * c
    return x, kinetic


def _sector_axes(layout: AxisLayout, sector: tuple):
    p1, p2, p3, _ = sector
    return (_sector_axis(layout.nodes_sym(), layout.h_sym, p1),
            _sector_axis(layout.nodes_offset(), layout.h_offset, p2),
            _sector_axis(layout.nodes_sym(), layout.h_sym, p3))


def _swap_basis(n: int, swap: int):
    """Index pairs i >= j (i > j when odd) of the X1 <-> X3 mirror basis and their norms."""
    i, j = np.tril_indices(n, 0 if swap > 0 else -1)
    return i, j, np.where(i == j, 1.0, _SQRT2)[:, None]


def _build_operator(params: ModelParams, layout: AxisLayout,
                    sector: tuple = SECTORS[0]):
    """Matrix-free symmetric operator of one sector of SECTORS, and its size.

    The 7-point stencil is applied axis by axis: each axis's tridiagonal
    kinetic matrix acts along its own axis of the half grid.
    """
    (x1, k1), (x2, k2), (x3, k3) = _sector_axes(layout, sector)
    pot = (0.5 * params.omega**2 * (x1[:, None, None] ** 2 + x2[None, :, None] ** 2
                                    + x3[None, None, :] ** 2)
           + params.g1_squared / (6.0 * x2[None, :, None] ** 2))
    shape = pot.shape

    def stencil(u: np.ndarray) -> np.ndarray:
        u = u.reshape(shape)
        y = pot * u
        y += (k1 @ u.reshape(shape[0], -1)).reshape(shape)
        y += k2 @ u
        y += u @ k3
        return y

    swap = sector[3]
    if not swap:
        return (lambda u: stencil(u).ravel()), pot.size

    basis = _swap_basis(shape[0], swap)
    i, j, norm = basis

    def matvec(u: np.ndarray) -> np.ndarray:
        return (stencil(_unswap(u, shape, swap, basis))[i, :, j] * norm).ravel()

    return matvec, i.size * shape[1]


def _unswap(u: np.ndarray, shape: tuple, swap: int, basis) -> np.ndarray:
    """A vector in the X1 <-> X3 mirror basis, spread over the half grid of ``shape``."""
    i, j, norm = basis
    c = u.reshape(i.size, shape[1]) / norm
    full = np.zeros(shape)
    full[i, :, j] = c
    full[j, :, i] = swap * c
    return full


def _unfold(u: np.ndarray, layout: AxisLayout, sector: tuple) -> np.ndarray:
    """A sector eigenvector as a unit vector on the full grid."""
    shape = tuple(len(x) for x, _ in _sector_axes(layout, sector))
    swap = sector[3]
    if swap:
        u = _unswap(u, shape, swap, _swap_basis(shape[0], swap))
    else:
        u = u.reshape(shape)
    counts = (layout.n_sym, layout.n_offset, layout.n_sym)
    for axis, (n, parity) in enumerate(zip(counts, sector[:3])):
        half = np.moveaxis(u, axis, 0) / _SQRT2
        mirror = parity * half[::-1]
        if n % 2 and parity > 0:
            half[0] *= _SQRT2
            mirror = mirror[:-1]
        elif n % 2:
            mirror = np.concatenate([mirror, np.zeros((1,) + half.shape[1:])])
        u = np.moveaxis(np.concatenate([mirror, half]), 0, axis)
    return u.ravel()


def _start_vector(n: int) -> np.ndarray:
    # The all-equal vector with a tiny deterministic modulation, so that no
    # regular pattern on the grid leaves it orthogonal to an eigenvector.  It
    # does not reach both members of an exactly degenerate pair: the Krylov
    # space holds only the start vector's projection onto each eigenspace,
    # which is why degenerate partners must live in different sectors.
    v = 1.0 + 1e-3 * np.sin(1.0 + np.arange(n, dtype=float))
    return v / np.linalg.norm(v)


def lanczos_lowest(matvec: Callable[[np.ndarray], np.ndarray], n: int, k: int,
                   krylov_dim: int = 90, max_restarts: int = 40,
                   tol: float = 1e-8, want_vectors: bool = False,
                   history: list | None = None):
    """Lowest k eigenpairs by thick-restart Lanczos with full reorthogonalization.

    Deterministic: fixed start vector, fixed restart schedule, fixed
    iteration cap (krylov_dim * max_restarts matrix applications).  Raises
    ConvergenceError with the residuals if the cap is exhausted.  When
    ``history`` is a list, the lowest Ritz value of each restart cycle is
    appended to it; the sequence is non-increasing by the variational
    principle.
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
            vecs = None
            if want_vectors:
                vecs = (V[:m].T @ S[:, order[:k]]).T
            return lam[:k], res[:k], vecs
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
                tol: float = 1e-8, want_vectors: bool = False) -> EigenResult:
    """Lowest k eigenvalues of the relative-motion operator on the 3D grid.

    ``n_per_axis`` is rounded to the nearest admissible per-axis counts
    (odd on the node-centered X1/X3 axes, even on the half-offset X2 axis);
    see AxisLayout.  Eigenvalues converge at O(h^2), so pairing a run with
    one at half resolution and extrapolating is the intended usage for
    quantitative checks.

    Every sector of SECTORS is solved with SECTOR_KRYLOV_DIM Lanczos vectors
    (more if it is asked for many values).  A sector that returns fewer than
    k values, all below the merged k-th value, is asked again for twice as
    many, so the merged k values are the lowest of every sector.  Vectors are
    returned on the full grid, ``residual_bound`` is the largest residual of
    any sector.
    """
    if k < 1:
        raise ValueError("k must be positive")
    layout = AxisLayout.for_resolution(n_per_axis, extent)
    # two values per sector to start measured fastest at k = 6
    wanted = dict.fromkeys(SECTORS, min(k, 2))
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
                max_restarts=SECTOR_MAX_RESTARTS, tol=tol, want_vectors=want_vectors)
        vals = np.concatenate([solved[s][0] for s in SECTORS])
        # near-degenerate pairs may come back equal to rounding; order ties stably
        order = np.argsort(vals, kind="stable")[:k]
        kth = vals[order[-1]] if len(order) == k else np.inf
        short = [s for s in SECTORS
                 if len(solved[s][0]) < k and solved[s][0][-1] < kth]
        if not short:
            break
        for sector in short:
            wanted[sector] = min(k, 2 * wanted[sector])
    vecs = None
    if want_vectors:
        vecs = np.concatenate([[_unfold(v, layout, s) for v in solved[s][2]]
                               for s in SECTORS])[order]
    return EigenResult(eigenvalues=vals[order], eigenvectors=vecs, grid=None,
                       residual_bound=float(max(np.max(solved[s][1]) for s in SECTORS)))
