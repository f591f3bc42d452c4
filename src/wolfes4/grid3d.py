"""Direct 3D diagonalization of the relative-motion operator on a mixed grid.

This is the route that never uses separability.  It starts from the
four-particle Hamiltonian: every grid node (X1, X2, X3) is taken at Xcm = 0
to the particle positions x = J^T (X1, X2, X3, 0), J = coords.jacobi_matrix(),
where the particle potential (omega^2/8) sum_{i<j} (x_i - x_j)^2 is
evaluated.  J is orthogonal, so the kinetic term stays
-(1/2) (d2/dX1^2 + d2/dX2^2 + d2/dX3^2), and c = J @ coords.BARRIER_FORM lies
along X2, so the barrier g1^2 / (x1 + x2 - 2 x3)^2 is g1^2 / (c2 X2)^2;
every solve checks both.  The barrier makes the particles impenetrable:
the half-spaces X2 > 0 and X2 < 0 never couple and are mirror images, so the
grid holds X2 > 0 only, behind a Dirichlet plane at X2 = 0, and every level
counts twice.

Only X2 meets the barrier, so the grid is mixed; it is still a product grid
with the particle potential evaluated at every node.  X2 carries the 3-point
stencil on the nodes j * h, 1 <= j <= n_half, with the barrier diagonal of
the 1D channels (numsolve.inverse_square_diag), which keeps it second order
at every g1^2 (g1^2 = 0 is the impenetrable limit); this is the axis a
Richardson pair of grids refines.  X1 and X3 carry the sinc discrete
variable representation (DVR) of Colbert and Miller (J. Chem. Phys. 96,
1982, 1992; Light and Carrington, Adv. Chem. Phys. 114, 263, 2000) on the
nodes j * h_dvr, |j| <= dvr_nodes(extent): along them the potential is a
smooth oscillator, and the DVR's error falls faster than any power of
h_dvr, so both grids of a pair share one DVR and dvr_change measures what
it leaves.

Every solve returns a GridLevels, with the grid it was solved on.  Only the
first grid of a check starts cold (solve_hd_3d).  Each extra grid re-solves
its levels, by sector and rank, on a grid that differs on one axis set, from
its Ritz vectors: the Richardson partner the fine grid's, carried to its X2
nodes by linear interpolation (_x2_transfer), and returned with it as a
numsolve.RichardsonPair (solve_partner), and dvr_change the partner's,
carried to the coarser DVR by sinc interpolation (_dvr_transfer).  Such a
start holds the levels sought almost alone, and lanczos_lowest blends 1e-6
of its cold start vector in, so that a lower level it has all but lost is
still found.

X1 -> -X1, X3 -> -X3 and X1 <-> X3 generate the dihedral group D4, which
commutes with the operator, so the half-space splits into sectors (SECTORS),
each solved for the levels asked of it (_solve), with a
matrix-free thick-restart Lanczos iteration and selective
reorthogonalization against its kept Ritz vectors; solve_hd_3d lets a level
stop short of converging once it is bounded above the lowest k states.  The
ground level lies in GROUND_SECTOR alone, so the other sectors share out
only the levels above it.  The split is needed for correctness as well as speed: a
single-vector Krylov space holds one vector of each eigenspace, so exactly
degenerate partners are found only in different sectors or by multiplicity.
Every sector has one layout, its (X1, X3) plane states by the X2 nodes: a
dense plane kinetic matrix beside the tridiagonal X2 axis.  The box is
given in oscillator lengths 1/sqrt(omega) and solved in units of omega,
where the operator does not depend on omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .coords import BARRIER_FORM, jacobi_matrix, potential_particle
from .model import ModelParams
from .numsolve import RichardsonPair, inverse_square_diag


class ConvergenceError(RuntimeError):
    """Iterative eigensolve did not reach the requested residual."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


#: Points per axis a check may run on (check_grid), counted as a full X2 axis
#: would hold them: the half-axis keeps n_per_axis // 2.  solve_hd_3d takes
#: any count from 2 to the largest, where the biggest sector at the DVR's largest
#: count is 930 plane states by 60 X2 nodes, 55,800 unknowns, with a 6.9 MB
#: dense plane matrix and an 11 MB Lanczos basis.
MIN_POINTS_PER_AXIS = 16
MAX_POINTS_PER_AXIS = 121
#: Box half-widths every solve takes, in oscillator lengths 1/sqrt(omega): a
#: box below 1 cuts into the ground state's Gaussian, and 100 is past any box
#: the largest grid resolves; the bounds also keep h^2 and 1/h^2 finite.
GRID3D_EXTENT_RANGE = (1.0, 100.0)

#: Largest spacing of the X1 and X3 DVR, in oscillator lengths: 23 nodes over
#: a box of half-width 5.5, 29 over 7.  On [-7, 7] the 1D oscillator's lowest
#: levels are then exact to ~1e-15, and 4 nodes fewer move the 3D levels by
#: ~1e-12.
DVR_SPACING = 0.47
#: Bounds on the DVR nodes per half-axis.  Below, the smallest admitted grid's
#: 8, which leaves every sector unknowns to spare when dvr_change takes 2
#: away.  Above, 30: 61 nodes keep the spacing at most 0.47 up to extent
#: 14.6, and within 0.65 (1D error ~3e-7) up to 20, past the widest box on
#: which the 121-point X2 axis passes; wider boxes do bounded work, and
#: dvr_change reports the coarser DVR.
DVR_HALF_RANGE = (8, 30)


#: Sectors in solve order: parities (+1 even, -1 odd) under X1 -> -X1, X3 -> -X3
#: and X1 <-> X3 (0 where the first two differ), each mapped to the states one
#: level stands for: 2 (X2 mirror), 4 for (1, -1, 0) and its image (-1, 1, 0).
#: (1, -1, 0) goes first, then GROUND_SECTOR: at k = 6 their lowest levels are
#: the 6 states, so solve_hd_3d's bound on the k-th state is finite from the
#: ground sector's solve on, and the levels above it need not converge.
SECTORS = {(1, -1, 0): 4, (1, 1, 1): 2, (1, 1, -1): 2, (-1, -1, 1): 2, (-1, -1, -1): 2}

#: The sector of the ground level.  The half-space operator of the continuum
#: has a simple ground level with a positive eigenfunction (Perron-Frobenius,
#: its heat kernel being positive), which every symmetry of D4 leaves
#: unchanged.  On the grid the DVR's off-diagonals alternate in sign, so the
#: grid operator is not a Z-matrix and Perron-Frobenius does not carry over:
#: the level budget rests on the continuum argument and on the guard of the
#: sector loop (_solve), which raises, once every sector is solved, if
#: another sector returns a level at or below this one's.
GROUND_SECTOR = (1, 1, 1)

#: Lanczos basis size of a sector solve, unless its levels need more room.
#: 16, 20 and 24 took 249, 289 and 295 matvecs for `verify 3d` at 41 points
#: over 5.5, and 308, 313 and 346 at 61 over 7; 16 runs out of restarts at
#: 81 points with g1^2 = 1000, 101 with 500 and 121 with 300, and 20 at 121
#: with 1000, where 24 converges.
SECTOR_KRYLOV_DIM = 24

#: Largest g1^2 every solve takes, below the CLI's range until the X2 window
#: follows the barrier: its diagonal at the first X2 node widens the
#: spectrum.  Grids of 61 to 121 points over 7 (checked in steps of 10)
#: converge and pass at 1000: the level pair that ran out of restarts there
#: lies above the lowest 6 states and needs only bounding.  Coarser grids
#: fail their level checks sooner (41 points over 5.5 from g1^2 = 500), and
#: at 800 a 20-state solve_hd_3d still runs out of restarts on some grids of
#: 30 to 41 points.
MAX_G1_SQUARED = 1000.0

_SQRT2 = math.sqrt(2.0)


def dvr_nodes(extent: float) -> int:
    """Nodes per half-axis m of the X1 and X3 DVR over ``extent``.

    The nodes are j * extent / (m + 1), |j| <= m, at the fewest equal steps
    of at most DVR_SPACING, with m bounded to DVR_HALF_RANGE.
    """
    low, high = DVR_HALF_RANGE
    return min(max(math.ceil(extent / DVR_SPACING) - 1, low), high)


def _kept(m: int, parity: int) -> np.ndarray:
    """The nodes 0 <= a <= m an axis of one parity keeps: a = 0 only if even."""
    return np.arange(0 if parity > 0 else 1, m + 1)


def _parity_fold(f: Callable, b: np.ndarray, a: np.ndarray, parity: int) -> np.ndarray:
    """An axis matrix f(b - a) of the node offsets in the orthonormal basis
    (delta_a + parity delta_-a) / sqrt(2), delta_0 alone, of one parity:
    f(b - a) + parity f(b + a) on the kept rows b and columns a, its x = 0 row
    and column divided by sqrt(2)."""
    folded = f(b[:, None] - a) + parity * f(b[:, None] + a)
    if parity > 0:
        folded[0] /= _SQRT2
        folded[:, 0] /= _SQRT2
    return folded


def _dvr_axis(m: int, h: float, parity: int):
    """One DVR axis of a reflection sector: kept nodes and the axis kinetic matrix.

    Colbert-Miller on the nodes j * h, |j| <= m: T(0) = pi^2 / (6 h^2) and
    T(d) = (-1)^d / (h^2 d^2), folded to the sector's parity (_parity_fold).
    """
    a = _kept(m, parity)

    def colbert_miller(d):
        sq = d * d
        return np.where(sq == 0, math.pi**2 / 6.0,
                        (1 - 2 * (d % 2)) / np.maximum(sq, 1)) / h**2

    return h * a, _parity_fold(colbert_miller, a, a, parity)


def _x2_axis(n_half: int, h: float):
    """The X2 half-axis: the nodes j * h, 1 <= j <= n_half, behind a Dirichlet
    plane at X2 = 0, and the 3-point stencil of -1/2 d2/dX2^2."""
    links = np.full(n_half - 1, -0.5 / h**2)
    kinetic = np.diag(np.full(n_half, 1.0 / h**2)) + np.diag(links, 1) + np.diag(links, -1)
    return h * np.arange(1, n_half + 1), kinetic


def _mirror_map(n1: int, swap: int):
    """The plane states of a mirror sector on an n1 by n1 box, and P.

    A state is the pair i >= j (i > j when ``swap`` is odd) of the box nodes
    (i, j) and (j, i); P maps the states to the box nodes i * n1 + j, with
    orthonormal columns: 1 on the diagonal, 1/sqrt(2) below it and swap /
    sqrt(2) above it.
    """
    i, j = np.tril_indices(n1, 0 if swap > 0 else -1)
    states = np.arange(i.size)
    P = np.zeros((n1, n1, i.size))
    P[i, j, states] = np.where(i == j, 0.5, 1.0 / _SQRT2)
    P[j, i, states] += swap * P[i, j, states]  # a diagonal state's halves add to 1
    return i, j, P.reshape(n1 * n1, i.size)


def _build_operator(g1_squared: float, n_half: int, m: int, extent: float, sector: tuple,
                    jacobi: np.ndarray):
    """Matrix-free symmetric operator of one sector of SECTORS at omega = 1, and its size.

    X2 has the n_half stencil nodes at h = extent / (n_half + 1), X1 and X3
    the DVR of m nodes per half-axis at extent / (m + 1).  The unknowns are
    the sector's (X1, X3) plane states by the X2 nodes, U = u.reshape(n_plane,
    n2), and the operator is pot * U + plane @ U + U @ k2.  A plane state is
    a box node (i, j) alone or, in a mirror sector, the pair i >= j (i > j
    when odd) of (i, j) and (j, i); P (_mirror_map) maps plane states to box
    nodes, and ``plane`` = P^T (k1 (+) k3) P, dense.  ``pot`` is the
    particle potential at each state's nodes, the positions jacobi^T (X1,
    X2, X3, 0), at g1^2 = 0, plus the barrier diagonal along X2 with the
    coupling g1^2 / c2^2, c = jacobi @ BARRIER_FORM.
    """
    p1, p3, swap = sector
    h = extent / (n_half + 1)
    x1, k1 = _dvr_axis(m, extent / (m + 1), p1)
    x3, k3 = (x1, k1) if p3 == p1 else _dvr_axis(m, extent / (m + 1), p3)
    x2, k2 = _x2_axis(n_half, h)
    n1, n3 = len(x1), len(x3)
    # k1 (+) k3 on the box nodes i * n3 + j, written block by block
    plane = np.zeros((n1, n3, n1, n3))
    plane[:, range(n3), :, range(n3)] = k1  # k1 in each block j = j'
    plane[range(n1), :, range(n1), :] += k3  # k3 in each block i = i'
    plane = plane.reshape(n1 * n3, n1 * n3)
    if swap:
        i, j, P = _mirror_map(n1, swap)
        plane = P.T @ plane @ P
    else:
        i, j = np.indices((n1, n3)).reshape(2, -1)
    # the states' nodes as particle positions jacobi^T (X1, X2, X3, 0): Xcm = 0 drops
    # its last row, and adding the X2 term last makes only one sum full size
    x = x1[i, None, None] * jacobi[0] + x3[j, None, None] * jacobi[2] + x2[:, None] * jacobi[1]
    barrier = inverse_square_diag(np.arange(1, n_half + 1),
                                  g1_squared / (jacobi @ BARRIER_FORM)[1] ** 2, 0.5, h)
    pot = potential_particle(x, ModelParams(omega=1.0, g1_squared=0.0)) + barrier
    shape = pot.shape

    def matvec(u: np.ndarray) -> np.ndarray:
        U = u.reshape(shape)
        y = plane @ U
        y += pot * U
        y += U @ k2
        return y.ravel()

    return matvec, pot.size


def _x2_transfer(n_from: int, n_to: int) -> np.ndarray:
    """Linear interpolation from n_from X2 nodes to n_to over the same extent.

    Returns the (n_from, n_to) matrix W: U @ W carries plane states by X2
    nodes j * extent / (n_from + 1) to the nodes i * extent / (n_to + 1),
    with the Dirichlet zeros at X2 = 0 and X2 = extent between them.
    """
    t = np.arange(1, n_to + 1) * ((n_from + 1) / (n_to + 1))  # in source spacings
    below = t.astype(int)
    cols = np.arange(n_to)
    W = np.zeros((n_from + 2, n_to))  # with the two Dirichlet nodes
    W[below, cols] = below + 1 - t
    W[below + 1, cols] += t - below
    return W[1:-1]


def _sinc_transfer(m_from: int, m_to: int, parity: int) -> np.ndarray:
    """Sinc interpolation between two DVR axes of one parity over the same extent.

    A Colbert-Miller basis function is sinc((x - x_a) / h), so values at the
    nodes a * h, |a| <= m_from, h = extent / (m_from + 1), are carried to the
    nodes b * h', |b| <= m_to, by sinc((b h' - a h) / h) = sinc(b' - a), b' =
    b h' / h, folded to the parity as the kinetic matrix is (_parity_fold).
    """
    return _parity_fold(np.sinc, _kept(m_to, parity) * ((m_from + 1) / (m_to + 1)),
                        _kept(m_from, parity), parity)


def _dvr_transfer(u: np.ndarray, sector: tuple, m_from: int, m_to: int) -> np.ndarray:
    """A sector vector, plane states by X2 nodes, carried from the DVR of m_from
    nodes per half-axis to that of m_to over the same extent.

    The plane states are unfolded through the mirror map P (_mirror_map) to
    the box, each of X1 and X3 is sinc-interpolated within its parity
    (_sinc_transfer), and the box is folded back.  DVR coefficients are the
    nodal values times one power of the spacing for the whole vector, which
    the normalization of a start drops.
    """
    p1, p3, swap = sector
    W1 = _sinc_transfer(m_from, m_to, p1)
    W3 = W1 if p3 == p1 else _sinc_transfer(m_from, m_to, p3)
    (n1, n1_from), n3_from = W1.shape, W3.shape[1]
    n2 = u.shape[-1]
    if swap:
        u = _mirror_map(n1_from, swap)[2] @ u
    box = (W1 @ u.reshape(n1_from, n3_from * n2)).reshape(n1, n3_from, n2)
    box = (W3 @ box).reshape(-1, n2)
    return _mirror_map(n1, swap)[2].T @ box if swap else box


def _start_vector(n: int) -> np.ndarray:
    # The all-equal vector with a tiny deterministic modulation, so that no
    # regular pattern on the grid leaves it orthogonal to an eigenvector; it
    # reaches one vector of each eigenspace only (see the module docstring).
    v = 1.0 + 1e-3 * np.sin(1.0 + np.arange(n, dtype=float))
    return v / np.linalg.norm(v)


def lanczos_lowest(matvec: Callable[[np.ndarray], np.ndarray], n: int, k: int,
                   krylov_dim: int = SECTOR_KRYLOV_DIM, max_restarts: int = 40,
                   tol: float = 1e-8, history: list | None = None,
                   bound: Callable[[np.ndarray], float] | None = None,
                   start: np.ndarray | None = None):
    """Lowest k eigenvalues, their residuals and their Ritz vectors (k rows).

    Thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 602,
    2000), deterministic, with at most krylov_dim * max_restarts matrix
    applications; raises ConvergenceError with the residuals beyond them.
    Each step subtracts the three-term part (the previous vector, or the
    locked Ritz vectors on the first step after a restart, and the current
    one) and then reorthogonalizes against the locked Ritz vectors:
    orthogonality is lost toward converged Ritz vectors (Paige), and a
    restart keeps them (selective orthogonalization, Parlett and Scott,
    Math. Comp. 33, 217, 1979).  The first cycle has no Ritz vectors yet, so
    it reorthogonalizes against its whole basis: on a small operator a Ritz
    value converges within that cycle.  A step that closes an invariant
    subspace goes on from a deterministic refill vector, orthogonalized
    against the whole basis, with no link to it in T.  A ``history`` list
    gets the lowest Ritz value of each restart cycle, non-increasing by the
    variational principle.

    Each cycle's lowest k Ritz values are upper bounds on the lowest k
    eigenvalues (Cauchy interlacing), and an eigenvalue lies within each
    one's residual (Parlett, The Symmetric Eigenvalue Problem, ch. 11).  A
    ``bound`` maps them to a value U; the solve then stops once each of the
    k is converged to ``tol`` or bounded, its Ritz value minus its residual
    above U, and returns the bounded ones with their residuals.  Without a
    ``bound`` every one must converge.

    Without a ``start`` the solve starts from _start_vector(n).  A ``start``
    (a vector of the levels sought, carried from another grid) is
    normalized, 1e-6 * _start_vector(n) is added, and the sum normalized:
    a start nearly orthogonal to a lower eigenvector, such as the transfer
    of a higher level alone, otherwise converged in one cycle to the higher
    level, and the stopping rule took it for the lowest.  With the blend
    that lower eigenvector has a component Lanczos amplifies.
    """
    m = min(krylov_dim, n - 1)
    if k > m - 2:
        raise ValueError("k too large for the Krylov dimension")
    keep_extra = min(6, m - 2 - k)
    V = np.zeros((m + 1, n))
    if start is None:
        V[0] = _start_vector(n)
    else:
        v = np.ravel(start) / np.linalg.norm(start) + 1e-6 * _start_vector(n)
        V[0] = v / np.linalg.norm(v)
    n_locked = 0
    locked_vals = np.zeros(0)
    locked_links = np.zeros(0)
    lam = res = None
    for cycle in range(max_restarts):
        T = np.zeros((m, m))
        if n_locked:
            T[:n_locked, :n_locked] = np.diag(locked_vals)
            T[:n_locked, n_locked] = locked_links
            T[n_locked, :n_locked] = locked_links
        beta = 0.0
        for j in range(n_locked, m):
            w = matvec(V[j])
            alpha = T[j, j] = float(w @ V[j])
            if j == n_locked:
                w -= locked_links @ V[:n_locked]
            else:
                w -= beta * V[j - 1]
            w -= alpha * V[j]
            L = V[:j + 1] if cycle == 0 else V[:n_locked]
            w -= (L @ w) @ L
            beta = math.sqrt(w @ w)
            if beta < 1e-12:
                # Krylov space exhausted an invariant subspace; deterministic refill
                w = np.cos(0.7 * np.arange(n, dtype=float) + j)
                w -= (V[:j + 1] @ w) @ V[:j + 1]
                V[j + 1] = w / np.linalg.norm(w)
                beta = 0.0
            else:
                np.divide(w, beta, out=V[j + 1])
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
        lam, S = np.linalg.eigh(T)  # ascending
        res = np.abs(beta * S[m - 1])
        if history is not None:
            history.append(float(lam[0]))
        done = res[:k] <= tol * np.maximum(1.0, np.abs(lam[:k]))
        if bound is not None:
            done |= lam[:k] - res[:k] > bound(lam[:k])
        if np.all(done):
            return lam[:k], res[:k], S[:, :k].T @ V[:m]
        kk = k + keep_extra
        V[:kk] = S[:, :kk].T @ V[:m]
        V[kk] = V[m]
        n_locked = kk
        locked_vals = lam[:kk]
        locked_links = beta * S[m - 1, :kk]
    raise ConvergenceError(
        f"Lanczos did not converge within {max_restarts} restarts; residuals "
        + ", ".join(f"{r:.2e}" for r in res[:k]), residuals=res[:k])


@dataclass(frozen=True)
class GridLevels:
    """Levels of one 3D grid, each once, with the sector it lies in.

    The grid is solve_hd_3d's at ``params``, ``n_per_axis`` points and
    ``extent``, with ``dvr_nodes`` DVR nodes per half-axis.  ``levels`` and
    their Lanczos ``residuals`` are in units of omega, where the grid is
    solved; ``vectors`` holds each level's Ritz vector in its sector's
    layout, plane states by X2 nodes, unit norm.  solve_hd_3d returns the
    levels ascending, a re-solve (solve_partner, dvr_change) in the order of
    the levels it re-solves.
    """

    params: ModelParams
    n_per_axis: int
    extent: float
    dvr_nodes: int
    levels: np.ndarray
    residuals: np.ndarray
    sectors: list[tuple[int, int, int]]
    vectors: list[np.ndarray]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.params.omega * self.levels

    @property
    def residual_bound(self) -> float:
        """The largest Lanczos residual of the levels, times omega."""
        return self.params.omega * float(np.max(self.residuals))

    @property
    def multiplicities(self) -> np.ndarray:
        """The states each level stands for, its sector's count in SECTORS."""
        return np.array([SECTORS[s] for s in self.sectors])


def grid_intervals(n_per_axis: int) -> int:
    """Spacings from X2 = 0 to the box edge: h = extent / grid_intervals."""
    return n_per_axis // 2 + 1


def _kth_energy(k: int, earlier: np.ndarray, mult: int, ritz: np.ndarray) -> float:
    """The k-th lowest of the state energies ``earlier`` and the Ritz values
    ``ritz``, each of these counted ``mult`` times; inf when there are fewer
    than k."""
    energies = np.sort(np.concatenate([earlier, np.repeat(ritz, mult)]))
    return float(energies[k - 1]) if energies.size >= k else math.inf


def _check_solve(params: ModelParams, n_per_axis: int, extent: float) -> None:
    """Raise ValueError unless a solve of this grid does bounded work on the operator
    derived above: J = coords.jacobi_matrix() orthogonal to 1e-14 (a -1/2 Laplacian)
    and c = J @ coords.BARRIER_FORM along X2 to 1e-14 (a barrier in X2 alone)."""
    if n_per_axis < 2:  # no X2 node
        raise ValueError(f"the 3D grid's points per axis must be at least 2, got {n_per_axis}")
    if n_per_axis > MAX_POINTS_PER_AXIS:
        raise ValueError(f"the 3D grid's points per axis must be at most "
                         f"{MAX_POINTS_PER_AXIS}, got {n_per_axis}")
    low, high = GRID3D_EXTENT_RANGE
    if not low <= extent <= high:
        raise ValueError(f"the 3D grid's box half-width must lie in [{low:g}, {high:g}] "
                         f"oscillator lengths, got {extent:g}")
    if params.g1_squared > MAX_G1_SQUARED:
        raise ValueError(f"the 3D grid's g1^2 must be at most {MAX_G1_SQUARED:g}, "
                         f"got {params.g1_squared:g}")
    J = jacobi_matrix()
    if np.max(np.abs(J.T @ J - np.eye(4))) > 1e-14:
        raise ValueError("the Jacobi map J is not orthogonal: J^T J differs from I "
                         "by more than 1e-14")
    c = J @ BARRIER_FORM
    if np.max(np.abs(c[[0, 2, 3]])) > 1e-14 * abs(c[1]):
        raise ValueError(f"the barrier plane x1 + x2 - 2*x3 = 0 is not X2 = 0: "
                         f"J @ BARRIER_FORM = {c}")


def check_grid(params: ModelParams, n_per_axis: int, extent: float) -> None:
    """Raise ValueError unless a check may run on this grid: at least MIN_POINTS_PER_AXIS
    points, a partner (solve_partner) of 4 X2 nodes, and _check_solve's bounds."""
    if n_per_axis < MIN_POINTS_PER_AXIS:
        raise ValueError(f"the 3D grid's points per axis must be at least "
                         f"{MIN_POINTS_PER_AXIS}, got {n_per_axis}")
    _check_solve(params, n_per_axis, extent)


def _solve(params: ModelParams, n_per_axis: int, m: int, extent: float, counts: dict,
           states: int | None = None, starts: dict | None = None) -> GridLevels:
    """The lowest ``counts[sector]`` levels of each sector of SECTORS on the 3D grid.

    The grid is solve_hd_3d's at n_per_axis points over ``extent``, with m
    DVR nodes per half-axis.  The levels come back sector by sector in
    SECTORS order, ascending within each, for every sector with a positive
    count; the others are not solved.  A sector in ``starts`` starts its
    Lanczos solve from the vector given there, on this grid; the others
    start cold.  In units of omega the operator is the one at omega = 1,
    H(omega; h / sqrt(omega)) = omega H(1; h), so the absolute thresholds of
    lanczos_lowest mean the same at every omega.

    Without ``states`` every level asked for converges.  With it, a sector's
    solve stops once each level asked of it is converged or bounded
    (lanczos_lowest): its Ritz value theta minus its residual r lies above
    U, the states-th lowest state energy over the levels of the sectors
    solved before it and its own current Ritz values, each counted by its
    sector's multiplicity.  Every one of those values is an upper bound on
    a distinct eigenstate: a Ritz value bounds the eigenvalue of its rank in
    its sector from above (Cauchy interlacing), an earlier sector's levels
    are its last Ritz values, and the sectors are orthogonal.  So at least
    ``states`` states lie at or below U, and E_k <= U for k = ``states``.
    A bounded level's eigenvalue lies within r of theta, lambda >= theta - r
    > U >= E_k, so it is none of the lowest k states.  That rests on the
    assumption the stopping rule already makes for converged levels:
    Lanczos misses no lower eigenvalue, so the i-th Ritz value is the
    sector's i-th eigenvalue.  The sectors solved later only add values,
    which lowers the k-th state energy, so the fewest lowest levels that
    cover k states (solve_hd_3d) hold converged levels only.

    Raises ConvergenceError when a sector does not converge, or when one
    returns a level at or below GROUND_SECTOR's, which Perron-Frobenius rules
    out in the continuum.  It checks no input: the grid is solve_hd_3d's, which
    checked it (_check_solve), or a re-solve of one.
    """
    J = jacobi_matrix()
    solved = {}
    earlier = np.zeros(0)  # the state energies of the sectors solved so far
    n_half = n_per_axis // 2
    for sector, mult in SECTORS.items():
        wanted = counts.get(sector, 0)
        if wanted < 1:
            continue
        matvec, n = _build_operator(params.g1_squared, n_half, m, extent, sector, J)
        # a restart keeps up to wanted + 6 Ritz vectors; leave room for new ones
        vals, res, vectors = lanczos_lowest(
            matvec, n, wanted, krylov_dim=max(SECTOR_KRYLOV_DIM, 2 * wanted + 10),
            bound=None if states is None else partial(_kth_energy, states, earlier, mult),
            start=(starts or {}).get(sector))
        solved[sector] = vals, res, vectors.reshape(wanted, -1, n_half)
        earlier = np.concatenate([earlier, np.repeat(vals, mult)])
    if GROUND_SECTOR in solved:
        ground = solved[GROUND_SECTOR][0][0]
        for sector, (vals, res, _) in solved.items():
            if sector != GROUND_SECTOR and vals[0] <= ground:
                raise ConvergenceError(
                    f"sector {sector} has a level {float(vals[0])} at or below the ground "
                    f"level {float(ground)}, which Perron-Frobenius rules out", residuals=res)
    return GridLevels(params, n_per_axis, extent, m,
                      levels=np.concatenate([vals for vals, _, _ in solved.values()]),
                      residuals=np.concatenate([res for _, res, _ in solved.values()]),
                      sectors=[sector for sector, (vals, _, _) in solved.items() for _ in vals],
                      vectors=[u for _, _, us in solved.values() for u in us])


def _pick(solved: GridLevels, order) -> GridLevels:
    """The levels ``order`` of ``solved``, in that order."""
    return replace(solved, levels=solved.levels[order], residuals=solved.residuals[order],
                   sectors=[solved.sectors[i] for i in order],
                   vectors=[solved.vectors[i] for i in order])


def solve_hd_3d(params: ModelParams, n_per_axis: int, extent: float, k: int) -> GridLevels:
    """Lowest levels of the relative-motion operator on the 3D grid, each once.

    ``extent`` is the box half-width in oscillator lengths 1/sqrt(omega).  X2
    carries the n_half = n_per_axis // 2 nodes j * h, 1 <= j <= n_half, h =
    extent / grid_intervals(n_per_axis); X1 and X3 the 2 m + 1 DVR nodes,
    m = dvr_nodes(extent), whatever n_per_axis is.  Eigenvalues converge at
    O(h^2) on X2, so solve_partner pairs the result with half the points
    over the same extent, for extrapolation.

    The ground level is simple in the half-space and lies in GROUND_SECTOR
    (see there), so that sector is solved for ceil(k / 2) levels and every
    other sector of SECTORS, m its multiplicity, for ceil((k - 2) / m), its
    part of the k - 2 states above the ground level; a sector with none
    (k <= 2) is not solved.  A level need not converge when it is bounded
    above the k-th state (see _solve).  The fewest merged levels whose
    multiplicities cover the lowest k states are returned, ascending, all
    converged.  Raises as _solve does, and ValueError when k < 1 or the grid
    fails _check_solve, before any operator is built.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _check_solve(params, n_per_axis, extent)
    above_ground = k - SECTORS[GROUND_SECTOR]
    counts = {sector: -(-k // m) if sector == GROUND_SECTOR else -(-above_ground // m)
              for sector, m in SECTORS.items()}
    solved = _solve(params, n_per_axis, dvr_nodes(extent), extent, counts, k)
    # near-degenerate pairs may come back equal to rounding; order ties stably
    order = np.argsort(solved.levels, kind="stable")
    return _pick(solved, order[:np.searchsorted(
        np.cumsum(solved.multiplicities[order]), k) + 1])


def _resolve(solved: GridLevels, n_per_axis: int, m: int,
             transfer: Callable[[tuple, np.ndarray], np.ndarray]) -> GridLevels:
    """The levels of ``solved``, each converged, on n_per_axis points and m DVR
    nodes per half-axis over the same extent.  Each sector starts from the sum
    of its Ritz vectors in ``solved``, carried by ``transfer(sector, vector)``.
    Level i is the one of the sector and rank of level i of ``solved``, which
    holds a pair to one state when levels of other sectors cross it."""
    starts: dict = {}
    for sector, vector in zip(solved.sectors, solved.vectors):
        starts[sector] = starts.get(sector, 0.0) + vector
    fresh = _solve(solved.params, n_per_axis, m, solved.extent,
                   {sector: solved.sectors.count(sector) for sector in starts},
                   starts={sector: transfer(sector, u) for sector, u in starts.items()})
    # fresh holds each sector's levels together, by rank
    return _pick(fresh, [fresh.sectors.index(s) + solved.sectors[:i].count(s)
                         for i, s in enumerate(solved.sectors)])


def solve_partner(fine: GridLevels) -> RichardsonPair:
    """The Richardson pair of ``fine``: its levels on fine.n_per_axis // 2 points
    over the same extent and DVR, from its vectors carried to those X2 nodes
    (_x2_transfer), at the ratio of the two X2 spacings.  The grids differ on X2
    only, so level i of both is a pair.  Raises as _solve does."""
    n = fine.n_per_axis // 2
    coarse = _resolve(fine, n, fine.dvr_nodes,
                      lambda sector, u: u @ _x2_transfer(u.shape[1], n // 2))
    return RichardsonPair(coarse, fine, grid_intervals(fine.n_per_axis) / grid_intervals(n))


def dvr_change(solved: GridLevels) -> float:
    """How far the levels of ``solved`` move with 4 DVR nodes fewer, in units of omega.

    They are solved again with 2 DVR nodes fewer per half-axis, from their
    vectors carried by sinc interpolation (_dvr_transfer).  The DVR converges
    faster than any power of its spacing, so this bounds the X1 and X3 error
    of ``solved``, which the Richardson pair of X2 grids does not cancel.
    Raises as _solve does.
    """
    m = solved.dvr_nodes
    fewer = _resolve(solved, solved.n_per_axis, m - 2,
                     lambda sector, u: _dvr_transfer(u, sector, m, m - 2))
    return float(np.max(np.abs(fewer.levels - solved.levels)))
