"""Finite-difference eigensolvers for the five 1D operator channels.

Every channel is a Dirichlet problem on a uniform grid with the standard
3-point stencil.  Inverse-square terms (the barrier, the centrifugal term,
the 1/sin^2 angular terms) all go through ``inverse_square_diag``.  Naive
sampling near a pole selects the wrong boundary behavior at the critical
coupling and degrades the convergence order for weak couplings, so up to
the endpoint behavior x^3 of the eigenfunctions the diagonal uses
exact-local-power coefficients that annihilate x^b; stronger couplings are
sampled.  This keeps all channels uniformly second order, which is what
makes Richardson extrapolation valid everywhere.

Eigenvalues come from Sturm-sequence bisection and eigenvectors from inverse
iteration (LAPACK stebz/stein via scipy); both are deterministic for a fixed
matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import ModelParams


class GridDomainError(ValueError):
    """Grid domain does not match the requirements of the requested channel."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolve did not reach the requested residual."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid; the endpoint values are implicit Dirichlet zeros."""

    lower: float
    upper: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.upper > self.lower):
            raise ValueError("upper must exceed lower")
        if self.n_points < 3:
            raise ValueError("need at least 3 interior nodes")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n_points + 1)

    def nodes(self) -> np.ndarray:
        return self.lower + self.spacing * np.arange(1, self.n_points + 1)

    def refined(self) -> "Grid1D":
        """Same domain with the spacing exactly halved."""
        return Grid1D(self.lower, self.upper, 2 * self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalMatrix:
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one entry shorter than diag")

    @property
    def dimension(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.diag * v
        y[1:] += self.offdiag * v[:-1]
        y[:-1] += self.offdiag * v[1:]
        return y


@dataclass
class EigenResult:
    """Ascending eigenvalues plus optional eigenvectors (rows).

    Vectors from ``solve_channel`` are trapezoid-normalized on its grid
    (sum v_i^2 * spacing = 1); those from ``eigen_tridiag`` carry unit
    Euclidean norm.  ``residual_bound`` bounds ||T v - lambda v|| for every
    returned pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")


class ChannelKind(enum.Enum):
    HO = "ho"
    SHO = "sho"
    RADIAL = "radial"
    ANGULAR_PHI = "angular_phi"
    ANGULAR_THETA = "angular_theta"


@dataclass(frozen=True)
class ChannelSpec:
    """Which 1D operator to solve, plus its coupling where one is needed.

    ``coefficient`` means k^2 for RADIAL, f^2 for ANGULAR_THETA and the
    1/sin^2 strength (g1^2/3) for ANGULAR_PHI; HO and SHO ignore it and read
    ModelParams instead.
    """

    kind: ChannelKind
    coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.coefficient < 0:
            raise ValueError("coefficient must be nonnegative")


def discretize(potential: Callable[[np.ndarray], np.ndarray], grid: Grid1D,
               kinetic_prefactor: float = 0.5) -> TridiagonalMatrix:
    """3-point stencil for -kinetic_prefactor * d^2/dx^2 + V(x) with Dirichlet ends.

    With the default prefactor 1/2 the stencil is diag = 1/h^2 + V(x_i),
    offdiag = -1/(2h^2).
    """
    h = grid.spacing
    x = grid.nodes()
    v = np.asarray(potential(x), dtype=float)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape).astype(float)
    if not np.all(np.isfinite(v)):
        bad = x[~np.isfinite(v)][0]
        raise ValueError(f"potential is not finite at grid node x = {bad}")
    diag = 2.0 * kinetic_prefactor / h**2 + v
    offdiag = np.full(grid.n_points - 1, -kinetic_prefactor / h**2)
    return TridiagonalMatrix(diag=diag, offdiag=offdiag)


def eigen_tridiag(T: TridiagonalMatrix, k: int, want_vectors: bool = False) -> EigenResult:
    """k smallest eigenpairs of a symmetric tridiagonal matrix.

    Backed by LAPACK: Sturm-sequence bisection (stebz) for the eigenvalues
    and inverse iteration (stein, capped at 5 sweeps internally) for the
    eigenvectors; deterministic for fixed input.
    """
    n = T.dimension
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    scale = float(np.max(np.abs(T.diag)) + 2.0 * (np.max(np.abs(T.offdiag)) if n > 1 else 0.0))
    if want_vectors:
        vals, vecs = eigh_tridiagonal(T.diag, T.offdiag, select="i",
                                      select_range=(0, k - 1))
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order].T
        resid = max(float(np.linalg.norm(T.matvec(v) - lam * v))
                    for lam, v in zip(vals, vecs))
        return EigenResult(eigenvalues=vals, eigenvectors=vecs, residual_bound=resid)
    vals = eigh_tridiagonal(T.diag, T.offdiag, eigvals_only=True, select="i",
                            select_range=(0, k - 1), lapack_driver="stebz")
    return EigenResult(eigenvalues=np.sort(vals), eigenvectors=None,
                       residual_bound=np.finfo(float).eps * scale)


def _power_step(j: np.ndarray, b: float) -> np.ndarray:
    """((j+1)^b - 2 j^b + (j-1)^b) / j^b, series-evaluated for large j.

    This is the discrete counterpart of b*(b-1)/j^2: the diagonal built from
    it annihilates the sampled power x^b exactly, which plain sampling of the
    inverse-square potential fails to do near a singular endpoint.
    """
    j = np.asarray(j, dtype=float)
    out = np.empty_like(j)
    near = j < 50
    jn = j[near]
    out[near] = ((jn + 1.0) ** b - 2.0 * jn**b + (jn - 1.0) ** b) / jn**b
    jf = j[~near]
    x2 = 1.0 / jf**2
    # two-term asymptotic series; avoids cancellation for large j
    out[~near] = b * (b - 1.0) * x2 * (
        1.0
        + (b - 2.0) * (b - 3.0) / 12.0 * x2
        + (b - 2.0) * (b - 3.0) * (b - 4.0) * (b - 5.0) / 360.0 * x2**2
    )
    return out


def inverse_square_diag(j: np.ndarray, coupling: float, kinetic_prefactor: float,
                        h: float) -> np.ndarray:
    """Diagonal of coupling/x^2 at x = j*h in -kappa u'' + coupling/x^2 u.

    With b(b-1) = coupling/kappa: the exact-local-power diagonal up to b = 3,
    the sampled coupling/x^2 above, where the power step's excess over it,
    b(b-1)(b-2)(b-3)/(12 j^4), grows as b^4.  At b = 3 the two are equal.
    """
    if coupling > 6.0 * kinetic_prefactor:
        return coupling / (j * h) ** 2
    b = 0.5 + math.sqrt(0.25 + coupling / kinetic_prefactor)
    return kinetic_prefactor / h**2 * _power_step(j, b)


def _singular_tridiag(grid: Grid1D, smooth: Callable[[np.ndarray], np.ndarray],
                      c_left: float, c_right: float,
                      kinetic_prefactor: float) -> TridiagonalMatrix:
    """Stencil for -kappa u'' + smooth(x) + c_left/x_rel^2 (+ c_right at the far end)."""
    T = discretize(smooth, grid, kinetic_prefactor)
    diag = T.diag.copy()
    j = np.arange(1, grid.n_points + 1)
    h = grid.spacing
    if c_left != 0.0:
        diag += inverse_square_diag(j, c_left, kinetic_prefactor, h)
    if c_right != 0.0:
        diag += inverse_square_diag(grid.n_points + 1 - j, c_right, kinetic_prefactor, h)
    return TridiagonalMatrix(diag=diag, offdiag=T.offdiag)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GridDomainError(message)


_DOMAIN_RTOL = 1e-9


def channel_tridiag(spec: ChannelSpec, params: ModelParams, grid: Grid1D) -> TridiagonalMatrix:
    """Assemble the discrete operator for one channel on the given grid."""
    span = grid.upper - grid.lower
    kind = spec.kind
    if kind is ChannelKind.HO:
        _require(abs(grid.upper + grid.lower) <= _DOMAIN_RTOL * span,
                 "HO channel needs a symmetric domain (-L, L)")
        w2 = params.omega**2
        return discretize(lambda x: 0.5 * w2 * x**2, grid, 0.5)
    if kind is ChannelKind.SHO:
        _require(abs(grid.lower) <= _DOMAIN_RTOL * span and grid.upper > 0,
                 "SHO channel needs the half-line domain (0, L)")
        w2 = params.omega**2
        return _singular_tridiag(grid, lambda x: 0.5 * w2 * x**2,
                                 c_left=params.g1_squared / 6.0, c_right=0.0,
                                 kinetic_prefactor=0.5)
    if kind is ChannelKind.RADIAL:
        _require(abs(grid.lower) <= _DOMAIN_RTOL * span and grid.upper > 0,
                 "radial channel needs the half-line domain (0, L)")
        w2 = params.omega**2
        return _singular_tridiag(grid, lambda r: 0.5 * w2 * r**2,
                                 c_left=0.5 * spec.coefficient, c_right=0.0,
                                 kinetic_prefactor=0.5)
    if kind is ChannelKind.ANGULAR_PHI:
        _require(abs(grid.lower) <= _DOMAIN_RTOL * span
                 and abs(grid.upper - math.pi) <= _DOMAIN_RTOL * span,
                 "azimuthal channel needs the domain (0, pi)")
        c = spec.coefficient
        if c == 0.0:
            return discretize(lambda x: np.zeros_like(x), grid, 1.0)
        return _singular_tridiag(grid, _sin_sq_remainder(c), c, c, 1.0)
    if kind is ChannelKind.ANGULAR_THETA:
        _require(abs(grid.lower) <= _DOMAIN_RTOL * span
                 and abs(grid.upper - math.pi) <= _DOMAIN_RTOL * span,
                 "polar channel needs the domain (0, pi)")
        # symmetrized form w = sqrt(sin(theta)) * Theta:
        #   -w'' + (f^2 - 1/4)/sin^2 * w = (k^2 + 1/4) w
        c = spec.coefficient - 0.25
        return _singular_tridiag(grid, _sin_sq_remainder(c), c, c, 1.0)
    raise GridDomainError(f"unknown channel kind {kind!r}")


def _sin_sq_remainder(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """c/sin^2(x) with both inverse-square poles removed; smooth on [0, pi]."""

    def smooth(x: np.ndarray) -> np.ndarray:
        return c * (1.0 / np.sin(x) ** 2 - 1.0 / x**2 - 1.0 / (math.pi - x) ** 2)

    return smooth


def solve_channel(spec: ChannelSpec, params: ModelParams, grid: Grid1D, k: int,
                  want_vectors: bool = False) -> EigenResult:
    """Lowest k eigenvalues of the requested channel operator.

    Returned values are the physical ones: energies for HO/SHO/RADIAL, the
    1/sin^2 eigenvalues f^2 for ANGULAR_PHI, and the separation constants
    k^2 (symmetric-operator eigenvalues minus 1/4) for ANGULAR_THETA, whose
    vectors are those of the symmetrized substitution w = sqrt(sin)*Theta.
    """
    T = channel_tridiag(spec, params, grid)
    res = eigen_tridiag(T, k, want_vectors=want_vectors)
    vals = res.eigenvalues
    if spec.kind is ChannelKind.ANGULAR_THETA:
        vals = vals - 0.25
    vecs = res.eigenvectors
    if vecs is not None:
        vecs = vecs / math.sqrt(grid.spacing)  # trapezoid normalization
    return EigenResult(eigenvalues=vals, eigenvectors=vecs,
                       residual_bound=res.residual_bound)


#: Half-width of the HO box in units of 1/sqrt(omega); truncation error < 1e-12.
HO_EXTENT = 12.0
#: Extra margin for the half-line channels, whose states reach farther out.
HALF_LINE_MARGIN = 2.0


def recommended_grid(kind: ChannelKind, params: ModelParams, n_points: int) -> Grid1D:
    """Default solve domain for a channel, scaled with 1/sqrt(omega).

    Scaling the box with 1/sqrt(omega) makes the discrete operators at
    different omega exact multiples of each other, so the scaling law holds
    on the grid and not just in the limit.
    """
    scale = 1.0 / math.sqrt(params.omega)
    if kind is ChannelKind.HO:
        return Grid1D(-HO_EXTENT * scale, HO_EXTENT * scale, n_points)
    if kind in (ChannelKind.SHO, ChannelKind.RADIAL):
        return Grid1D(0.0, (HO_EXTENT + HALF_LINE_MARGIN) * scale, n_points)
    return Grid1D(0.0, math.pi, n_points)


def richardson(e_h: float | np.ndarray, e_half: float | np.ndarray):
    """Cancel the leading O(h^2) error from values at spacings h and h/2."""
    return (4.0 * e_half - e_h) / 3.0


def solve_channel_extrapolated(spec: ChannelSpec, params: ModelParams, n_points: int,
                               k: int) -> np.ndarray:
    """Eigenvalues at the recommended domain, Richardson-extrapolated (h and h/2)."""
    coarse = recommended_grid(spec.kind, params, n_points)
    e_h = solve_channel(spec, params, coarse, k).eigenvalues
    e_half = solve_channel(spec, params, coarse.refined(), k).eigenvalues
    return richardson(e_h, e_half)


def expectation(v: np.ndarray, observable: Callable[[np.ndarray], np.ndarray],
                grid: Grid1D) -> float:
    """Grid expectation sum_i v_i^2 * obs(x_i) * spacing for a trapezoid-normalized v."""
    obs = np.asarray(observable(grid.nodes()), dtype=float)
    if not np.all(np.isfinite(obs)):
        bad = grid.nodes()[~np.isfinite(obs)][0]
        raise ValueError(f"observable is not finite at grid node x = {bad}")
    return float(np.sum(v * v * obs) * grid.spacing)
