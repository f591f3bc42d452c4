"""Finite-difference eigensolvers for the five 1D operator channels.

Every channel is a Dirichlet problem on a uniform grid with the standard
3-point stencil, at omega = 1 as in ``grid3d``: the oscillator kinds are solved
in oscillator lengths, and ``solve_channel`` multiplies their levels by omega.
A channel's kind fixes its spacing (``recommended_grid``:
n_points nodes on (-L, L) for HO, (0, L) for SHO and RADIAL, (0, pi) for
the angular kinds), so ``solve_channel`` takes a point count and returns the
grid with its result; ``n_points`` and ``2 * n_points + 1`` give the same
domain at half the spacing.  Every sequence of grids of one channel comes
from one ladder (``solve_grids``), and the levels fix its box: the coarsest
grid of an oscillator kind is solved on the default box, on a longer one at
the same spacing where that is too short, and the finer grids only out to
where its highest level has decayed.  Every Richardson pair comes from
``solve_channel_extrapolated``, which returns both solves of a ladder, each
with its grid, and their extrapolant (``RichardsonPair``, as
``grid3d.solve_partner`` does for 3D).  A given point count fixes the pair;
with none, the pair is sized to the tolerance of the check that asks for it:
a pilot of three coarse grids estimates each level's h^4 error term, which
predicts the error of every pair of ``RUNGS``, and the coarsest pair
predicted to meet the tolerance, at most the (``CHANNEL_POINTS``, 2
``CHANNEL_POINTS`` + 1) pair, is solved (``_sized_pair``; the
grid-convergence practice of Roache, J. Fluids Eng. 116, 405, 1994).

Inverse-square terms (the barrier, the centrifugal term, the 1/sin^2
angular terms) all go through ``inverse_square_diag``.  Naive sampling near
a pole selects the wrong boundary behavior at the critical coupling and
degrades the convergence order for weak couplings, so up to the endpoint
behavior x^3 of the eigenfunctions the diagonal uses exact-local-power
coefficients that annihilate x^b; stronger couplings are sampled.  This
keeps all channels uniformly second order, which is what makes Richardson
extrapolation valid everywhere.

Eigenvalues come from Sturm-sequence bisection and eigenvectors from inverse
iteration (LAPACK stebz/stein via scipy); both are deterministic for a fixed
matrix.  scipy is imported on the first tridiagonal solve, so the 3D route and
``spectrum``, which make none, never load it.

Three kinds are mirror-symmetric: HO about 0 and both angular kinds about
pi/2 (``MIRROR_KINDS``).  Their matrix, assembled as for every kind, splits
exactly into an even and an odd block of about half the rows each, built
from its left half (Cantoni and Butler 1976).  By the discrete Sturm
oscillation theorem the j-th eigenvector of a tridiagonal matrix with
nonzero off-diagonal changes sign j times, so its parity is (-1)^j: the
lowest k levels are the ceil(k/2) lowest even ones interleaved with the
floor(k/2) lowest odd ones.  Bisection costs about (k + 1/2) x n, so the two
blocks cost half the full matrix.  Vectors are unfolded onto the full grid
and their residual is measured on the full matrix.  SHO and RADIAL have no
mirror and solve the full matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import ModelParams


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
            raise ValueError(f"need at least 3 interior nodes, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n_points + 1)

    def nodes(self) -> np.ndarray:
        return self.lower + self.spacing * np.arange(1, self.n_points + 1)


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

    Vectors from ``solve_channel`` are trapezoid-normalized (sum v_i^2 *
    spacing = 1) on ``grid``, in oscillator lengths for the oscillator kinds;
    those from ``eigen_tridiag`` carry unit norm.  ``residual_bound`` is the
    eigenpairs' largest ||T v - lambda v||, None without vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float | None
    grid: Grid1D | None = None

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")


class ChannelKind(enum.Enum):
    HO = "ho"
    SHO = "sho"
    RADIAL = "radial"
    ANGULAR_PHI = "angular_phi"
    ANGULAR_THETA = "angular_theta"


#: Kinds whose operator is symmetric under reflection about the domain's
#: middle: x -> -x for HO, x -> pi - x for the angular kinds.
MIRROR_KINDS = frozenset({ChannelKind.HO, ChannelKind.ANGULAR_PHI, ChannelKind.ANGULAR_THETA})


@dataclass(frozen=True)
class ChannelSpec:
    """Which 1D operator to solve, plus its coupling where one is needed.

    ``coefficient`` means k^2 for RADIAL, f^2 for ANGULAR_THETA and the
    1/sin^2 strength (g1^2/3) for ANGULAR_PHI; HO and SHO ignore it, and SHO
    reads g1^2 from ModelParams, whose omega scales every oscillator level.
    """

    kind: ChannelKind
    coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.coefficient < 0:
            raise ValueError("coefficient must be nonnegative")


def eigen_tridiag(T: TridiagonalMatrix, k: int, want_vectors: bool = False) -> EigenResult:
    """k smallest eigenpairs of a symmetric tridiagonal matrix, ascending.

    Backed by LAPACK: Sturm-sequence bisection (stebz) for the eigenvalues
    and inverse iteration (stein, capped at 5 sweeps internally) for the
    eigenvectors; deterministic for fixed input.  stebz bisects each
    eigenvalue to an absolute accuracy of about eps * max|T|, so its last
    bits depend on k: asking the same matrix for fewer levels moved a
    polar-channel level at 4003 points by up to 9.2e-9 for g1^2 <= 7.5 and
    2.2e-8 at g1^2 = 100, each under eps * max|T|.

    ``solve_channel`` sends the SHO and RADIAL matrices here whole and each
    mirror kind's matrix as its even and odd blocks (``_solve_mirror``).
    scipy is imported here, on the first call, so that importing this module
    (as ``grid3d`` does) loads no scipy.
    """
    from scipy.linalg import eigh_tridiagonal

    n = T.dimension
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    out = eigh_tridiagonal(T.diag, T.offdiag, eigvals_only=not want_vectors, select="i",
                           select_range=(0, k - 1), lapack_driver="stebz")
    if not want_vectors:
        return EigenResult(eigenvalues=out, eigenvectors=None, residual_bound=None)
    vals, vecs = out
    vecs = vecs.T  # one eigenvector per row
    return EigenResult(eigenvalues=vals, eigenvectors=vecs,
                       residual_bound=_residual(T, vals, vecs))


def _residual(T: TridiagonalMatrix, vals: np.ndarray, vecs: np.ndarray) -> float:
    """Largest ||T v - lambda v|| over the pairs (one eigenvector per row)."""
    return max(float(np.linalg.norm(T.matvec(v) - lam * v)) for lam, v in zip(vals, vecs))


def _mirror_block(T: TridiagonalMatrix, sign: float) -> TridiagonalMatrix:
    """The even (sign +1) or odd (sign -1) block of a mirror-symmetric T.

    Built from the left half of T, the rows nearer the lower end.  With n =
    2m + 1 the even block keeps the centre row, its coupling to the paired
    rows scaled by sqrt(2), and the odd block drops it; with n = 2m the row
    pair across the middle folds onto the last diagonal entry as d +- e.
    """
    n = T.dimension
    m = n // 2
    d, e = T.diag, T.offdiag
    if n % 2:
        if sign < 0:
            return TridiagonalMatrix(d[:m], e[:m - 1])
        off = e[:m].copy()
        off[-1] *= math.sqrt(2.0)
        return TridiagonalMatrix(d[:m + 1], off)
    diag = d[:m].copy()
    diag[-1] += sign * e[m - 1]
    return TridiagonalMatrix(diag, e[:m - 1])


def _unfold(w: np.ndarray, n: int, sign: float) -> np.ndarray:
    """Block eigenvectors (rows) carried onto all n rows, unit Euclidean norm kept."""
    m = n // 2
    half = w[:, :m] / math.sqrt(2.0)
    v = np.zeros((len(w), n))
    v[:, :m] = half
    v[:, n - m:] = sign * half[:, ::-1]
    if n % 2 and sign > 0:
        v[:, m] = w[:, m]
    return v


def _solve_mirror(T: TridiagonalMatrix, k: int, want_vectors: bool) -> EigenResult:
    """Lowest k eigenpairs of a mirror-symmetric T from its even and odd blocks.

    The eigenvector of the j-th level of a Jacobi matrix changes sign j times
    (discrete Sturm oscillation), so its parity is (-1)^j: the lowest k levels
    are the ceil(k/2) lowest even ones interleaved with the floor(k/2) lowest
    odd ones, even first.  A stable sort then swaps only an even/odd pair
    that rounding put out of order, one split by less than the bisection
    accuracy, such as the edge-localized top levels of a grid of a dozen
    points solved for all its levels.  Vectors are unfolded onto all rows of
    T and ``residual_bound`` is their largest residual on T itself.
    """
    parts = [(sign, eigen_tridiag(_mirror_block(T, sign), count, want_vectors))
             for sign, count in ((1.0, (k + 1) // 2), (-1.0, k // 2)) if count]
    vals = np.empty(k)
    vecs = np.empty((k, T.dimension)) if want_vectors else None
    for start, (sign, res) in enumerate(parts):  # even levels at 0, 2, ...; odd at 1, 3, ...
        vals[start::2] = res.eigenvalues
        if want_vectors:
            vecs[start::2] = _unfold(res.eigenvectors, T.dimension, sign)
    order = np.argsort(vals, kind="stable")
    if not want_vectors:
        return EigenResult(eigenvalues=vals[order], eigenvectors=None, residual_bound=None)
    vals, vecs = vals[order], vecs[order]
    return EigenResult(eigenvalues=vals, eigenvectors=vecs,
                       residual_bound=_residual(T, vals, vecs))


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


def channel_tridiag(spec: ChannelSpec, params: ModelParams, grid: Grid1D) -> TridiagonalMatrix:
    """Assemble one channel's 3-point stencil on its ``recommended_grid``.

    Two families: the oscillator -u''/2 + x^2/2 + c/x^2 in oscillator lengths
    and units of omega, with c = 0 (HO), g1^2/6 (SHO) or k^2/2 (RADIAL), and
    the angular -u'' + c/sin^2(x), singular at both ends, with c = g1^2/3
    (ANGULAR_PHI, eigenvalues f^2) or f^2 - 1/4 (ANGULAR_THETA, in the
    symmetrized form w = sqrt(sin) * Theta of -w'' + (f^2 - 1/4)/sin^2 * w =
    (k^2 + 1/4) w).  The stencil of -kappa u'' is diag 2 kappa / h^2, offdiag
    -kappa / h^2, with Dirichlet ends.
    """
    n = grid.n_points
    j = np.arange(1, n + 1)
    h = grid.spacing
    x = grid.nodes()
    if spec.kind in (ChannelKind.ANGULAR_PHI, ChannelKind.ANGULAR_THETA):
        c = spec.coefficient
        if spec.kind is ChannelKind.ANGULAR_THETA:
            c -= 0.25
        # c/sin^2(x) with both inverse-square poles removed; smooth on [0, pi]
        smooth = c * (1.0 / np.sin(x) ** 2 - 1.0 / x**2 - 1.0 / (math.pi - x) ** 2)
        diag = (2.0 / h**2 + smooth + inverse_square_diag(j, c, 1.0, h)
                + inverse_square_diag(n + 1 - j, c, 1.0, h))
        return TridiagonalMatrix(diag, np.full(n - 1, -1.0 / h**2))
    c = {ChannelKind.HO: 0.0, ChannelKind.SHO: params.g1_squared / 6.0,
         ChannelKind.RADIAL: 0.5 * spec.coefficient}[spec.kind]
    diag = 1.0 / h**2 + 0.5 * x**2 + inverse_square_diag(j, c, 0.5, h)
    return TridiagonalMatrix(diag, np.full(n - 1, -0.5 / h**2))


def solve_channel(spec: ChannelSpec, params: ModelParams, n_points: int, k: int,
                  want_vectors: bool = False, nodes: int | None = None) -> EigenResult:
    """Lowest k eigenvalues of the channel on its ``recommended_grid`` of n_points nodes.

    The channel's kind and the point count fix the spacing; ``nodes`` keeps
    that spacing on a box of ``nodes`` nodes instead (``recommended_grid``).
    The result carries the grid for integrals over its vectors.  A kind of
    ``MIRROR_KINDS`` solves as its even and odd half-problems
    (``_solve_mirror``); SHO and RADIAL solve the full matrix.
    Returned values are the physical ones: energies for HO/SHO/RADIAL (omega
    times the levels of their matrix), the 1/sin^2 eigenvalues f^2 for
    ANGULAR_PHI, and the separation constants k^2 (symmetric-operator
    eigenvalues minus 1/4) for ANGULAR_THETA, whose vectors are those of the
    symmetrized substitution w = sqrt(sin)*Theta.
    """
    grid = recommended_grid(spec.kind, n_points, nodes)
    T = channel_tridiag(spec, params, grid)
    if spec.kind in MIRROR_KINDS:
        res = _solve_mirror(T, k, want_vectors)
    else:
        res = eigen_tridiag(T, k, want_vectors=want_vectors)
    vals = res.eigenvalues
    if spec.kind in OSCILLATOR_KINDS:
        vals = params.omega * vals
    elif spec.kind is ChannelKind.ANGULAR_THETA:
        vals = vals - 0.25
    vecs = res.eigenvectors
    if vecs is not None:
        vecs = vecs / math.sqrt(grid.spacing)  # trapezoid normalization
    return EigenResult(eigenvalues=vals, eigenvectors=vecs,
                       residual_bound=res.residual_bound, grid=grid)


#: Half-width of the default HO box in oscillator lengths 1/sqrt(omega).
HO_EXTENT = 12.0
#: Extra margin for the half-line channels, whose states reach farther out.
HALF_LINE_MARGIN = 2.0
#: Kinds whose box ``solve_grids`` fits to the levels it solves.
OSCILLATOR_KINDS = frozenset({ChannelKind.HO, ChannelKind.SHO, ChannelKind.RADIAL})
#: WKB decay at which a pair's box ends: exp(-20) of the amplitude at the
#: highest level's outer turning point, so the wall shifts it by about exp(-40).
BOX_DECAY = 20.0
#: Most points of a pair's coarse grid (its fine grid holds 2 n + 1, a third
#: grid below it (n - 1) // 2).  Rounding in the 1/h^2 entries grows as n^2 and
#: the discretization error falls as n^-2: here the 1D commands pass with the
#: worst gating check at 0.20 of its tolerance, and hf-check's three-grid
#: expectation within 1.4e-6 of it against the closed form (README); at 50001
#: they pass too, each command's worst entry 3 to 36 times higher (0.60).
MAX_PAIR_POINTS = 20001
#: Coarse grid of the finest pair a sized solve returns (``_sized_pair``), and
#: the grid of a check that needs one point count for all its solves.
CHANNEL_POINTS = 2001
#: Point counts a sized pair is chosen from, coarsest first: each is
#: (n - 1) // 2 of the next, exactly twice its spacing for odd n, up to the
#: (CHANNEL_POINTS, 2 CHANNEL_POINTS + 1) pair.
RUNGS = (124, 249, 499, 1000, CHANNEL_POINTS, 2 * CHANNEL_POINTS + 1)
#: A sized pair's error is aimed within this fraction of its check's tolerance:
#: low-level checks read 1e-5 to 2e-4 of it at the (2001, 4003) pair.
PAIR_ERROR_FRACTION = 1e-4
#: The factor by which the pilot's predicted error must clear that aim.  Where
#: the eigenfunctions meet a wall as x^b with 1 < b < 3/2 (g1^2 < 2.25, on the
#: SHO and ANGULAR_PHI kinds) a power of h below h^4 is left, which the pilot
#: under-predicts.  At every omega, g1^2 from 0 to 1e4 and the levels the checks
#: ask, the pairs taken below (2001, 4003) erred by at most 0.80 of the aim at tol
#: 1e-4 (6.4 times it with a factor of 1), and at tol 1e-5, an aim below the
#: bisection accuracy at strong couplings, by up to 5.5 times it.
PILOT_SAFETY = 4.0


def recommended_grid(kind: ChannelKind, n_points: int, nodes: int | None = None) -> Grid1D:
    """Solve domain of a channel: the spacing of n_points nodes on the kind's default box.

    The default boxes are (-L, L) for HO and (0, L + margin) for SHO and
    RADIAL, with L = ``HO_EXTENT`` in oscillator lengths, the same at every
    omega, and (0, pi) for the angular kinds.  ``nodes`` keeps that spacing
    on the box scaled about 0 to hold ``nodes`` nodes: symmetric for HO, from
    the wall at 0 for SHO and RADIAL; the angular kinds keep (0, pi).
    """
    if kind not in OSCILLATOR_KINDS:
        if nodes is not None:
            raise ValueError(f"the {kind.value} channel keeps its box (0, pi)")
        return Grid1D(0.0, math.pi, n_points)
    if kind is ChannelKind.HO:
        lower, upper = -HO_EXTENT, HO_EXTENT
    else:
        lower, upper = 0.0, HO_EXTENT + HALF_LINE_MARGIN
    if nodes is None:
        return Grid1D(lower, upper, n_points)
    stretch = (nodes + 1) / (n_points + 1)
    return Grid1D(lower * stretch, upper * stretch, nodes)


def richardson(e_h: float | np.ndarray, e_half: float | np.ndarray, ratio: float = 2.0):
    """Cancel the leading O(h^2) error from values at spacings h and h / ratio."""
    r2 = ratio * ratio
    return (r2 * e_half - e_h) / (r2 - 1.0)


def _box_nodes(spec: ChannelSpec, params: ModelParams, n_points: int, nodes: int,
               level: float) -> int | None:
    """Nodes of the box whose wall lies where ``level`` has decayed by exp(-BOX_DECAY).

    Both counts are at the spacing of n_points nodes on the default box; the
    search runs over the box of ``nodes`` nodes and gives None if the decay
    does not reach BOX_DECAY inside it.  The decay is the WKB integral of
    sqrt(2 (V - E)) outward from the outer turning point, with V read from the
    diagonal, 1/h^2 + V, and E = ``level`` / omega, both in units of omega.
    """
    grid = recommended_grid(spec.kind, n_points, nodes)
    h = grid.spacing
    excess = channel_tridiag(spec, params, grid).diag - 1.0 / h**2 - level / params.omega
    allowed = np.flatnonzero(excess <= 0.0)
    turn = allowed[-1] + 1 if len(allowed) else 0
    decay = np.cumsum(np.sqrt(2.0 * excess[turn:])) * h
    edge = int(np.searchsorted(decay, BOX_DECAY))
    if edge == len(decay):
        return None
    cut = nodes - int(turn + edge)  # nodes from the wall outward, cut at the upper end
    return nodes - (2 * cut if spec.kind is ChannelKind.HO else cut)


@dataclass(frozen=True)
class RichardsonPair:
    """Solves at spacings h and h / ``ratio``, and their extrapolant ``values``.

    ``coarse`` and ``fine`` are a channel's EigenResults or grid3d's GridLevels.
    """

    coarse: EigenResult
    fine: EigenResult
    ratio: float
    values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", richardson(
            self.coarse.eigenvalues, self.fine.eigenvalues, self.ratio))


def _ladder(spec: ChannelSpec, params: ModelParams, coarsest: int, k: int,
            want_vectors: bool) -> Callable[[int], EigenResult]:
    """The ladder of ``solve_grids`` from a grid of ``coarsest`` points.

    That grid is solved now and fixes the box; the function returned solves
    each point count once, at its own spacing on that box, rounded out.
    """
    first = solve_channel(spec, params, coarsest, k, want_vectors)
    intervals = None  # the box, in intervals at the coarsest spacing; None keeps (0, pi)
    if spec.kind in OSCILLATOR_KINDS:
        reach = coarsest
        while (box := _box_nodes(spec, params, coarsest, reach, first.eigenvalues[-1])) is None:
            # look farther out; an odd factor keeps HO's node parity, so the longer
            # box holds the default nodes and, by interlacing, no higher levels
            reach *= 3
        if box > coarsest:
            first = solve_channel(spec, params, coarsest, k, want_vectors, nodes=box)
            box = _box_nodes(spec, params, coarsest, reach, first.eigenvalues[-1])
        intervals = max(box, k // 2, 1) + 1
    solves = {coarsest: first}

    def rung(n_points: int) -> EigenResult:
        if n_points not in solves:
            nodes = (None if intervals is None
                     else -(-intervals * (n_points + 1) // (coarsest + 1)) - 1)
            solves[n_points] = solve_channel(spec, params, n_points, k, want_vectors, nodes=nodes)
        return solves[n_points]

    return rung


def solve_grids(spec: ChannelSpec, params: ModelParams, sizes: Sequence[int], k: int,
                want_vectors: bool = False) -> list[EigenResult]:
    """The channel's k lowest levels on grids of ``sizes`` points, coarsest first.

    The coarsest grid is solved on the default box.  For an
    ``OSCILLATOR_KINDS`` channel its highest level then fixes the box of
    every finer grid: each is solved only out to where that level has
    decayed (``_box_nodes``), at exactly its spacing, and never on fewer
    nodes than levels; a grid of 2 n + 1 points is a node subset of its
    default grid.  Where that edge lies beyond the default box, the coarsest
    grid is first solved again on the longer box at the same spacing.  The
    angular kinds keep (0, pi).  ``want_vectors`` goes to every solve.
    """
    rung = _ladder(spec, params, sizes[0], k, want_vectors)
    return [rung(n) for n in sizes]


def solve_channel_extrapolated(spec: ChannelSpec, params: ModelParams, n_points: int | None,
                               k: int, tol: float | None = None) -> RichardsonPair:
    """The pair at n_points and 2 n_points + 1 (h and h/2), Richardson-extrapolated.

    Both grids come from ``solve_grids``, on the box the n_points grid
    fixes.  Past ``MAX_PAIR_POINTS`` it raises ValueError before any solve.
    With n_points None the pair is sized to ``tol``, the tolerance its values
    answer to, by ``_sized_pair``.
    """
    if n_points is None:
        return _sized_pair(spec, params, k, tol)
    if n_points > MAX_PAIR_POINTS:
        raise ValueError(f"grid-points must be at most {MAX_PAIR_POINTS}: past it, rounding in "
                         f"the 1/h^2 entries grows past the discretization error, got {n_points}")
    return RichardsonPair(*solve_grids(spec, params, (n_points, 2 * n_points + 1), k), 2.0)


def _sized_pair(spec: ChannelSpec, params: ModelParams, k: int,
                tol: float | None) -> RichardsonPair:
    """The coarsest pair of adjacent ``RUNGS`` whose predicted error is within
    ``PAIR_ERROR_FRACTION`` * tol by the factor ``PILOT_SAFETY``.

    The pilot is the three coarsest rungs that hold the k levels, all on one
    ``_ladder``, so the first fixes the box of every finer grid as in
    ``solve_grids``.  With e = E + a h^2 + c h^4 + ..., the second divided
    difference of its levels in h^2 estimates each level's c, and a pair at
    h and h' extrapolates to E - c h^2 h'^2: that is its predicted error, the
    largest over the levels.  The top pair is taken when no coarser one
    qualifies, and is the only one where fewer than three rungs hold the
    levels.  Each pair is extrapolated at the ratio of its spacings, and
    reuses the pilot's solves it shares.
    """
    if tol is None or not tol > 0:
        raise ValueError(f"a pair sized without a point count needs a positive tol, got {tol}")
    rungs = [n for n in RUNGS if n >= k]
    if len(rungs) < 3:  # too few to pilot: the top pair
        rung = _ladder(spec, params, CHANNEL_POINTS, k, False)
        return RichardsonPair(rung(CHANNEL_POINTS), rung(2 * CHANNEL_POINTS + 1), 2.0)
    rung = _ladder(spec, params, rungs[0], k, False)
    s = [1.0 / (n + 1) ** 2 for n in rungs]  # h^2 in units of the default box squared
    e = [rung(n).eigenvalues for n in rungs[:3]]
    c = np.max(np.abs(((e[0] - e[1]) / (s[0] - s[1]) - (e[1] - e[2]) / (s[1] - s[2]))
                      / (s[0] - s[2])))
    i = next((i for i in range(len(rungs) - 2)
              if PILOT_SAFETY * c * s[i] * s[i + 1] <= PAIR_ERROR_FRACTION * tol),
             len(rungs) - 2)
    return RichardsonPair(rung(rungs[i]), rung(rungs[i + 1]), (rungs[i + 1] + 1) / (rungs[i] + 1))


def expectation(v: np.ndarray, observable: Callable[[np.ndarray], np.ndarray],
                grid: Grid1D) -> float:
    """Grid expectation sum_i v_i^2 * obs(x_i) * spacing for a trapezoid-normalized v."""
    obs = np.asarray(observable(grid.nodes()), dtype=float)
    if not np.all(np.isfinite(obs)):
        bad = grid.nodes()[~np.isfinite(obs)][0]
        raise ValueError(f"observable is not finite at grid node x = {bad}")
    return float(np.sum(v * v * obs) * grid.spacing)
