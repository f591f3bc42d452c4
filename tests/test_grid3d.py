"""3D grid solver: layout, Lanczos behavior, and the tensor-sum oracle."""

import hashlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wolfes4 import grid3d
from wolfes4.coords import jacobi_matrix
from wolfes4.grid3d import (
    ConvergenceError,
    GROUND_SECTOR,
    MAX_G1_SQUARED,
    SECTORS,
    _build_operator,
    _dvr_axis,
    _dvr_transfer,
    _x2_axis,
    _x2_transfer,
    dvr_nodes,
    lanczos_lowest,
    solve_hd_3d,
    solve_partner,
)
from wolfes4.model import ModelParams
from wolfes4.numsolve import richardson
from wolfes4.verify import verify_3d

P = ModelParams(omega=1.0, g1_squared=3.0)
J = jacobi_matrix()


def grid(n_per_axis, extent):
    """The documented grid, as _build_operator takes it: n_half = n_per_axis // 2
    X2 nodes j * extent / (n_half + 1), j >= 1, and m DVR nodes per half of X1
    and X3, j * extent / (m + 1), |j| <= m, where m + 1 is the fewest steps of at
    most 0.47 over the extent, within [9, 31]."""
    m = min(max(math.ceil(extent / 0.47) - 1, 8), 30)
    return n_per_axis // 2, m, extent


def colbert_miller(m, h):
    """The unfolded sinc-DVR kinetic matrix of -1/2 d2/dx2 on the 2 m + 1 nodes
    j * h, |j| <= m, from its closed form, entry by entry."""
    t = np.empty((2 * m + 1, 2 * m + 1))
    for a in range(2 * m + 1):
        for b in range(2 * m + 1):
            d = a - b
            t[a, b] = math.pi**2 / (6.0 * h**2) if d == 0 else (-1.0) ** d / (h**2 * d**2)
    return t


def tensor_sum_oracle(params, n_half, m, extent, k):
    """The discrete operator is an exact Kronecker sum of 1D operators, so its
    spectrum is the set of sums of 1D eigenvalues: X1 and X3 are the unfolded
    sinc-DVR on j * extent / (m + 1), |j| <= m, whose spectrum is that of its
    even and odd folded blocks together (TestDvrAxis), and X2 is the half-line
    stencil on j * h, j >= 1, h = extent / (n_half + 1), with the barrier as the
    exact-local-power diagonal that annihilates x^b up to g1^2 = 18 (b = 3) and
    sampled above; each sum counts twice (X2 < 0 mirrors X2 > 0).  Assembled
    here from raw arrays; shares nothing with the Lanczos path."""
    h = extent / (n_half + 1)
    j = np.arange(1, n_half + 1, dtype=float)
    b = 0.5 + np.sqrt(0.25 + params.g1_squared / 3.0)
    if params.g1_squared <= 18.0:
        barrier = 0.5 / h**2 * ((j + 1.0) ** b - 2.0 * j**b + (j - 1.0) ** b) / j**b
    else:
        barrier = params.g1_squared / (6.0 * (h * j) ** 2)
    h_dvr = extent / (m + 1)
    x = h_dvr * np.arange(-m, m + 1)
    e_dvr = np.linalg.eigvalsh(colbert_miller(m, h_dvr) + np.diag(0.5 * x**2))[:k]
    e_half = eigh_tridiagonal(1.0 / h**2 + 0.5 * (h * j) ** 2 + barrier,
                              np.full(n_half - 1, -0.5 / h**2), eigvals_only=True,
                              select="i", select_range=(0, min(k, n_half - 1)))
    sums = (e_dvr[:, None, None] + e_half[None, :, None] + e_dvr[None, None, :])
    return np.sort(np.repeat(sums.ravel(), 2))[:k]


def states(res, k):
    """The lowest k states of a solve, each level repeated by its multiplicity."""
    return np.repeat(res.eigenvalues, res.multiplicities)[:k]


def sector_levels(res, sector):
    """The levels of a solve in one sector, in the solve's order."""
    return [value for value, s in zip(res.levels, res.sectors) if s == sector]


class TestAxisLayout:
    def test_counts_and_parity(self):
        # an even count makes the grid of the next odd one
        assert np.array_equal(solve_hd_3d(P, 20, 5.0, k=2).eigenvalues,
                              solve_hd_3d(P, 21, 5.0, k=2).eigenvalues)
        n_half, m, extent = grid(61, 7.0)
        assert (n_half, m, dvr_nodes(7.0)) == (30, 14, 14)
        x2, kinetic = _x2_axis(n_half, 7.0 / 31)
        assert len(x2) == kinetic.shape[0] == n_half
        assert x2[0] == 7.0 / 31 and x2[-1] + 7.0 / 31 == pytest.approx(7.0)  # walls at 0 and 7
        even, _ = _dvr_axis(m, 7.0 / 15, 1)
        odd, kinetic = _dvr_axis(m, 7.0 / 15, -1)
        assert len(even) == m + 1 and len(odd) == kinetic.shape[0] == m
        assert even[0] == 0.0 and odd[0] == 7.0 / 15 and odd[-1] + 7.0 / 15 == pytest.approx(7.0)

    def test_dvr_count_fixed_by_the_extent(self):
        # the fewest steps of at most 0.47: 23 nodes over 5.5 and 29 over 7;
        # never fewer per half-axis than the 16-point grid's 8, nor more than 30
        assert [2 * dvr_nodes(e) + 1 for e in (5.5, 7.0)] == [23, 29]
        for extent in (1.0, 2.0, 3.76, 4.0, 4.5, 5.0, 9.4, 9.41, 14.57, 14.6, 20.0, 100.0):
            assert dvr_nodes(extent) == grid(16, extent)[1]
            if dvr_nodes(extent) < 30:
                assert extent / (dvr_nodes(extent) + 1) <= 0.47
        assert (dvr_nodes(1.0), dvr_nodes(100.0)) == (8, 30)

    def test_both_grids_of_a_pair_share_the_dvr(self, monkeypatch):
        built = []

        def recording(g1_squared, n_half, m, extent, sector, jacobi):
            built.append((n_half, m))
            return _build_operator(g1_squared, n_half, m, extent, sector, jacobi)

        monkeypatch.setattr(grid3d, "_build_operator", recording)
        verify_3d(P, k=6, offset=1.0, n_per_axis=41, extent=5.5)
        # five fine sectors, the partner's two, and the partner's two again
        # with 4 DVR nodes fewer for grid3d-dvr-error
        assert built == [(20, 11)] * 5 + [(10, 11)] * 2 + [(10, 9)] * 2

    def test_sym_axis_contains_origin(self):
        # an even axis keeps x = 0, coupled to x = b * h by sqrt(2) T(b)
        m, h = 10, 0.5
        x, kinetic = _dvr_axis(m, h, 1)
        assert x[0] == 0.0 and x[1] == h
        b = np.arange(1, m + 1)
        assert kinetic[0, 1:] == pytest.approx(np.sqrt(2.0) * (-1.0) ** b / (h * b) ** 2,
                                               rel=1e-14)
        assert kinetic[0, 0] == pytest.approx(np.pi**2 / (6 * h**2), rel=1e-14)

    def test_x2_axis_is_the_positive_half_space(self):
        # X2 keeps the nodes j*h, j >= 1, behind a Dirichlet plane at X2 = 0,
        # and runs fastest: u.reshape(n_plane, n2).  In sector (1, -1, 0) the
        # plane state (i, j) is X1 = i*hd, X3 = (j + 1)*hd at index i * n3 + j;
        # at g1^2 = 0 the diagonal along X2 at X1 = hd, X3 = 2 hd reads
        # 1/h^2 + T(0) + T(2) + T(0) - T(4) + (x2^2 + 5 hd^2)/2, which no walk
        # along X1 or X3 gives
        n_half, m, extent = grid(21, 5.0)
        h, hd = extent / (n_half + 1), extent / (m + 1)
        matvec, n = _build_operator(0.0, n_half, m, extent, (1, -1, 0), J)
        n1, n2, n3 = 11, 10, 10
        assert (n_half, m) == (10, 10) and n == n1 * n3 * n2
        row = (1 * n3 + 1) * n2
        diag = []
        for jj in range(n2):
            e = np.zeros(n)
            e[row + jj] = 1.0
            diag.append(matvec(e) @ e)
        kinetic = 1.0 / h**2 + (np.pi**2 / 3.0 + 1.0 / 4.0 - 1.0 / 16.0) / hd**2
        x2 = np.sqrt(2.0 * (np.array(diag) - kinetic) - 5.0 * hd**2)
        assert x2 == pytest.approx(h * np.arange(1, 11), abs=1e-12)

    def test_too_small_rejected(self):
        # verify_3d bounds the points and the box; solve_hd_3d bounds its work
        for n_per_axis, extent in ((15, 5.0), (122, 5.0), (30, -1.0), (30, float("nan"))):
            with pytest.raises(ValueError, match="^the 3D grid's "):
                verify_3d(P, k=2, offset=1.0, n_per_axis=n_per_axis, extent=extent)
        with pytest.raises(ValueError, match="at most 121"):
            solve_hd_3d(P, 122, 5.0, k=1)
        # a solve needs one X2 node: 2 points hold it, fewer hold none
        for n_per_axis in (1, 0, -1):
            with pytest.raises(ValueError, match="^the 3D grid's points per axis must be "
                                                 f"at least 2, got {n_per_axis}$"):
                solve_hd_3d(P, n_per_axis, 5.0, k=2)
        for n_per_axis in (2, 3):
            assert solve_hd_3d(P, n_per_axis, 5.0, k=2).eigenvalues.size


class TestDvrAxis:
    @pytest.mark.parametrize("m", [8, 14])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_folded_blocks_are_the_unfolded_dvr_restricted(self, m, parity):
        # B^T T B with B the columns (delta_a + parity delta_-a) / sqrt(2),
        # a >= 1, and delta_0 alone when even
        h = 7.0 / (m + 1)
        cols = []
        for a in range(0 if parity > 0 else 1, m + 1):
            f = np.zeros(2 * m + 1)
            f[m + a] += 1.0
            f[m - a] += parity
            cols.append(f / np.linalg.norm(f))
        B = np.column_stack(cols)
        x, kinetic = _dvr_axis(m, h, parity)
        assert x == pytest.approx(h * np.arange(0 if parity > 0 else 1, m + 1), rel=1e-15)
        assert np.max(np.abs(kinetic - B.T @ colbert_miller(m, h) @ B)) <= 1e-12

    def test_oscillator_exact_at_extent_7(self):
        # both folded blocks together: 1/2, 3/2, 5/2
        m = dvr_nodes(7.0)
        levels = []
        for parity in (1, -1):
            x, kinetic = _dvr_axis(m, 7.0 / (m + 1), parity)
            levels.extend(np.linalg.eigvalsh(kinetic + np.diag(0.5 * x**2))[:2])
        assert np.max(np.abs(np.sort(levels)[:3] - [0.5, 1.5, 2.5])) <= 1e-11


class TestSolver:
    def test_matches_tensor_sum_oracle(self):
        res = solve_hd_3d(P, 16, 5.0, k=5)
        oracle = tensor_sum_oracle(P, *grid(16, 5.0), 5)
        assert states(res, 5) == pytest.approx(oracle, abs=1e-8)

    def test_each_level_once_with_its_multiplicity(self):
        # the ground level (2: the X2 mirror) and the N = 1 pair (4: the
        # mirror and the X1 <-> X3 image), 6 states in two levels
        res = solve_hd_3d(P, 24, 5.0, k=6)
        assert res.sectors == [GROUND_SECTOR, (1, -1, 0)]
        assert res.multiplicities.tolist() == [2, 4]
        assert res.eigenvalues[1] - res.eigenvalues[0] > 0.9

    def test_each_sector_solved_once(self, monkeypatch):
        solved = []

        def recording(matvec, n, k, **kwargs):
            solved.append(n)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        solve_hd_3d(P, 41, 5.5, k=6)
        assert len(solved) == len(SECTORS) == 5

    # at g1^2 = 0.3 (b = 1.09) naive sampling of the barrier converged at
    # order 2b - 1 = 1.2 (ratio 2.3)
    @pytest.mark.parametrize("g1_squared", [0.3, 3.0])
    def test_second_order_convergence(self, g1_squared):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        exact = 2.0 + np.sqrt(0.25 + g1_squared / 3.0)
        coarse = solve_hd_3d(params, 21, 5.0, k=1).eigenvalues[0]
        fine = solve_hd_3d(params, 43, 5.0, k=1).eigenvalues[0]
        ratio = (coarse - exact) / (fine - exact)
        assert 3.3 <= ratio <= 4.7

    def test_deterministic(self):
        a = solve_hd_3d(P, 18, 5.0, k=3)
        b = solve_hd_3d(P, 18, 5.0, k=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_residual_bound_reported(self):
        res = solve_hd_3d(P, 18, 5.0, k=3)
        assert 0.0 <= res.residual_bound <= 1e-8

    def test_omega_scaling_exact_on_grid(self):
        # the box is in oscillator lengths 1/sqrt(omega), which makes the
        # operator an exact multiple, so the spectra double to rounding
        e1 = solve_hd_3d(ModelParams(1.0, 3.0), 18, 5.0, k=3).eigenvalues
        e2 = solve_hd_3d(ModelParams(2.0, 3.0), 18, 5.0, k=3).eigenvalues
        assert e2 == pytest.approx(2.0 * e1, rel=1e-7)

    @pytest.mark.parametrize("g1_squared", [0.0, 0.3, 1.0, 3.0, 7.5, 100.0, 300.0])
    def test_degenerate_partners_not_missed(self, g1_squared):
        # states 2-5 are two exactly degenerate X1 <-> X3 image pairs
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 41, 5.5, k=6)
        oracle = tensor_sum_oracle(params, *grid(41, 5.5), 6)
        assert states(res, 6) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("g1_squared", [0.3, 3.0])
    def test_sectors_topped_up_to_the_lowest_k(self, g1_squared, monkeypatch):
        asked = []

        def recording(matvec, n, k, **kwargs):
            asked.append(k)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 20, 5.0, k=12)
        oracle = tensor_sum_oracle(params, *grid(20, 5.0), 12)
        assert states(res, 12) == pytest.approx(oracle, abs=1e-10)
        # one solve per sector: the ground sector for its share of the 12
        # states, every other for its share of the 10 above the ground level
        assert asked == [-(-12 // m) if sector == GROUND_SECTOR else -(-10 // m)
                         for sector, m in SECTORS.items()]

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_states_solve_the_ground_sector_only(self, k, monkeypatch):
        asked = []

        def recording(matvec, n, k, **kwargs):
            asked.append(k)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        res = solve_hd_3d(P, 20, 5.0, k=k)
        assert asked == [1]
        assert res.multiplicities.tolist() == [2]
        assert res.eigenvalues == pytest.approx(tensor_sum_oracle(P, *grid(20, 5.0), 1),
                                                abs=1e-10)

    @pytest.mark.parametrize("n_per_axis", [16, 41])
    @pytest.mark.parametrize("g1_squared", [0.0, 3.0, 100.0])
    def test_ground_level_lies_in_the_ground_sector_alone(self, g1_squared, n_per_axis):
        # the Perron-Frobenius premise of the level budget, sector by sector
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        lowest = {}
        for sector in SECTORS:
            matvec, n = _build_operator(g1_squared, *grid(n_per_axis, 5.5), sector, J)
            lowest[sector] = lanczos_lowest(matvec, n, 1, tol=1e-10)[0][0]
        ground = lowest.pop(GROUND_SECTOR)
        assert ground < min(lowest.values())
        assert ground == pytest.approx(
            tensor_sum_oracle(params, *grid(n_per_axis, 5.5), 1)[0], abs=1e-10)

    def test_level_below_the_ground_sector_raises(self, monkeypatch):
        solved = []

        def lowering(matvec, n, k, **kwargs):
            vals, res, vectors = lanczos_lowest(matvec, n, k, **kwargs)
            solved.append(n)
            return (vals - 10.0 if len(solved) == 3 else vals), res, vectors

        monkeypatch.setattr(grid3d, "lanczos_lowest", lowering)
        with pytest.raises(ConvergenceError, match="Perron-Frobenius") as info:
            solve_hd_3d(P, 16, 5.0, k=6)
        # the levels print as plain numbers, in one line
        message = str(info.value)
        assert "np.float64" not in message and "\n" not in message
        level, ground = re.search(r"has a level (\S+) at or below the ground level (\S+),",
                                  message).groups()
        assert float(level) < float(ground)

    def test_sectors_solved_for_the_counts_given(self, monkeypatch):
        asked = []

        def recording(matvec, n, k, **kwargs):
            asked.append(k)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        counts = {GROUND_SECTOR: 2, (1, -1, 0): 1, (-1, -1, 1): 0}
        solved = grid3d._solve(P, 20, dvr_nodes(5.0), 5.0, counts)
        # in SECTORS order, whatever the order of the counts
        assert solved.sectors == [(1, -1, 0), GROUND_SECTOR, GROUND_SECTOR] and asked == [1, 2]
        # the lowest level of each, as the full solve at k = 6 finds them
        full = solve_hd_3d(P, 20, 5.0, k=6)
        assert [sector_levels(solved, sector)[0] for sector in full.sectors] == pytest.approx(
            full.eigenvalues, abs=1e-10)

    def test_level_below_the_ground_sector_raises_when_solved_before_it(self, monkeypatch):
        # (1, -1, 0) is solved first; the guard runs once the ground sector is in
        solved = []

        def lowering(matvec, n, k, **kwargs):
            vals, res, vectors = lanczos_lowest(matvec, n, k, **kwargs)
            solved.append(n)
            return (vals - 10.0 if len(solved) == 1 else vals), res, vectors

        monkeypatch.setattr(grid3d, "lanczos_lowest", lowering)
        with pytest.raises(ConvergenceError, match=r"sector \(1, -1, 0\) has a level"):
            solve_hd_3d(P, 16, 5.0, k=6)

    def test_level_below_the_ground_sector_raises_for_any_counts(self, monkeypatch):
        def lowering(matvec, n, k, **kwargs):
            vals, res, vectors = lanczos_lowest(matvec, n, k, **kwargs)
            return (vals - 10.0 if k == 1 else vals), res, vectors

        monkeypatch.setattr(grid3d, "lanczos_lowest", lowering)
        with pytest.raises(ConvergenceError, match="Perron-Frobenius"):
            grid3d._solve(P, 16, dvr_nodes(5.0), 5.0, {GROUND_SECTOR: 2, (-1, -1, -1): 1})

    def test_levels_above_the_lowest_k_are_bounded_not_converged(self, monkeypatch):
        # at k = 6 the ground sector's N = 2 pair and every level of the three
        # sectors solved last lie above the sixth state; converging them too
        # took 406 matvecs
        matvecs, bounds = [], []

        def counting(matvec, n, k, **kwargs):
            bounds.append(kwargs["bound"])

            def counted(u):
                matvecs.append(n)
                return matvec(u)

            return lanczos_lowest(counted, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", counting)
        res = solve_hd_3d(P, 41, 5.5, k=6)
        assert len(bounds) == 5 and None not in bounds
        assert len(matvecs) <= 250
        # every level returned converged, and they are the oracle's
        assert 0.0 < res.residual_bound <= 1e-8 * max(res.eigenvalues)
        assert states(res, 6) == pytest.approx(tensor_sum_oracle(P, *grid(41, 5.5), 6),
                                               abs=1e-10)

    def test_exact_counts_converge_every_level(self, monkeypatch):
        # the partner grid and dvr_change pair their levels by rank with the
        # fine grid's, so none of them may be only bounded
        bounds = []

        def recording(matvec, n, k, **kwargs):
            bounds.append(kwargs["bound"])
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        solved = grid3d._solve(P, 20, dvr_nodes(5.0), 5.0, dict.fromkeys(SECTORS, 3))
        assert bounds == [None] * 5
        assert np.all(solved.residuals <= 1e-8 * np.maximum(1.0, np.abs(solved.levels)))
        fine = solve_hd_3d(P, 40, 5.0, k=20)
        del bounds[:]
        partner = solve_partner(fine).coarse
        grid3d.dvr_change(partner)
        # four sectors hold the 20 states, two solves each
        assert bounds == [None] * 8
        assert np.all(partner.residuals <= 1e-8 * np.maximum(1.0, np.abs(partner.levels)))

    # a sector solve ran out of Lanczos restarts in 8 of these 18 while
    # every level asked for had to converge, those above the lowest k states
    # as well
    @pytest.mark.parametrize("k", [12, 14])
    @pytest.mark.parametrize("extent", [2.0, 4.5, 7.0])
    @pytest.mark.parametrize("n_per_axis", [24, 30, 41])
    def test_strong_barrier_matches_the_oracle(self, n_per_axis, extent, k):
        params = ModelParams(omega=1.0, g1_squared=800.0)
        res = solve_hd_3d(params, n_per_axis, extent, k)
        oracle = tensor_sum_oracle(params, *grid(n_per_axis, extent), k)
        assert states(res, k) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("g1_squared", [0.3, 3.0, 100.0])
    def test_twenty_states_without_ghosts(self, g1_squared):
        # up to 10 levels per sector, orthogonalized against the kept Ritz
        # block only; a ghost copy of a converged level would shift the list
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 20, 5.0, k=20)
        oracle = tensor_sum_oracle(params, *grid(20, 5.0), 20)
        assert states(res, 20) == pytest.approx(oracle, abs=1e-10)

    # 8-9 points make an X2 axis of 4 nodes and, with the DVR's fewest 17
    # nodes, sectors of 112-840 unknowns
    @pytest.mark.parametrize("k", [6, 12])
    @pytest.mark.parametrize("g1_squared", [0.0, 0.3, 100.0])
    @pytest.mark.parametrize("extent", [2.0, 4.5, 7.0])
    @pytest.mark.parametrize("n_per_axis", [8, 9])
    def test_small_sectors_match_the_oracle(self, n_per_axis, extent, g1_squared, k):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, n_per_axis, extent, k)
        oracle = tensor_sum_oracle(params, *grid(n_per_axis, extent), k)
        assert states(res, k) == pytest.approx(oracle, abs=1e-10)

    # dvr_change solves the 16-point grid's partner with 2 DVR nodes fewer
    # per half-axis, 6 below extent 3.76: sectors of 60-168 unknowns, where a
    # Ritz value converges within the first Lanczos cycle, before a restart
    # has kept any Ritz vector to orthogonalize against
    @pytest.mark.parametrize("g1_squared", [0.0, 0.3, 100.0])
    def test_fewest_dvr_nodes_match_the_oracle(self, g1_squared, monkeypatch):
        monkeypatch.setattr(grid3d, "DVR_HALF_RANGE", (6, 30))
        assert dvr_nodes(2.0) == 6
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 8, 2.0, 12)
        assert states(res, 12) == pytest.approx(tensor_sum_oracle(params, 4, 6, 2.0, 12),
                                                abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(g1_squared=st.floats(0.0, 40.0), n_per_axis=st.integers(16, 22))
    def test_matches_tensor_sum_oracle_anywhere(self, g1_squared, n_per_axis):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, n_per_axis, 5.0, k=6)
        oracle = tensor_sum_oracle(params, *grid(n_per_axis, 5.0), 6)
        assert states(res, 6) == pytest.approx(oracle, abs=1e-10)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            solve_hd_3d(P, 16, 5.0, k=0)

    def test_coupling_beyond_the_grid_rejected(self):
        solve_hd_3d(ModelParams(1.0, MAX_G1_SQUARED), 16, 5.0, k=1)
        with pytest.raises(ValueError, match="g1\\^2 must be at most"):
            solve_hd_3d(ModelParams(1.0, 1e300), 16, 5.0, k=1)


class TestReduction:
    """The operator comes from the particle Hamiltonian through J, so a wrong J shows."""

    def test_rotated_jacobi_map_fails_the_closed_forms(self, monkeypatch):
        # rotating the X1 and Xcm rows keeps J orthogonal and J @ (1, 1, -2, 0)
        # along X2, so only the closed forms can see it: part of X1 becomes
        # centre of mass, which the particle potential does not bind
        # (0.1 rad moves the ground level by less than the tolerance)
        rotated = jacobi_matrix()
        cos, sin = np.cos(0.3), np.sin(0.3)
        rotated[[0, 3]] = [cos * rotated[0] - sin * rotated[3], sin * rotated[0] + cos * rotated[3]]
        monkeypatch.setattr(grid3d, "jacobi_matrix", lambda: rotated)
        report = verify_3d(P, k=6, offset=1.0, n_per_axis=41, extent=5.5)
        ground = next(c for c in report.checks if c.name == "grid3d-level[N=0]")
        assert not ground.passed

    def test_non_orthogonal_jacobi_map_rejected(self, monkeypatch):
        scaled = jacobi_matrix()
        scaled[1] *= 1.01
        monkeypatch.setattr(grid3d, "jacobi_matrix", lambda: scaled)
        with pytest.raises(ValueError, match="not orthogonal"):
            solve_hd_3d(P, 16, 5.0, k=1)

    def test_barrier_off_the_x2_axis_rejected(self, monkeypatch):
        swapped = jacobi_matrix()[[1, 0, 2, 3]]
        monkeypatch.setattr(grid3d, "jacobi_matrix", lambda: swapped)
        with pytest.raises(ValueError, match="barrier plane"):
            solve_hd_3d(P, 16, 5.0, k=1)


class TestRichardsonPair:
    @pytest.mark.parametrize("n_per_axis", [16, 24, 41])
    def test_levels_extrapolate_the_oracle_pair(self, n_per_axis):
        # solve_partner pairs the grid with n_per_axis // 2 points on the same
        # extent and the same DVR; the pair's values and verify_3d's level
        # entries must be the extrapolation of the two oracle spectra at their
        # X2 spacing ratio (1.8, 1.44 and 1.909 here)
        n_half, m, extent = grid(n_per_axis, 5.0)
        n_coarse = (n_per_axis // 2) // 2
        fine = tensor_sum_oracle(P, n_half, m, extent, 6)
        coarse = tensor_sum_oracle(P, n_coarse, m, extent, 6)
        expected = richardson(coarse, fine, (n_half + 1) / (n_coarse + 1))
        report = verify_3d(P, k=6, offset=1.0, n_per_axis=n_per_axis, extent=extent)
        levels = [c.measured for c in report.checks if c.name.startswith("grid3d-level")]
        # the ground class is state 0, the N = 1 class the image quartet 2-5
        assert levels == pytest.approx(expected[[0, 2]], abs=1e-8)
        assert expected[2:6] == pytest.approx(expected[2], abs=1e-8)
        pair = solve_partner(solve_hd_3d(P, n_per_axis, extent, 6))
        assert pair.coarse.n_per_axis == n_per_axis // 2
        assert pair.ratio == (n_half + 1) / (n_coarse + 1)
        assert pair.values == pytest.approx(expected[[0, 2]], abs=1e-8)


class TestSectors:
    def test_sectors_partition_the_grid(self):
        # counted by multiplicity over the two mirror half-spaces, the sectors
        # hold every full-grid unknown once
        n_half, m, extent = grid(21, 5.0)
        sizes = [_build_operator(P.g1_squared, n_half, m, extent, sector, J)[1]
                 for sector in SECTORS]
        n_dvr = 2 * m + 1
        full = n_dvr * 2 * n_half * n_dvr
        assert sum(n * k for n, k in zip(sizes, SECTORS.values())) == full
        assert max(sizes) < 0.26 * full / 2

    @pytest.mark.parametrize("g1_squared", [3.0, 100.0])
    def test_sector_operators_match_the_projected_stencil(self, g1_squared):
        # each sector's operator is B^T S B: S the operator of the whole
        # half-space box, the unfolded DVR on X1 and X3 and the 3-point
        # stencil on X2, assembled densely here from raw arrays, B the
        # sector's orthonormal D4 basis in its unknown order (plane states in
        # row-major order, i >= j for a mirror pair, then the X2 nodes)
        n_half, m, extent = grid(8, 3.0)
        n_dvr, n2 = 2 * m + 1, n_half
        h, h_dvr = extent / (n_half + 1), extent / (m + 1)
        x = h_dvr * np.arange(-m, m + 1)
        x2 = h * np.arange(1, n_half + 1)
        stencil = (np.diag(np.full(n2, 1.0 / h**2)) + np.diag(np.full(n2 - 1, -0.5 / h**2), 1)
                   + np.diag(np.full(n2 - 1, -0.5 / h**2), -1))

        j = np.arange(1, n_half + 1, dtype=float)
        b = 0.5 + np.sqrt(0.25 + g1_squared / 3.0)
        if g1_squared <= 18.0:
            barrier = 0.5 / h**2 * ((j + 1.0) ** b - 2.0 * j**b + (j - 1.0) ** b) / j**b
        else:
            barrier = g1_squared / (6.0 * x2**2)
        pot = (0.5 * (x[:, None, None] ** 2 + x2[None, :, None] ** 2 + x[None, None, :] ** 2)
               + barrier[None, :, None])
        S = np.diag(pot.ravel())
        S += np.kron(colbert_miller(m, h_dvr), np.eye(n2 * n_dvr))
        S += np.kron(np.kron(np.eye(n_dvr), stencil), np.eye(n_dvr))
        S += np.kron(np.eye(n_dvr * n2), colbert_miller(m, h_dvr))

        def axis_basis(parity):
            # columns (delta_a + parity delta_-a)/sqrt(2), delta_0 alone if even
            cols = []
            for a in range(0 if parity > 0 else 1, m + 1):
                f = np.zeros(n_dvr)
                f[m + a] += 1.0
                f[m - a] += parity
                cols.append(f / np.linalg.norm(f))
            return cols

        for sector in SECTORS:
            p1, p3, swap = sector
            f1, f3 = axis_basis(p1), axis_basis(p3)
            if swap:
                plane = [np.outer(f1[a], f1[a]) if a == c else
                         (np.outer(f1[a], f1[c]) + swap * np.outer(f1[c], f1[a])) / np.sqrt(2.0)
                         for a in range(len(f1)) for c in range(a + (swap > 0))]
            else:
                plane = [np.outer(f1[a], f3[c]) for a in range(len(f1)) for c in range(len(f3))]
            B = np.column_stack([
                (state[:, None, :] * (np.arange(n2) == t)[None, :, None]).ravel()
                for state in plane for t in range(n2)])
            assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-12
            matvec, n = _build_operator(g1_squared, n_half, m, extent, sector, J)
            A = np.column_stack([matvec(e) for e in np.eye(n)])
            assert np.max(np.abs(A - B.T @ S @ B)) <= 1e-12

    def test_sector_operators_are_symmetric(self):
        for sector in SECTORS:
            matvec, n = _build_operator(P.g1_squared, *grid(16, 5.0), sector, J)
            A = np.column_stack([matvec(e) for e in np.eye(n)])
            assert np.max(np.abs(A - A.T)) <= 1e-12


def sector_plane_states(sector, m):
    """The orthonormal (X1, X3) plane states of a sector on the unfolded DVR
    box of 2 m + 1 nodes per axis, in the sector's order (row-major, i >= j
    for a mirror pair), built from the unit vectors of the box."""
    def axis(parity):
        cols = []
        for a in range(0 if parity > 0 else 1, m + 1):
            f = np.zeros(2 * m + 1)
            f[m + a] += 1.0
            f[m - a] += parity
            cols.append(f / np.linalg.norm(f))
        return cols

    p1, p3, swap = sector
    f1, f3 = axis(p1), axis(p3)
    if swap:
        return [np.outer(f1[a], f1[a]) if a == c else
                (np.outer(f1[a], f1[c]) + swap * np.outer(f1[c], f1[a])) / np.sqrt(2.0)
                for a in range(len(f1)) for c in range(a + (swap > 0))]
    return [np.outer(f1[a], f3[c]) for a in range(len(f1)) for c in range(len(f3))]


class TestWarmStart:
    """The partner grid and dvr_change start from the vectors solved before them."""

    def test_x2_transfer_is_linear_interpolation(self):
        # a smooth function with the Dirichlet zeros at 0 and the extent: exact
        # where the nodes coincide, within h^2 / 8 max|f''| elsewhere
        extent = 5.5
        f = lambda x: np.sin(np.pi * x / extent)  # noqa: E731
        for n_from, n_to in [(21, 10), (20, 10), (40, 10), (80, 15), (10, 20)]:
            x_from = extent * np.arange(1, n_from + 1) / (n_from + 1)
            x_to = extent * np.arange(1, n_to + 1) / (n_to + 1)
            carried = f(x_from) @ _x2_transfer(n_from, n_to)
            h = extent / (n_from + 1)
            error = np.max(np.abs(carried - f(x_to)))
            assert error <= h**2 / 8 * (np.pi / extent) ** 2 + 1e-15
            if (n_from + 1) % (n_to + 1) == 0:
                assert error <= 1e-15

    @pytest.mark.parametrize("sector", list(SECTORS))
    def test_dvr_transfer_carries_a_gaussian(self, sector):
        # a Gaussian of the sector's symmetry, sampled on the 29-node DVR over
        # 7 and folded, then carried to the 25-node one, against its own
        # samples there
        g = lambda x: np.exp(-x * x / 2)  # noqa: E731
        p1, p3, swap = sector
        odd1, odd3 = (p1 < 0), (p3 < 0)

        def f(a, b):
            if swap:
                u = (a ** (2 + odd1) * g(a)) * (b**odd1 * g(b))
                return u + swap * u.T
            return a**odd1 * g(a) * b**odd3 * g(b)

        m = dvr_nodes(7.0)
        samples = []
        for nodes in (m, m - 2):
            x = 7.0 / (nodes + 1) * np.arange(-nodes, nodes + 1)
            box = f(x[:, None], x[None, :])
            samples.append(np.array([np.sum(state * box)
                                     for state in sector_plane_states(sector, nodes)]))
        carried = _dvr_transfer(samples[0][:, None], sector, m, m - 2)[:, 0]
        assert np.max(np.abs(samples[1])) > 0.5
        assert carried == pytest.approx(samples[1], abs=1e-6)

    @pytest.mark.parametrize("k", [6, 12, 14])
    @pytest.mark.parametrize("n_per_axis, extent", [(30, 4.5), (41, 5.5), (61, 7.0)])
    @pytest.mark.parametrize("g1_squared", [0.0, 3.0, 100.0, 800.0])
    def test_warm_levels_equal_the_cold_ones(self, g1_squared, n_per_axis, extent, k,
                                             monkeypatch):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        partner = solve_partner(solve_hd_3d(params, n_per_axis, extent, k)).coarse
        counts = {sector: partner.sectors.count(sector) for sector in partner.sectors}
        m = dvr_nodes(extent)
        cold = grid3d._solve(params, n_per_axis // 2, m, extent, counts)
        real, fewer = grid3d._solve, []
        monkeypatch.setattr(grid3d, "_solve",
                            lambda *args, **kwargs: fewer.append(real(*args, **kwargs))
                            or fewer[-1])
        grid3d.dvr_change(partner)
        cold_fewer = real(params, n_per_axis // 2, m - 2, extent, counts)
        for sector in counts:
            assert sector_levels(partner, sector) == pytest.approx(sector_levels(cold, sector),
                                                                   abs=1e-11)
            assert sector_levels(fewer[0], sector) == pytest.approx(
                sector_levels(cold_fewer, sector), abs=1e-11)

    def test_later_levels_of_a_sector_pair_by_rank(self):
        # at k = 14 the ground sector holds three of the six fine levels, so
        # its second and third levels pair too; each partner level is the
        # cold partner solve's level of the same sector and rank
        fine = solve_hd_3d(P, 41, 5.5, 14)
        assert fine.sectors == [(1, 1, 1), (1, -1, 0), (1, 1, 1), (-1, -1, 1), (1, 1, 1),
                                (1, 1, -1)]
        partner = solve_partner(fine).coarse
        assert (partner.n_per_axis, partner.extent, partner.dvr_nodes) == (20, 5.5, 11)
        assert partner.sectors == fine.sectors
        counts = {sector: fine.sectors.count(sector) for sector in fine.sectors}
        cold = grid3d._solve(P, 20, dvr_nodes(5.5), 5.5, counts)
        for i, sector in enumerate(fine.sectors):
            rank = fine.sectors[:i].count(sector)
            assert partner.levels[i] == pytest.approx(sector_levels(cold, sector)[rank],
                                                      abs=1e-11)

    def test_a_higher_level_start_still_finds_the_lowest(self, monkeypatch):
        # the ground sector's third level on the 61-point grid, carried to its
        # partner, is nearly orthogonal to the partner's lowest level
        m = dvr_nodes(7.0)
        fine = grid3d._solve(P, 61, m, 7.0, {GROUND_SECTOR: 3})
        starts = {GROUND_SECTOR: fine.vectors[2] @ _x2_transfer(30, 15)}
        cold = grid3d._solve(P, 30, m, 7.0, {GROUND_SECTOR: 1}).levels
        warm = grid3d._solve(P, 30, m, 7.0, {GROUND_SECTOR: 1}, starts=starts).levels
        assert warm == pytest.approx(cold, abs=1e-11)
        # without the 1e-6 blend of _start_vector the solve stops at the
        # higher level in its first cycle and takes it for the lowest
        monkeypatch.setattr(grid3d, "_start_vector", np.zeros)
        unblended = grid3d._solve(P, 30, m, 7.0, {GROUND_SECTOR: 1}, starts=starts).levels
        assert unblended[0] > cold[0] + 1.0

    def test_fine_levels_carry_their_ritz_vectors(self):
        res = solve_hd_3d(P, 41, 5.5, k=6)
        n_half, m, extent = grid(41, 5.5)
        for value, sector, vector in zip(res.eigenvalues, res.sectors, res.vectors):
            matvec, n = _build_operator(P.g1_squared, n_half, m, extent, sector, J)
            assert vector.shape == (n // n_half, n_half)
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
            # within the stopping rule's residual, 1e-8 relative
            residual = np.linalg.norm(matvec(vector.ravel()) - value * vector.ravel())
            assert residual <= 1e-8 * value


class TestLanczos:
    def test_rayleigh_decreases_across_restarts(self):
        matvec, n = _build_operator(P.g1_squared, *grid(20, 5.0), (1, 1, 1), J)
        history: list = []
        lanczos_lowest(matvec, n, k=1, krylov_dim=12, max_restarts=200,
                       tol=1e-10, history=history)
        assert len(history) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_nonconvergence_reports_residuals(self):
        matvec, n = _build_operator(P.g1_squared, *grid(24, 5.0), (1, 1, 1), J)
        with pytest.raises(ConvergenceError) as err:
            lanczos_lowest(matvec, n, k=4, krylov_dim=8, max_restarts=1, tol=1e-12)
        assert err.value.residuals is not None
        assert np.all(np.asarray(err.value.residuals) > 0)
        # the residuals print as one line of plain numbers, however many there are
        A = np.random.default_rng(5).standard_normal((300, 300))
        with pytest.raises(ConvergenceError) as many:
            lanczos_lowest(lambda v: (A + A.T) @ v, 300, k=10, max_restarts=1)
        with pytest.raises(ConvergenceError) as strong:
            solve_hd_3d(ModelParams(1.0, 800.0), 41, 7.0, 20)
        assert [len(e.value.residuals) for e in (err, many, strong)] == [4, 10, 5]
        for error in (err, many, strong):
            message = str(error.value)
            assert "\n" not in message and "np.float64" not in message

    def test_small_dense_matrix_cross_check(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 60))
        A = (A + A.T) / 2

        history: list = []
        vals, res, _ = lanczos_lowest(lambda v: A @ v, 60, k=3, krylov_dim=25,
                                   max_restarts=20, tol=1e-10, history=history)
        exact = np.sort(np.linalg.eigvalsh(A))[:3]
        assert vals == pytest.approx(exact, abs=1e-8)

    def test_many_restarts_dense_cross_check(self):
        # a small basis on a random dense matrix: many restart cycles, each
        # orthogonalized against the kept Ritz block only
        rng = np.random.default_rng(7)
        A = rng.standard_normal((300, 300))
        A = (A + A.T) / 2
        history: list = []
        vals, _, _ = lanczos_lowest(lambda v: A @ v, 300, k=4, krylov_dim=16,
                                 max_restarts=200, tol=1e-10, history=history)
        assert len(history) >= 11
        assert vals == pytest.approx(np.linalg.eigvalsh(A)[:4], abs=1e-10)

    def test_levels_converge_or_lie_above_the_bound(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((300, 300))
        A = (A + A.T) / 2
        exact = np.linalg.eigvalsh(A)[:8]
        # just below the fourth eigenvalue: the fourth level is bounded only
        # once its residual falls below the 1e-8 between them
        upper = exact[3] - 1e-8
        vals, res, _ = lanczos_lowest(lambda v: A @ v, 300, k=8, krylov_dim=20,
                                   max_restarts=200, tol=1e-10, bound=lambda ritz: upper)
        converged = res <= 1e-10 * np.maximum(1.0, np.abs(vals))
        assert np.all(converged | (vals - res > upper))
        assert np.all(converged[:3]) and not np.all(converged)
        assert vals[converged] == pytest.approx(exact[converged], abs=1e-8)
        # a Ritz value bounds its eigenvalue from above, and lies within its
        # residual of it
        assert np.all(exact <= vals + 1e-10) and np.all(exact >= vals - res - 1e-10)

    def test_infinite_bound_changes_nothing(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((300, 300))
        A = (A + A.T) / 2
        runs = []
        for bound in (None, lambda ritz: math.inf):
            history: list = []
            vals, res, _ = lanczos_lowest(lambda v: A @ v, 300, k=4, krylov_dim=16,
                                       max_restarts=200, tol=1e-10, history=history,
                                       bound=bound)
            runs.append((vals.tobytes(), res.tobytes(), history))
        assert runs[0] == runs[1]

    def test_ritz_vectors_returned(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 60))
        A = (A + A.T) / 2
        vals, res, vectors = lanczos_lowest(lambda v: A @ v, 60, k=3, krylov_dim=25, tol=1e-10)
        assert vectors.shape == (3, 60)
        assert vectors @ vectors.T == pytest.approx(np.eye(3), abs=1e-12)
        for value, r, v in zip(vals, res, vectors):
            assert np.linalg.norm(A @ v - value * v) <= r + 1e-12

    def test_cold_start_keeps_its_bits(self):
        # values, residuals and history of two cold solves, pinned by SHA-256:
        # with no start the solve runs as it did before it took one
        rng = np.random.default_rng(7)
        A = rng.standard_normal((300, 300))
        A = (A + A.T) / 2
        matvec, n = _build_operator(3.0, 10, 11, 5.5, GROUND_SECTOR, J)
        cases = [((lambda v: A @ v), 300, 4, dict(krylov_dim=16, max_restarts=200, tol=1e-10),
                  "771c86c2297bdbc30484822a58fb02e3f5e599b15f1ad39d008cf0eb89374369"),
                 (matvec, n, 2, {},
                  "daa43d7f27e85f752b10cc126e902b623fbf78d7f49801f50eae8df594a1cae6")]
        for op, size, k, kwargs, sha256 in cases:
            runs = []
            for start in ({}, {"start": None}):
                history: list = []
                vals, res, _ = lanczos_lowest(op, size, k, history=history, **kwargs, **start)
                runs.append(np.concatenate([vals, res, history]).tobytes())
            assert runs[0] == runs[1]
            assert hashlib.sha256(runs[0]).hexdigest() == sha256

    def test_signature(self):
        # the names a caller binds by, keyword or position
        assert list(inspect.signature(lanczos_lowest).parameters) == [
            "matvec", "n", "k", "krylov_dim", "max_restarts", "tol", "history", "bound",
            "start"]

    def test_repeated_eigenvalues_without_ghosts(self):
        # a random rotation of the spectrum of a 3D Laplacian: 512 levels over
        # a factor 32, exactly repeated (the second and third levels three
        # times); a basis that lost orthogonality would return ghost copies of
        # the converged ground level
        e1 = 100.0 * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, 9) / 9))
        triples = np.sort(np.indices((8, 8, 8)).reshape(3, -1), axis=0)
        levels = e1[triples[0]] + e1[triples[1]] + e1[triples[2]]
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((512, 512)))
        A = (Q * levels) @ Q.T
        A = (A + A.T) / 2
        vals, _, _ = lanczos_lowest(lambda v: A @ v, 512, k=8, tol=1e-10)
        assert vals == pytest.approx(np.linalg.eigvalsh(A)[:8], abs=1e-10)

    def test_invariant_subspace_refill(self):
        # the start vector spans only four eigenvectors of this diagonal
        # operator; each refill starts a new Krylov block, which T must not
        # link to the exhausted one
        d = np.repeat([1.0, 2.0, 3.0, 5.0], 50)
        vals, res, _ = lanczos_lowest(lambda v: d * v, d.size, k=3, krylov_dim=12)
        assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)
        assert np.all(res <= 1e-10)
