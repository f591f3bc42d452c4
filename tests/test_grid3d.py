"""3D grid solver: layout, Lanczos behavior, and the tensor-sum oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wolfes4 import (
    AxisLayout,
    ConvergenceError,
    ModelParams,
    lanczos_lowest,
    solve_hd_3d,
)
from wolfes4 import grid3d
from wolfes4.grid3d import MAX_G1_SQUARED, SECTORS, _build_operator

P = ModelParams(omega=1.0, g1_squared=3.0)


def tensor_sum_oracle(params, layout, k):
    """The discrete operator is an exact Kronecker sum of 1D stencils, so its
    spectrum is the set of sums of 1D eigenvalues; the X2 axis is the
    half-line j*h, j >= 1, with the barrier as the exact-local-power diagonal
    that annihilates x^b up to g1^2 = 18 (b = 3) and sampled above, and each
    sum counts twice (X2 < 0 mirrors X2 > 0).  Assembled here from raw
    arrays; shares nothing with the Lanczos path."""
    h = layout.h_sym
    half = (layout.n_sym - 1) // 2
    j = np.arange(1, half + 1, dtype=float)
    b = 0.5 + np.sqrt(0.25 + params.g1_squared / 3.0)
    if params.g1_squared <= 18.0:
        barrier = 0.5 / h**2 * ((j + 1.0) ** b - 2.0 * j**b + (j - 1.0) ** b) / j**b
    else:
        barrier = params.g1_squared / (6.0 * (h * j) ** 2)

    def axis_eigs(x, extra):
        diag = 1.0 / h**2 + 0.5 * params.omega**2 * x**2 + extra
        off = np.full(len(x) - 1, -0.5 / h**2)
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, min(k, len(x) - 1)))

    e_sym = axis_eigs(h * np.arange(-half, half + 1), 0.0)
    e_half = axis_eigs(h * j, barrier)
    sums = (e_sym[:, None, None] + e_half[None, :, None] + e_sym[None, None, :])
    return np.sort(np.repeat(sums.ravel(), 2))[:k]


class TestAxisLayout:
    def test_counts_and_parity(self):
        lay = AxisLayout.for_resolution(61, 7.0)
        assert lay.n_sym == 61 and lay.h_sym == pytest.approx(14.0 / 62)
        lay = AxisLayout.for_resolution(60, 7.0)
        assert lay.n_sym == 61 and lay.h_sym == pytest.approx(14.0 / 62)

    def test_sym_axis_contains_origin(self):
        lay = AxisLayout.for_resolution(21, 5.0)
        x = lay.nodes_sym()
        assert np.min(np.abs(x)) == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(x, -x[::-1])

    def test_x2_axis_is_the_positive_half_space(self):
        # X2 keeps the nodes j*h, j >= 1, behind a Dirichlet plane at X2 = 0:
        # at g1^2 = 0 the operator's diagonal along X2 at X1 = 0, X3 = h
        # (sector X1 even, X3 odd) reads 3/h^2 + (x2^2 + h^2)/2
        lay = AxisLayout.for_resolution(21, 5.0)
        h = lay.h_sym
        matvec, n = _build_operator(ModelParams(1.0, 0.0), lay, (1, -1, 0))
        shape = (11, 10, 10)
        assert n == np.prod(shape)
        diag = []
        for jj in range(shape[1]):
            e = np.zeros(n)
            e[np.ravel_multi_index((0, jj, 0), shape)] = 1.0
            diag.append(matvec(e) @ e)
        x2 = np.sqrt(2.0 * (np.array(diag) - 3.0 / h**2) - h**2)
        assert x2 == pytest.approx(h * np.arange(1, 11), abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            AxisLayout.for_resolution(15, 5.0)
        with pytest.raises(ValueError):
            AxisLayout.for_resolution(30, -1.0)


class TestSolver:
    def test_matches_tensor_sum_oracle(self):
        lay = AxisLayout.for_resolution(16, 5.0)
        res = solve_hd_3d(P, 16, 5.0, k=5, tol=1e-9)
        oracle = tensor_sum_oracle(P, lay, 5)
        assert res.eigenvalues == pytest.approx(oracle, abs=1e-8)

    def test_mirror_pair_structure(self):
        res = solve_hd_3d(P, 24, 5.0, k=4, tol=1e-8)
        e = res.eigenvalues
        # each level comes twice, once per mirror half-space
        assert e[1] - e[0] < 0.05 * (e[2] - e[0])

    # at g1^2 = 0.3 (b = 1.09) naive sampling of the barrier converged at
    # order 2b - 1 = 1.2 (ratio 2.3)
    @pytest.mark.parametrize("g1_squared", [0.3, 3.0])
    def test_second_order_convergence(self, g1_squared):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        exact = 2.0 + np.sqrt(0.25 + g1_squared / 3.0)
        coarse = solve_hd_3d(params, 21, 5.0, k=1, tol=1e-9).eigenvalues[0]
        fine = solve_hd_3d(params, 43, 5.0, k=1, tol=1e-9).eigenvalues[0]
        ratio = (coarse - exact) / (fine - exact)
        assert 3.3 <= ratio <= 4.7

    def test_deterministic(self):
        a = solve_hd_3d(P, 18, 5.0, k=3, tol=1e-9)
        b = solve_hd_3d(P, 18, 5.0, k=3, tol=1e-9)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_residual_bound_reported(self):
        res = solve_hd_3d(P, 18, 5.0, k=3, tol=1e-9)
        assert 0.0 <= res.residual_bound <= 1e-8

    def test_omega_scaling_exact_on_grid(self):
        # scaling the box with 1/sqrt(omega) makes the operator an exact
        # multiple, so the spectra double to rounding
        e1 = solve_hd_3d(ModelParams(1.0, 3.0), 18, 5.0, k=3, tol=1e-10).eigenvalues
        e2 = solve_hd_3d(ModelParams(2.0, 3.0), 18, 5.0 / np.sqrt(2.0), k=3,
                         tol=1e-10).eigenvalues
        assert e2 == pytest.approx(2.0 * e1, rel=1e-7)

    @pytest.mark.parametrize("g1_squared", [0.3, 1.0, 3.0, 300.0])
    def test_degenerate_partners_not_missed(self, g1_squared):
        # levels 2-5 are two exactly degenerate X1 <-> X3 image pairs
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 41, 5.5, k=6)
        oracle = tensor_sum_oracle(params, AxisLayout.for_resolution(41, 5.5), 6)
        assert res.eigenvalues == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("g1_squared", [0.3, 3.0])
    def test_sectors_topped_up_to_the_lowest_k(self, g1_squared, monkeypatch):
        asked = []

        def recording(matvec, n, k, **kwargs):
            asked.append(k)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, 20, 5.0, k=12)
        oracle = tensor_sum_oracle(params, AxisLayout.for_resolution(20, 5.0), 12)
        assert res.eigenvalues == pytest.approx(oracle, abs=1e-10)
        assert len(asked) > len(SECTORS)  # some sector was asked for more

    @settings(max_examples=10, deadline=None)
    @given(g1_squared=st.floats(0.0, 40.0), n_per_axis=st.integers(16, 22))
    def test_matches_tensor_sum_oracle_anywhere(self, g1_squared, n_per_axis):
        params = ModelParams(omega=1.0, g1_squared=g1_squared)
        res = solve_hd_3d(params, n_per_axis, 5.0, k=6)
        oracle = tensor_sum_oracle(params, AxisLayout.for_resolution(n_per_axis, 5.0), 6)
        assert res.eigenvalues == pytest.approx(oracle, abs=1e-10)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            solve_hd_3d(P, 16, 5.0, k=0)

    def test_coupling_beyond_the_grid_rejected(self):
        solve_hd_3d(ModelParams(1.0, MAX_G1_SQUARED), 16, 5.0, k=1)
        with pytest.raises(ValueError, match="g1\\^2 must be at most"):
            solve_hd_3d(ModelParams(1.0, 1e300), 16, 5.0, k=1)


class TestSectors:
    def test_sectors_partition_the_grid(self):
        lay = AxisLayout.for_resolution(21, 5.0)
        sizes = [_build_operator(P, lay, sector)[1] for sector in SECTORS]
        assert sum(sizes) == lay.n_sym * (lay.n_sym - 1) // 2 * lay.n_sym
        assert max(sizes) < 0.26 * sum(sizes)

    def test_sector_operators_are_symmetric(self):
        lay = AxisLayout.for_resolution(16, 5.0)
        for sector in SECTORS:
            matvec, n = _build_operator(P, lay, sector)
            A = np.column_stack([matvec(e) for e in np.eye(n)])
            assert np.max(np.abs(A - A.T)) <= 1e-12


class TestLanczos:
    def test_rayleigh_decreases_across_restarts(self):
        matvec, n = _build_operator(P, AxisLayout.for_resolution(20, 5.0))
        history: list = []
        lanczos_lowest(matvec, n, k=1, krylov_dim=12, max_restarts=200,
                       tol=1e-10, history=history)
        assert len(history) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_nonconvergence_reports_residuals(self):
        matvec, n = _build_operator(P, AxisLayout.for_resolution(24, 5.0))
        with pytest.raises(ConvergenceError) as err:
            lanczos_lowest(matvec, n, k=4, krylov_dim=8, max_restarts=1, tol=1e-12)
        assert err.value.residuals is not None
        assert np.all(np.asarray(err.value.residuals) > 0)

    def test_small_dense_matrix_cross_check(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 60))
        A = (A + A.T) / 2

        history: list = []
        vals, res = lanczos_lowest(lambda v: A @ v, 60, k=3, krylov_dim=25,
                                   max_restarts=20, tol=1e-10, history=history)
        exact = np.sort(np.linalg.eigvalsh(A))[:3]
        assert vals == pytest.approx(exact, abs=1e-8)
