"""Grids, stencils, tridiagonal eigensolves, and the five channel oracles."""

import math

import numpy as np
import pytest

from wolfes4 import (
    ChannelKind,
    ChannelSpec,
    Grid1D,
    GridDomainError,
    ModelParams,
    TridiagonalMatrix,
    delta_constant,
    discretize,
    eigen_tridiag,
    expectation,
    hf_derivative_closed_form,
    recommended_grid,
    richardson,
    sho_energy_resolved,
    solve_channel,
    solve_channel_extrapolated,
)
from wolfes4.numsolve import inverse_square_diag

P = ModelParams(omega=1.0, g1_squared=3.0)


class TestGrid1D:
    def test_geometry(self):
        g = Grid1D(0.0, 1.0, 4)
        assert g.spacing == pytest.approx(0.2)
        assert g.nodes() == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_refined_halves_spacing(self):
        g = Grid1D(-2.0, 3.0, 100)
        r = g.refined()
        assert (r.lower, r.upper) == (g.lower, g.upper)
        assert r.spacing == pytest.approx(g.spacing / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)


class TestDiscretize:
    def test_free_stencil(self):
        g = Grid1D(0.0, 1.0, 3)
        h = g.spacing
        T = discretize(lambda x: np.zeros_like(x), g)
        assert T.diag == pytest.approx([1 / h**2] * 3)
        assert T.offdiag == pytest.approx([-1 / (2 * h**2)] * 2)

    def test_unit_kinetic_prefactor(self):
        g = Grid1D(0.0, 1.0, 3)
        h = g.spacing
        T = discretize(lambda x: np.zeros_like(x), g, kinetic_prefactor=1.0)
        assert T.diag == pytest.approx([2 / h**2] * 3)
        assert T.offdiag == pytest.approx([-1 / h**2] * 2)

    def test_symmetric_potential_gives_symmetric_diagonal(self):
        g = Grid1D(-1.0, 1.0, 11)
        T = discretize(lambda x: 0.5 * x**2, g)
        assert T.diag == pytest.approx(T.diag[::-1])

    def test_pole_at_node_rejected(self):
        g = Grid1D(0.0, 1.0, 3)

        def bad(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - g.nodes()[1])

        with pytest.raises(ValueError, match="not finite"):
            discretize(bad, g)

    def test_offdiag_length_invariant(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix(diag=np.zeros(4), offdiag=np.zeros(4))


class TestEigenTridiag:
    def test_two_by_two(self):
        T = TridiagonalMatrix(diag=np.array([3.0, 3.0]), offdiag=np.array([-2.0]))
        res = eigen_tridiag(T, 2)
        assert res.eigenvalues == pytest.approx([1.0, 5.0])

    def test_three_by_three(self):
        T = TridiagonalMatrix(diag=np.zeros(3), offdiag=np.ones(2))
        res = eigen_tridiag(T, 3)
        assert res.eigenvalues == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)],
                                                abs=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal(50)
        e = rng.standard_normal(49)
        T = TridiagonalMatrix(diag=d, offdiag=e)
        res = eigen_tridiag(T, 50)
        assert np.sum(res.eigenvalues) == pytest.approx(np.sum(d), rel=1e-9)

    def test_k_out_of_range(self):
        T = TridiagonalMatrix(diag=np.zeros(3), offdiag=np.ones(2))
        with pytest.raises(ValueError):
            eigen_tridiag(T, 4)
        with pytest.raises(ValueError):
            eigen_tridiag(T, 0)

    def test_vectors_residuals_and_orthogonality(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(80)
        e = rng.standard_normal(79)
        T = TridiagonalMatrix(diag=d, offdiag=e)
        res = eigen_tridiag(T, 6, want_vectors=True)
        for lam, v in zip(res.eigenvalues, res.eigenvectors):
            assert np.linalg.norm(T.matvec(v) - lam * v) <= res.residual_bound + 1e-14
        gram = res.eigenvectors @ res.eigenvectors.T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-8

    def test_deterministic(self):
        T = TridiagonalMatrix(diag=np.arange(20.0), offdiag=-np.ones(19))
        a = eigen_tridiag(T, 5, want_vectors=True)
        b = eigen_tridiag(T, 5, want_vectors=True)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestChannels:
    def test_ho_lowest_four(self):
        grid = recommended_grid(ChannelKind.HO, P, 2000)
        res = solve_channel(ChannelSpec(ChannelKind.HO), P, grid, 4)
        assert res.eigenvalues == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=5e-4)

    def test_ho_oracle_after_richardson(self):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.HO), P, 2001, 8)
        assert e == pytest.approx(np.arange(8) + 0.5, abs=1e-6)

    def test_azimuthal_zero_coupling(self):
        grid = recommended_grid(ChannelKind.ANGULAR_PHI, P, 2000)
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        res = solve_channel(ChannelSpec(ChannelKind.ANGULAR_PHI, 0.0), p0, grid, 3)
        assert res.eigenvalues == pytest.approx([1.0, 4.0, 9.0], abs=1e-3)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_PHI, 0.0),
                                       p0, 2001, 5)
        assert e == pytest.approx((np.arange(5) + 1.0) ** 2, abs=1e-5)

    def test_polar_legendre_probe(self):
        # f^2 = 0 probe: pure Legendre eigenvalues l(l+1)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_THETA, 0.0),
                                       P, 2001, 5)
        l = np.arange(5)
        assert e == pytest.approx(l * (l + 1), abs=1e-5)

    @pytest.mark.parametrize("k2,l", [(0.0, 0), (2.0, 1), (6.0, 2)])
    def test_radial_isotropic_oscillator(self, k2, l):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.RADIAL, k2), P, 2001, 3)
        assert e == pytest.approx(2 * np.arange(3) + l + 1.5, abs=1e-5)

    def test_radial_k2_2_lowest_two(self):
        grid = recommended_grid(ChannelKind.RADIAL, P, 2000)
        res = solve_channel(ChannelSpec(ChannelKind.RADIAL, 2.0), P, grid, 2)
        assert res.eigenvalues == pytest.approx([2.5, 4.5], abs=1e-4)

    def test_sho_matches_resolved_formula(self):
        for g in (0.0, 1.0, 3.0, 7.5):
            p = ModelParams(omega=1.0, g1_squared=g)
            e = solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), p, 2001, 4)
            ref = [sho_energy_resolved(n, p, 1.0) for n in range(4)]
            assert e == pytest.approx(ref, abs=1e-6)

    def test_polar_matches_index_law(self):
        # eigenvalues (f + l)(f + l + 1) for coupling f^2
        f = 0.5 + delta_constant(P)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_THETA, f * f),
                                       P, 2001, 4)
        l = np.arange(4)
        assert e == pytest.approx((f + l) * (f + l + 1), abs=1e-5)

    def test_strictly_ascending(self):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), P, 1001, 6)
        assert np.all(np.diff(e) > 0)

    def test_domain_mismatch_raises(self):
        sym = Grid1D(-5.0, 5.0, 100)
        half = Grid1D(0.0, 5.0, 100)
        angular = Grid1D(0.0, math.pi, 100)
        with pytest.raises(GridDomainError):
            solve_channel(ChannelSpec(ChannelKind.HO), P, half, 2)
        with pytest.raises(GridDomainError):
            solve_channel(ChannelSpec(ChannelKind.SHO), P, sym, 2)
        with pytest.raises(GridDomainError):
            solve_channel(ChannelSpec(ChannelKind.RADIAL, 2.0), P, sym, 2)
        with pytest.raises(GridDomainError):
            solve_channel(ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0), P, half, 2)
        with pytest.raises(GridDomainError):
            solve_channel(ChannelSpec(ChannelKind.ANGULAR_THETA, 1.0), P, sym, 2)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(ChannelKind.RADIAL, -1.0)

    def test_monotone_refinement(self):
        # Dirichlet truncation approaches the limit from below as h shrinks
        spec = ChannelSpec(ChannelKind.SHO)
        grids = [recommended_grid(ChannelKind.SHO, P, 500)]
        grids.append(grids[0].refined())
        grids.append(grids[1].refined())
        vals = [solve_channel(spec, P, g, 1).eigenvalues[0] for g in grids]
        assert vals[0] < vals[1] < vals[2] < sho_energy_resolved(0, P, 1.0)


class TestRichardson:
    def test_arithmetic(self):
        assert richardson(0.51, 0.5025) == pytest.approx(0.5)

    def test_fixed_point(self):
        assert richardson(1.234, 1.234) == pytest.approx(1.234)

    def test_order_lift_on_three_grids(self):
        # extrapolant error drops O(h^2) -> O(h^4): refining the pair once
        # more shrinks the residual by roughly 16
        spec = ChannelSpec(ChannelKind.HO)
        g0 = recommended_grid(ChannelKind.HO, P, 250)
        g1, g2 = g0.refined(), g0.refined().refined()
        e0, e1, e2 = (solve_channel(spec, P, g, 1).eigenvalues[0]
                      for g in (g0, g1, g2))
        exact = 0.5
        r01 = richardson(e0, e1) - exact
        r12 = richardson(e1, e2) - exact
        assert abs(r01 / r12) == pytest.approx(16.0, rel=0.5)


@pytest.fixture(scope="module")
def sho_ground():
    grid = recommended_grid(ChannelKind.SHO, P, 2001)
    res = solve_channel(ChannelSpec(ChannelKind.SHO), P, grid, 1,
                        want_vectors=True)
    return res.eigenvectors[0], grid


class TestExpectation:

    def test_normalization(self, sho_ground):
        v, grid = sho_ground
        assert expectation(v, lambda x: np.ones_like(x), grid) == pytest.approx(1.0)

    def test_parity_null(self):
        grid = recommended_grid(ChannelKind.HO, P, 2001)
        res = solve_channel(ChannelSpec(ChannelKind.HO), P, grid, 1, want_vectors=True)
        assert abs(expectation(res.eigenvectors[0], lambda x: x, grid)) <= 1e-10

    def test_barrier_expectation_matches_derivative(self, sho_ground):
        v, grid = sho_ground
        got = expectation(v, lambda x: 1.0 / (6.0 * x**2), grid)
        assert got == pytest.approx(hf_derivative_closed_form(0, P), abs=1e-5)

    def test_nonfinite_observable_rejected(self, sho_ground):
        v, grid = sho_ground
        with pytest.raises(ValueError, match="not finite"):
            expectation(v, lambda x: np.where(x > 1, np.inf, 1.0), grid)


class TestInverseSquareDiag:
    """One policy for every coupling/x^2 term: the exact-local-power diagonal
    up to the endpoint power b = 3, where b(b-1) = coupling/kappa, sampled above."""

    J = np.arange(1, 40, dtype=float)
    H = 0.1

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_continuous_where_sampling_takes_over(self, kappa):
        at, above = (inverse_square_diag(self.J, c, kappa, self.H)
                     for c in (6.0 * kappa, 6.0 * kappa * (1 + 1e-12)))
        assert np.max(np.abs(above - at) / at) <= 1e-9

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_switch_sits_at_b_3(self, kappa):
        def diag(b):
            return inverse_square_diag(self.J, b * (b - 1.0) * kappa, kappa, self.H)

        def sampled(b):
            return b * (b - 1.0) * kappa / (self.J * self.H) ** 2

        # below b = 3 the power step differs from sampling near the pole
        assert abs(diag(2.5)[0] / sampled(2.5)[0] - 1.0) > 0.02
        assert np.array_equal(diag(3.5), sampled(3.5))


class TestConvergenceOrder:
    """Error must shrink by ~4x per spacing halving on every channel."""

    CASES = [
        (ChannelSpec(ChannelKind.HO), 2, 2.5),
        (ChannelSpec(ChannelKind.SHO), 1, None),           # omega*(2n+1+delta)
        (ChannelSpec(ChannelKind.RADIAL, 2.0), 1, 4.5),    # omega*(2n+l+3/2), l=1
        (ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0), 1, None),
        (ChannelSpec(ChannelKind.ANGULAR_THETA, 2.0), 1, None),
        # b > 3, where the barrier is sampled
        (ChannelSpec(ChannelKind.RADIAL, 12.0), 1, 6.5),   # l = 3
        (ChannelSpec(ChannelKind.ANGULAR_THETA, 12.25), 1, None),
    ]

    @pytest.mark.parametrize("spec,level,exact", CASES)
    def test_second_order(self, spec, level, exact):
        if exact is None:
            if spec.kind is ChannelKind.SHO:
                exact = sho_energy_resolved(level, P, 1.0)
            elif spec.kind is ChannelKind.ANGULAR_PHI:
                nu = 0.5 + math.sqrt(0.25 + spec.coefficient)
                exact = (nu + level) ** 2
            else:
                f = math.sqrt(spec.coefficient)
                exact = (f + level) * (f + level + 1)
        self.assert_second_order(spec, P, level, exact)

    def test_second_order_past_the_power_step(self):
        # b = 32.1, where the power step would give ratios 12.1 and 0.14.
        # A row of CASES cannot carry it: they all solve at P.
        strong = ModelParams(omega=1.0, g1_squared=3000.0)
        self.assert_second_order(ChannelSpec(ChannelKind.SHO), strong, 1,
                                 sho_energy_resolved(1, strong, 1.0))

    @staticmethod
    def assert_second_order(spec, params, level, exact):
        g0 = recommended_grid(spec.kind, params, 800)
        g1, g2 = g0.refined(), g0.refined().refined()
        e0, e1, e2 = (solve_channel(spec, params, g, level + 1).eigenvalues[level]
                      for g in (g0, g1, g2))
        ratio1 = (e0 - exact) / (e1 - exact)
        ratio2 = (e1 - exact) / (e2 - exact)
        assert 3.5 <= ratio1 <= 4.5
        assert 3.5 <= ratio2 <= 4.5
