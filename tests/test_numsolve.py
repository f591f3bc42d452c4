"""Grids, stencils, tridiagonal eigensolves, and the five channel oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wolfes4 import numsolve
from wolfes4.model import (
    ModelParams,
    delta_constant,
    hf_derivative_closed_form,
    sho_energy_resolved,
)
from wolfes4.numsolve import (
    ChannelKind,
    ChannelSpec,
    Grid1D,
    TridiagonalMatrix,
    channel_tridiag,
    eigen_tridiag,
    expectation,
    inverse_square_diag,
    recommended_grid,
    richardson,
    solve_channel,
    solve_channel_extrapolated,
)

P = ModelParams(omega=1.0, g1_squared=3.0)


class TestGrid1D:
    def test_geometry(self):
        g = Grid1D(0.0, 1.0, 4)
        assert g.spacing == pytest.approx(0.2)
        assert g.nodes() == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_doubled_count_halves_spacing(self):
        # the pair n, 2n + 1 of every Richardson extrapolation: same box, h / 2
        for kind in ChannelKind:
            for n in (100, 2001):
                g, r = (recommended_grid(kind, m) for m in (n, 2 * n + 1))
                assert (r.lower, r.upper) == (g.lower, g.upper)
                assert r.spacing == g.spacing / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError, match="^need at least 3 interior nodes, got 2$"):
            Grid1D(0.0, 1.0, 2)


def power_step(j, b):
    return ((j + 1.0) ** b - 2.0 * j**b + (j - 1.0) ** b) / j**b


class TestChannelTridiag:
    """The 3-point stencil of each family, against arrays built by hand at n = 5."""

    def test_oscillator_stencil(self):
        # -u''/2 + x^2 / 2 + g1^2 / (6 x^2) on (0, 14), in oscillator lengths and
        # units of omega, so the matrix is the same at every omega; at g1^2 = 3
        # the endpoint power b(b - 1) = 1 keeps the exact-local-power diagonal
        grid = recommended_grid(ChannelKind.SHO, 5)
        T = channel_tridiag(ChannelSpec(ChannelKind.SHO), P, grid)
        h = 14.0 / 6
        j = np.arange(1.0, 6.0)
        b = 0.5 + math.sqrt(1.25)
        expected = 1 / h**2 + 0.5 * (j * h) ** 2 + 0.5 / h**2 * power_step(j, b)
        assert T.diag == pytest.approx(expected, rel=1e-12)
        assert T.offdiag == pytest.approx([-0.5 / h**2] * 4, rel=1e-15)
        other = channel_tridiag(ChannelSpec(ChannelKind.SHO), ModelParams(2.5, 3.0), grid)
        assert np.array_equal(other.diag, T.diag)
        assert np.array_equal(other.offdiag, T.offdiag)

    def test_angular_stencil(self):
        # -u'' + c / sin^2(x) on (0, pi): the smooth remainder sampled, both
        # poles by the exact-local-power diagonal, b(b - 1) = c = 1
        grid = recommended_grid(ChannelKind.ANGULAR_PHI, 5)
        T = channel_tridiag(ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0), P, grid)
        h = math.pi / 6
        j = np.arange(1.0, 6.0)
        x = j * h
        b = 0.5 + math.sqrt(1.25)
        expected = (2 / h**2 + 1 / np.sin(x) ** 2 - 1 / x**2 - 1 / (math.pi - x) ** 2
                    + (power_step(j, b) + power_step(6.0 - j, b)) / h**2)
        assert T.diag == pytest.approx(expected, rel=1e-12)
        assert T.offdiag == pytest.approx([-1 / h**2] * 4, rel=1e-15)
        # the polar channel takes f^2 and solves with c = f^2 - 1/4
        theta = channel_tridiag(ChannelSpec(ChannelKind.ANGULAR_THETA, 1.25), P, grid)
        assert np.array_equal(theta.diag, T.diag)
        assert np.array_equal(theta.offdiag, T.offdiag)

    def test_symmetric_potential_gives_symmetric_diagonal(self):
        grid = recommended_grid(ChannelKind.HO, 11)
        T = channel_tridiag(ChannelSpec(ChannelKind.HO), P, grid)
        assert T.diag == pytest.approx(T.diag[::-1])

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
        res = solve_channel(ChannelSpec(ChannelKind.HO), P, 2000, 4)
        assert res.eigenvalues == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=5e-4)

    def test_ho_oracle_after_richardson(self):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.HO), P, 2001, 8).values
        assert e == pytest.approx(np.arange(8) + 0.5, abs=1e-6)

    def test_azimuthal_zero_coupling(self):
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        res = solve_channel(ChannelSpec(ChannelKind.ANGULAR_PHI, 0.0), p0, 2000, 3)
        assert res.eigenvalues == pytest.approx([1.0, 4.0, 9.0], abs=1e-3)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_PHI, 0.0),
                                       p0, 2001, 5).values
        assert e == pytest.approx((np.arange(5) + 1.0) ** 2, abs=1e-5)

    def test_polar_legendre_probe(self):
        # f^2 = 0 probe: pure Legendre eigenvalues l(l+1)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_THETA, 0.0),
                                       P, 2001, 5).values
        l = np.arange(5)
        assert e == pytest.approx(l * (l + 1), abs=1e-5)

    @pytest.mark.parametrize("k2,l", [(0.0, 0), (2.0, 1), (6.0, 2)])
    def test_radial_isotropic_oscillator(self, k2, l):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.RADIAL, k2), P, 2001, 3).values
        assert e == pytest.approx(2 * np.arange(3) + l + 1.5, abs=1e-5)

    def test_radial_k2_2_lowest_two(self):
        res = solve_channel(ChannelSpec(ChannelKind.RADIAL, 2.0), P, 2000, 2)
        assert res.eigenvalues == pytest.approx([2.5, 4.5], abs=1e-4)

    def test_sho_matches_resolved_formula(self):
        for g in (0.0, 1.0, 3.0, 7.5):
            p = ModelParams(omega=1.0, g1_squared=g)
            e = solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), p, 2001, 4).values
            ref = [sho_energy_resolved(n, p, 1.0) for n in range(4)]
            assert e == pytest.approx(ref, abs=1e-6)

    def test_polar_matches_index_law(self):
        # eigenvalues (f + l)(f + l + 1) for coupling f^2
        f = 0.5 + delta_constant(P)
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_THETA, f * f),
                                       P, 2001, 4).values
        l = np.arange(4)
        assert e == pytest.approx((f + l) * (f + l + 1), abs=1e-5)

    def test_strictly_ascending(self):
        e = solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), P, 1001, 6).values
        assert np.all(np.diff(e) > 0)

    def test_kind_fixes_domain(self):
        # (-L, L) for HO, (0, L) on the half line, (0, pi) for the angles
        grids = {kind: recommended_grid(kind, 100) for kind in ChannelKind}
        ho = grids[ChannelKind.HO]
        assert ho.lower == -ho.upper and ho.upper > 0
        for kind in (ChannelKind.SHO, ChannelKind.RADIAL):
            assert grids[kind].lower == 0.0 and grids[kind].upper > 0
        for kind in (ChannelKind.ANGULAR_PHI, ChannelKind.ANGULAR_THETA):
            assert (grids[kind].lower, grids[kind].upper) == (0.0, math.pi)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(ChannelKind.RADIAL, -1.0)

    @pytest.mark.parametrize("spec", [ChannelSpec(ChannelKind.SHO),
                                      ChannelSpec(ChannelKind.ANGULAR_THETA, 1.25),
                                      ChannelSpec(ChannelKind.HO),
                                      ChannelSpec(ChannelKind.RADIAL, 2.0),
                                      ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0)],
                             ids=lambda spec: spec.kind.value)
    def test_vectors_leave_the_eigenvalues_unchanged(self, spec):
        # hf-check takes its levels from value-only pairs and its expectation
        # from vector grids of the same ladder; both must be the same
        # eigenvalues, on the same boxes (HO's grows at k = 40)
        values = solve_channel(spec, P, 2001, 4).eigenvalues
        with_vectors = solve_channel(spec, P, 2001, 4, want_vectors=True).eigenvalues
        assert np.array_equal(values, with_vectors)
        for k in (4, 40) if spec.kind is ChannelKind.HO else (4,):
            pair = solve_channel_extrapolated(spec, P, 2001, k)
            vector_grids = numsolve.solve_grids(spec, P, (2001, 4003), k, want_vectors=True)
            for res, vector_res in zip((pair.coarse, pair.fine), vector_grids, strict=True):
                assert res.grid == vector_res.grid
                assert np.array_equal(res.eigenvalues, vector_res.eigenvalues)
                assert vector_res.eigenvectors.shape == (k, vector_res.grid.n_points)

    def test_result_carries_its_grid(self):
        for kind in ChannelKind:
            spec = ChannelSpec(kind, 1.0)
            assert solve_channel(spec, P, 101, 1).grid == recommended_grid(kind, 101)

    def test_monotone_refinement(self):
        # Dirichlet truncation approaches the limit from below as h shrinks
        spec = ChannelSpec(ChannelKind.SHO)
        vals = [solve_channel(spec, P, n, 1).eigenvalues[0] for n in (500, 1001, 2003)]
        assert vals[0] < vals[1] < vals[2] < sho_energy_resolved(0, P, 1.0)


OMEGA_SPECS = [ChannelSpec(ChannelKind.HO), ChannelSpec(ChannelKind.SHO),
               ChannelSpec(ChannelKind.RADIAL, 2.0), ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0),
               ChannelSpec(ChannelKind.ANGULAR_THETA, 1.25)]


class TestOmegaScaling:
    """Every channel is solved at omega = 1, in oscillator lengths 1/sqrt(omega)."""

    # log10 omega over the range ModelParams admits, omega^2 finite and normal:
    # from 1.49e-154 to 1.34e154, its ends among the examples
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(st.floats(min_value=-153.8, max_value=154.1))
    @example(math.log10(1.5e-154))
    @example(math.log10(1.3e154))
    def test_levels_are_omega_times_the_unit_levels(self, log_omega):
        p = ModelParams(omega=10.0**log_omega, g1_squared=3.0)
        for spec in OMEGA_SPECS:
            unit = solve_channel(spec, P, 101, 4, want_vectors=True)
            res = solve_channel(spec, p, 101, 4, want_vectors=True)
            scale = p.omega if spec.kind in numsolve.OSCILLATOR_KINDS else 1.0
            assert np.array_equal(res.eigenvalues, scale * unit.eigenvalues)
            assert np.array_equal(res.eigenvectors, unit.eigenvectors)
            assert res.grid == unit.grid
        # the ladders of the box fit: shrunk to the levels, and grown for HO's top 40
        ladders = [(s, (124, 249), 3) for s in OMEGA_SPECS[:3]] + [(OMEGA_SPECS[0], (249, 499), 40)]
        for spec, sizes, k in ladders:
            unit = numsolve.solve_grids(spec, P, sizes, k)
            for res, unit_res in zip(numsolve.solve_grids(spec, p, sizes, k), unit, strict=True):
                assert res.grid == unit_res.grid
                assert np.array_equal(res.eigenvalues, p.omega * unit_res.eigenvalues)


MIRROR_SPECS = [ChannelSpec(ChannelKind.HO), ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0),
                ChannelSpec(ChannelKind.ANGULAR_THETA, 1.0)]


def bisection_accuracy(T):
    """eps * (max|d| + 2 max|e|), about how closely stebz places each level of T."""
    return np.finfo(float).eps * (np.max(np.abs(T.diag)) + 2.0 * np.max(np.abs(T.offdiag)))


def mirror_case(kind, g1sq):
    """The channel at one coupling: g1^2/3 for ANGULAR_PHI, f^2 = g1^2/3 + 1/4 for ANGULAR_THETA."""
    coefficient = {ChannelKind.HO: 0.0, ChannelKind.ANGULAR_PHI: g1sq / 3.0,
                   ChannelKind.ANGULAR_THETA: g1sq / 3.0 + 0.25}[kind]
    return ChannelSpec(kind, coefficient), ModelParams(omega=1.0, g1_squared=g1sq)


class TestMirrorFold:
    """HO and the angular kinds solve as their even and odd half-problems."""

    @pytest.mark.parametrize("kind", [spec.kind for spec in MIRROR_SPECS],
                             ids=lambda kind: kind.value)
    def test_fold_matches_the_full_matrix(self, kind):
        shift = 0.25 if kind is ChannelKind.ANGULAR_THETA else 0.0
        # no matrix depends on omega (TestOmegaScaling), and HO ignores g1^2:
        # solve each matrix once
        solved = set()
        for g1sq, n in itertools.product((0.0, 0.3, 3.0, 1e4), (3, 4, 5, 6, 2000, 2001, 4003)):
            spec, p = mirror_case(kind, g1sq)
            T = channel_tridiag(spec, p, recommended_grid(kind, n))
            if T.diag.tobytes() in solved:
                continue
            solved.add(T.diag.tobytes())
            full = eigen_tridiag(T, min(n, 8))
            # the fold reads the left half only; by Weyl's inequality dropping
            # the diagonal's rounding asymmetry moves no eigenvalue by more
            asymmetry = np.max(np.abs(T.diag - T.diag[::-1]))
            tol = 2.0 * bisection_accuracy(T) + asymmetry
            for k in range(1, min(n, 8) + 1):
                fold = solve_channel(spec, p, n, k)
                assert np.max(np.abs(fold.eigenvalues + shift - full.eigenvalues[:k])) <= tol
                # strictly ascending wherever the levels are resolved at all:
                # the top even/odd pair of a 6-point grid at g1^2 = 1e4 is split
                # by less than the bisection accuracy
                gaps = np.diff(fold.eigenvalues)
                assert np.all(gaps >= 0.0)
                assert np.all(gaps[np.diff(full.eigenvalues[:k]) > tol] > 0.0)
        assert len(solved) == 7 * (1 if kind is ChannelKind.HO else 4)

    def test_every_level_of_a_small_grid(self):
        # `verify jacobi --grid-points n --max-quanta n - 1` asks HO for all n
        # levels; the top ones sit at the box edges in even/odd pairs split
        # below the bisection accuracy, and rounding can order such a pair odd
        # first (at n = 12 among others)
        spec = ChannelSpec(ChannelKind.HO)
        for n in range(8, 41):
            T = channel_tridiag(spec, P, recommended_grid(ChannelKind.HO, n))
            full = eigen_tridiag(T, n)
            accuracy = bisection_accuracy(T)
            for want_vectors in (False, True):
                fold = solve_channel(spec, P, n, n, want_vectors=want_vectors)
                assert np.all(np.diff(fold.eigenvalues) >= 0.0)
                # a vector's residual bounds its level's error
                fold_error = fold.residual_bound if want_vectors else accuracy
                tol = accuracy + fold_error + np.max(np.abs(T.diag - T.diag[::-1]))
                assert np.max(np.abs(fold.eigenvalues - full.eigenvalues)) <= tol

    @pytest.mark.parametrize("n", [2000, 2001, 4003])
    @pytest.mark.parametrize("spec", MIRROR_SPECS, ids=lambda spec: spec.kind.value)
    def test_vector_path(self, spec, n):
        res = solve_channel(spec, P, n, 8, want_vectors=True)
        h = res.grid.spacing
        T = channel_tridiag(spec, P, res.grid)
        shift = 0.25 if spec.kind is ChannelKind.ANGULAR_THETA else 0.0
        for j, (lam, v) in enumerate(zip(res.eigenvalues, res.eigenvectors)):
            assert np.sum(v * v) * h == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(v[::-1], v if j % 2 == 0 else -v)
            u = v * math.sqrt(h)  # unit Euclidean norm, up to the rounding of the rescaling
            slack = np.finfo(float).eps * np.max(np.abs(T.diag))
            assert np.linalg.norm(T.matvec(u) - (lam + shift) * u) <= res.residual_bound + slack

    def test_solves_reach_lapack_as_half_problems(self, monkeypatch):
        calls = []
        solve = numsolve.eigen_tridiag

        def spy(T, k, want_vectors=False):
            calls.append((T.dimension, k))
            return solve(T, k, want_vectors)

        monkeypatch.setattr(numsolve, "eigen_tridiag", spy)
        expected = [
            (ChannelSpec(ChannelKind.HO), 5, [(1001, 3), (1000, 2)]),
            (ChannelSpec(ChannelKind.HO), 1, [(1001, 1)]),
            (ChannelSpec(ChannelKind.SHO), 5, [(2001, 5)]),
            (ChannelSpec(ChannelKind.RADIAL, 2.0), 5, [(2001, 5)]),
        ]
        for spec, k, sent in expected:
            calls.clear()
            solve_channel(spec, P, 2001, k)
            assert calls == sent


class TestRichardson:
    def test_arithmetic(self):
        assert richardson(0.51, 0.5025) == pytest.approx(0.5)
        # any spacing ratio r: values at h and h / r; r = 2 is the old formula exactly
        r = 1.9375
        assert richardson(0.5 + 0.01 * r**2, 0.51, r) == pytest.approx(0.5, abs=1e-15)
        assert richardson(0.51, 0.5025, 2.0) == (4.0 * 0.5025 - 0.51) / 3.0

    def test_fixed_point(self):
        assert richardson(1.234, 1.234) == pytest.approx(1.234)

    def test_order_lift_on_three_grids(self):
        # extrapolant error drops O(h^2) -> O(h^4): refining the pair once
        # more shrinks the residual by roughly 16
        spec = ChannelSpec(ChannelKind.HO)
        e0, e1, e2 = (solve_channel(spec, P, n, 1).eigenvalues[0] for n in (250, 501, 1003))
        exact = 0.5
        r01 = richardson(e0, e1) - exact
        r12 = richardson(e1, e2) - exact
        assert abs(r01 / r12) == pytest.approx(16.0, rel=0.5)


OSCILLATOR_SPECS = [ChannelSpec(ChannelKind.HO), ChannelSpec(ChannelKind.SHO),
                    ChannelSpec(ChannelKind.RADIAL, 2.0), ChannelSpec(ChannelKind.RADIAL, 6.0)]


def default_box_pair(spec, params, n, k):
    return richardson(solve_channel(spec, params, n, k).eigenvalues,
                      solve_channel(spec, params, 2 * n + 1, k).eigenvalues)


def solve_calls(monkeypatch):
    """The (n_points, k, grid) of every solve the extrapolated pair makes."""
    calls = []

    def spy(spec, params, n_points, k, want_vectors=False, nodes=None):
        res = solve_channel(spec, params, n_points, k, want_vectors, nodes)
        calls.append((n_points, k, res.grid))
        return res

    monkeypatch.setattr(numsolve, "solve_channel", spy)
    return calls


class TestFittedBox:
    """The oscillator pairs solve their fine grid out to where their levels have decayed."""

    @pytest.mark.parametrize("g1sq, tol", [(0.0, 2e-10), (0.3, 2e-10), (3.0, 2e-10),
                                           (7.5, 2e-10), (1e4, 1e-7)])
    def test_matches_the_default_box_pair(self, g1sq, tol):
        # the box moves the levels by about exp(-40); what is left is
        # bisection noise, eps * max|T|, which the barrier raises at 1e4
        p = ModelParams(omega=1.0, g1_squared=g1sq)
        for spec in OSCILLATOR_SPECS:
            for k in (1, 6):
                fitted = solve_channel_extrapolated(spec, p, 2001, k).values
                assert np.max(np.abs(fitted - default_box_pair(spec, p, 2001, k))) <= tol
        for spec in (ChannelSpec(ChannelKind.ANGULAR_PHI, g1sq / 3.0),
                     ChannelSpec(ChannelKind.ANGULAR_THETA, 4.0)):
            assert np.array_equal(solve_channel_extrapolated(spec, p, 2001, 6).values,
                                  default_box_pair(spec, p, 2001, 6))

    @pytest.mark.parametrize("spec", OSCILLATOR_SPECS, ids=lambda spec: spec.kind.value)
    def test_fine_grid_is_a_node_subset_at_half_the_spacing(self, monkeypatch, spec):
        calls = solve_calls(monkeypatch)
        for omega in (1.0, 2.5):
            p = ModelParams(omega=omega, g1_squared=3.0)
            calls.clear()
            solve_channel_extrapolated(spec, p, 2001, 6)
            (_, _, coarse), (n_fine, _, fine) = calls
            assert n_fine == 4003 and 6 <= fine.n_points < 4003
            assert fine.spacing == pytest.approx(coarse.spacing / 2, rel=1e-14)
            full = recommended_grid(spec.kind, 4003).nodes()
            start = int(np.argmin(np.abs(full - fine.nodes()[0])))
            assert fine.nodes() == pytest.approx(full[start:start + fine.n_points],
                                                 rel=0, abs=1e-12)
            if spec.kind is ChannelKind.HO:
                assert fine.n_points % 2 == 1 and fine.lower == -fine.upper
            else:
                assert start == 0 and fine.lower == 0.0

    def test_box_grows_only_when_the_coarse_level_needs_it(self, monkeypatch):
        calls = solve_calls(monkeypatch)
        spec = ChannelSpec(ChannelKind.HO)
        for k, grows in ((6, False), (30, False), (40, True), (61, True)):
            calls.clear()
            e = solve_channel_extrapolated(spec, P, 2001, k).values
            assert len(calls) == (3 if grows else 2)
            assert calls[0][2] == recommended_grid(ChannelKind.HO, 2001)
            if grows:
                longer = calls[1][2]
                assert (calls[1][0], longer.spacing) == (2001, pytest.approx(calls[0][2].spacing))
                assert longer.n_points > 2001 and longer.n_points % 2 == 1
            # n + 1/2 to the closed-form accuracy of the pair
            assert np.max(np.abs(e - (np.arange(k) + 0.5))) < 1e-5

    @pytest.mark.parametrize("n", [2001, 2000])
    def test_coarser_grid_fixes_the_box_of_the_pair(self, monkeypatch, n):
        # hf-check's third grid is solved first, on the default box, and its
        # level's box, rounded out, holds both grids above it, which keeps h and h/2
        calls = solve_calls(monkeypatch)
        spec = ChannelSpec(ChannelKind.SHO)
        solves = numsolve.solve_grids(spec, P, ((n - 1) // 2, n, 2 * n + 1), 1)
        assert [size for size, _, _ in calls] == [(n - 1) // 2, n, 2 * n + 1]
        coarser, coarse, fine = (res.grid for res in solves)
        assert coarser == recommended_grid(ChannelKind.SHO, (n - 1) // 2)
        assert coarse.spacing == pytest.approx(recommended_grid(ChannelKind.SHO, n).spacing)
        assert fine.n_points == 2 * coarse.n_points + 1
        box = numsolve._box_nodes(spec, P, coarser.n_points, coarser.n_points,
                                  solves[0].eigenvalues[-1])
        reach = (box + 1) * coarser.spacing
        assert reach - 1e-12 <= coarse.upper < reach + coarse.spacing

    def test_never_fewer_nodes_than_levels(self, monkeypatch):
        calls = solve_calls(monkeypatch)
        solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), P, 21, 21)
        assert calls[-1][2].n_points >= 21

    def test_angular_kinds_keep_their_box(self):
        for kind in (ChannelKind.ANGULAR_PHI, ChannelKind.ANGULAR_THETA):
            with pytest.raises(ValueError):
                recommended_grid(kind, 101, 51)


class TestSizedPair:
    """With no point count, a pair is chosen from RUNGS by a three-grid pilot."""

    def test_rungs_halve_the_spacing_up_to_the_top_pair(self):
        rungs = numsolve.RUNGS
        assert all(coarse == (fine - 1) // 2 for coarse, fine in zip(rungs, rungs[1:]))
        assert rungs[-2:] == (numsolve.CHANNEL_POINTS, 2 * numsolve.CHANNEL_POINTS + 1)

    @pytest.mark.parametrize("tol, pair", [(1.0, (249, 499)), (1e-4, (1000, 2001)),
                                           (1e-12, (2001, 4003))])
    def test_pilot_fixes_the_box_and_its_solves_are_reused(self, monkeypatch, tol, pair):
        # the pilot's coarsest grid is solved on the default box and fixes the
        # box of each finer grid; a pair inside the pilot solves nothing more
        calls = solve_calls(monkeypatch)
        spec = ChannelSpec(ChannelKind.SHO)
        sized = solve_channel_extrapolated(spec, P, None, 2, tol=tol)
        solves = list(calls)
        assert [n for n, _, _ in solves] == [124, 249, 499] + [n for n in pair if n > 499]
        assert solves[0][2] == recommended_grid(ChannelKind.SHO, 124)
        box = numsolve._box_nodes(spec, P, 124, 124, solve_channel(spec, P, 124, 2).eigenvalues[-1])
        reach = (box + 1) * solves[0][2].spacing
        for n, _, grid in solves[1:]:
            assert grid.spacing == pytest.approx(recommended_grid(ChannelKind.SHO, n).spacing)
            assert reach - 1e-12 <= grid.upper < reach + grid.spacing
        assert (sized.coarse.grid.n_points, sized.fine.grid.n_points) != pair  # fitted box
        assert sized.ratio == (pair[1] + 1) / (pair[0] + 1)
        assert np.array_equal(sized.values, richardson(sized.coarse.eigenvalues,
                                                       sized.fine.eigenvalues, sized.ratio))

    @pytest.mark.parametrize("spec", [ChannelSpec(ChannelKind.HO), ChannelSpec(ChannelKind.SHO),
                                      ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0)],
                             ids=lambda spec: spec.kind.value)
    def test_too_few_rungs_for_a_pilot_take_the_top_pair(self, monkeypatch, spec):
        # with fewer than three rungs holding the k levels there is no pilot:
        # the pair is the explicit one at CHANNEL_POINTS, whatever the tol;
        # miniature rungs keep the solves small
        monkeypatch.setattr(numsolve, "RUNGS", (4, 9, 19, 39))
        monkeypatch.setattr(numsolve, "CHANNEL_POINTS", 19)
        sized = solve_channel_extrapolated(spec, P, None, 10, tol=1e-4)
        pair = solve_channel_extrapolated(spec, P, 19, 10)
        assert sized.ratio == pair.ratio == 2.0
        assert np.array_equal(sized.values, pair.values)
        for res, top in ((sized.coarse, pair.coarse), (sized.fine, pair.fine)):
            assert res.grid == top.grid
            assert np.array_equal(res.eigenvalues, top.eigenvalues)
        assert np.array_equal(pair.values, richardson(pair.coarse.eigenvalues,
                                                      pair.fine.eigenvalues))

    def test_a_looser_tolerance_never_takes_a_finer_pair(self):
        spec = ChannelSpec(ChannelKind.ANGULAR_PHI, 0.1)
        spacings = [solve_channel_extrapolated(spec, P, None, 5, tol=tol).coarse.grid.spacing
                    for tol in (1e-14, 1e-8, 1e-4, 1.0)]
        assert spacings == sorted(spacings)

    def test_a_given_point_count_ignores_tol(self):
        spec = ChannelSpec(ChannelKind.HO)
        assert np.array_equal(solve_channel_extrapolated(spec, P, 301, 3, tol=1.0).values,
                              solve_channel_extrapolated(spec, P, 301, 3).values)

    def test_sizing_needs_a_positive_tol(self):
        for tol in (None, 0.0):
            with pytest.raises(ValueError, match="needs a positive tol"):
                solve_channel_extrapolated(ChannelSpec(ChannelKind.HO), P, None, 1, tol=tol)


class TestPairBound:
    """A pair's coarse grid holds at most MAX_PAIR_POINTS, checked before any solve."""

    @pytest.mark.parametrize("kind", ChannelKind, ids=lambda kind: kind.value)
    def test_past_the_bound_rejected_before_any_solve(self, monkeypatch, kind):
        calls = solve_calls(monkeypatch)
        with pytest.raises(ValueError) as exc:
            solve_channel_extrapolated(ChannelSpec(kind), P, 20002, 1)
        assert str(exc.value) == ("grid-points must be at most 20001: past it, rounding in "
                                  "the 1/h^2 entries grows past the discretization error, "
                                  "got 20002")
        assert calls == []

    def test_the_bound_is_admitted(self, monkeypatch):
        # the fine grid of the largest pair holds twice the bound: no Grid1D limit
        calls = solve_calls(monkeypatch)
        pair = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_PHI, 1.0), P,
                                          numsolve.MAX_PAIR_POINTS, 2)
        assert [n for n, _, _ in calls] == [20001, 40003]
        assert pair.fine.grid.n_points == 40003
        # f^2 = (m + b)^2 with b(b - 1) = 1 for m = 0, 1, up to the bisection
        # noise of eps * max|T| ~ 4e-8 that the bound keeps in check
        b = 0.5 + math.sqrt(1.25)
        assert pair.values == pytest.approx([b**2, (1 + b) ** 2], abs=1e-6)


@pytest.fixture(scope="module")
def sho_ground():
    res = solve_channel(ChannelSpec(ChannelKind.SHO), P, 2001, 1, want_vectors=True)
    return res.eigenvectors[0], res.grid


class TestExpectation:

    def test_normalization(self, sho_ground):
        v, grid = sho_ground
        assert expectation(v, lambda x: np.ones_like(x), grid) == pytest.approx(1.0)

    def test_parity_null(self):
        res = solve_channel(ChannelSpec(ChannelKind.HO), P, 2001, 1, want_vectors=True)
        assert abs(expectation(res.eigenvectors[0], lambda x: x, res.grid)) <= 1e-10

    def test_barrier_expectation_matches_derivative(self, sho_ground):
        v, grid = sho_ground
        got = expectation(v, lambda x: 1.0 / (6.0 * x**2), grid)
        assert got == pytest.approx(hf_derivative_closed_form(P), abs=1e-5)

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
        e0, e1, e2 = (solve_channel(spec, params, n, level + 1).eigenvalues[level]
                      for n in (800, 1601, 3203))
        ratio1 = (e0 - exact) / (e1 - exact)
        ratio2 = (e1 - exact) / (e2 - exact)
        assert 3.5 <= ratio1 <= 4.5
        assert 3.5 <= ratio2 <= 4.5
