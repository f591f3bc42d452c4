"""The Jacobi map, its orthogonality, and the potential identities."""

import math

import numpy as np
import pytest

from wolfes4.coords import jacobi_matrix, potential_particle
from wolfes4.model import ModelParams

P = ModelParams(omega=1.0, g1_squared=3.0)


class TestJacobiMatrix:
    def test_row_norms(self):
        J = jacobi_matrix()
        assert np.allclose(np.linalg.norm(J, axis=1), 1.0, atol=1e-15)

    def test_orthogonality(self):
        J = jacobi_matrix()
        assert np.max(np.abs(J.T @ J - np.eye(4))) <= 1e-14
        assert abs(J[2] @ J[3]) <= 1e-15

    def test_determinant(self):
        assert abs(abs(np.linalg.det(jacobi_matrix())) - 1.0) <= 1e-12


class TestToJacobi:
    def test_translation_invariance(self):
        X = jacobi_matrix() @ np.array([1.0, 1.0, 1.0, 1.0])
        assert X == pytest.approx((0, 0, 0, 2), abs=1e-15)

    def test_antisymmetric_pair(self):
        X = jacobi_matrix() @ np.array([1.0, -1.0, 0.0, 0.0])
        assert X == pytest.approx((math.sqrt(2), 0, 0, 0), abs=1e-15)

    def test_direct_arithmetic(self):
        X = jacobi_matrix() @ np.array([1.0, 1.0, -1.0, 0.0])
        assert X == pytest.approx((0, 4 / math.sqrt(6), 1 / math.sqrt(12), 0.5), abs=1e-15)

    def test_round_trips(self):
        # J^T maps Jacobi coordinates back to particle positions
        J = jacobi_matrix()
        X = np.array([(0, 0, 0, 2), (math.sqrt(2), 0, 0, 0),
                      (0, 4 / math.sqrt(6), 1 / math.sqrt(12), 0.5)])
        assert (X @ J) @ J.T == pytest.approx(X, abs=1e-14)


class TestPotentials:
    def test_particle_examples(self):
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        assert potential_particle(np.array([1.0, -1.0, 0.0, 0.0]), p0) == 1.0
        assert potential_particle(np.array([1.0, 1.0, -1.0, 0.0]), p0) == pytest.approx(11 / 8)
        p2 = ModelParams(omega=1.0, g1_squared=2.0)
        assert potential_particle(np.array([1.0, 1.0, 0.0, 0.0]), p2) == pytest.approx(1.0)
        # positions on the last axis; the result keeps the leading ones
        x = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, -1.0, 0.0]] * 3).reshape(3, 2, 4)
        assert potential_particle(x, p2) == pytest.approx(
            np.tile([1.0, 11 / 8 + 2 / 16], (3, 1)), abs=1e-15)

    def test_jacobi_examples(self):
        # the Jacobi frame's (omega^2/2) r^2 + g1^2 / (6 X2^2), reached through J^T
        J = jacobi_matrix()
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        assert potential_particle(J.T @ [1.0, 0.0, 0.0, 0.0], p0) == pytest.approx(0.5)
        p6 = ModelParams(omega=1.0, g1_squared=6.0)
        assert potential_particle(J.T @ [0.0, 1.0, 0.0, 0.0], p6) == pytest.approx(1.5)

    def test_singular_plane(self):
        with pytest.raises(ValueError, match="barrier plane"):
            potential_particle(np.array([1.0, 1.0, 1.0, 0.0]), P)
        # X2 = 0 is the barrier plane; one such position fails a whole array
        on_plane = jacobi_matrix().T @ [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="barrier plane"):
            potential_particle(np.stack([np.array([1.0, 1.0, 0.0, 0.0]), on_plane]), P)
        # no pole without the barrier
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        assert potential_particle(np.array([1.0, 1.0, 1.0, 0.0]), p0) > 0.0


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-5, 5, size=(10_000, 4))
    # keep clear of the barrier plane so both potentials are defined
    wolfes = x[:, 0] + x[:, 1] - 2 * x[:, 2]
    return x[np.abs(wolfes) > 1e-3]


class TestIdentities:
    """Sampled identities behind the change of variables; 1e4 draws."""

    def test_potential_identity(self, samples):
        X = samples @ jacobi_matrix().T
        v1 = potential_particle(samples, P)
        v2 = (P.omega**2 / 2 * (X[:, 0] ** 2 + X[:, 1] ** 2 + X[:, 2] ** 2)
              + P.g1_squared / (6 * X[:, 1] ** 2))
        assert np.max(np.abs(v1 - v2) / np.maximum(1.0, np.abs(v1))) <= 1e-12

    def test_quadratic_form_identity(self, samples):
        J = jacobi_matrix()
        X = samples @ J.T
        pair_sum = np.zeros(len(samples))
        for i in range(4):
            for k in range(i + 1, 4):
                pair_sum += (samples[:, i] - samples[:, k]) ** 2
        internal = 4 * (X[:, 0] ** 2 + X[:, 1] ** 2 + X[:, 2] ** 2)
        assert np.max(np.abs(pair_sum - internal) / np.maximum(1.0, pair_sum)) <= 1e-12

    def test_barrier_plane_identity(self, samples):
        J = jacobi_matrix()
        X = samples @ J.T
        lhs = (samples[:, 0] + samples[:, 1] - 2 * samples[:, 2]) ** 2
        rhs = 6 * X[:, 1] ** 2
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs)) <= 1e-12

    def test_round_trip(self, samples):
        J = jacobi_matrix()
        assert (samples @ J.T) @ J == pytest.approx(samples, abs=1e-13)
