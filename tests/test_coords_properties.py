"""Property tests of the Jacobi map and the potential it carries to the Jacobi frame."""

import numpy as np
import pytest

from wolfes4.coords import jacobi_matrix, potential_particle
from wolfes4.model import ModelParams

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

position = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
J = jacobi_matrix()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(position, position, position, position)
def test_particle_jacobi_round_trip(x1, x2, x3, x4):
    x = np.array([x1, x2, x3, x4])
    scale = max(1.0, float(np.max(np.abs(x))))
    assert J.T @ (J @ x) == pytest.approx(x, abs=1e-14 * scale)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(position, position, position, position, st.floats(min_value=0.0, max_value=1e4))
def test_potential_identity(x1, x2, x3, x4, g1_squared):
    x = np.array([x1, x2, x3, x4])
    X1, X2, X3, _ = J @ x
    # away from the barrier plane, where the barrier term is well conditioned
    assume(abs(X2) > 1e-3 * max(1.0, float(np.max(np.abs(x)))))
    params = ModelParams(omega=1.0, g1_squared=g1_squared)
    v = potential_particle(x, params)
    jacobi = 0.5 * (X1**2 + X2**2 + X3**2) + g1_squared / (6.0 * X2**2)
    assert v == pytest.approx(jacobi, rel=1e-12)
