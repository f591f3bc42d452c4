"""The orthogonal Jacobi map of the four particle positions and the particle potential.

(X1, X2, X3, Xcm) = J @ (x1, x2, x3, x4), with J orthogonal, which is what
keeps the kinetic term -1/2 Laplacian in the relative coordinates.  Two
algebraic identities carried by the map take the potential to the Jacobi
frame, where the 3D grid solves it:

    sum_{i<j} (x_i - x_j)^2 = 4 * (X1^2 + X2^2 + X3^2)
    (x1 + x2 - 2*x3)^2      = 6 * X2^2
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .model import ModelParams

#: The barrier's linear form: the potential has its pole on the plane
#: BARRIER_FORM @ x = x1 + x2 - 2*x3 = 0.
BARRIER_FORM = np.array([1.0, 1.0, -2.0, 0.0])


def jacobi_matrix() -> np.ndarray:
    """Coefficient matrix J with (X1, X2, X3, Xcm) = J @ (x1, x2, x3, x4).

    J is orthogonal (J^T J = I), so the Laplacian keeps its flat form under
    the change of variables and J^T maps Jacobi coordinates back.
    """
    s2, s6, s12 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(12.0)
    return np.array([
        [1 / s2, -1 / s2, 0.0, 0.0],
        [1 / s6, 1 / s6, -2 / s6, 0.0],
        [1 / s12, 1 / s12, 1 / s12, -3 / s12],
        [0.5, 0.5, 0.5, 0.5],
    ])


def potential_particle(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """(omega^2/8) * sum_{i<j} (x_i - x_j)^2 + g1^2 / (x1 + x2 - 2*x3)^2.

    ``x`` holds particle positions on its last axis, of length 4; the result
    has the shape of the other axes.  The barrier plane x1 + x2 = 2*x3 is a
    pole only while the barrier is switched on: a position on it raises
    ValueError at g1_squared > 0, and at g1_squared = 0 the term vanishes.
    """
    x = np.asarray(x, dtype=float)
    pair_sum = sum((x[..., i] - x[..., k]) ** 2 for i, k in combinations(range(4), 2))
    smooth = params.omega**2 / 8.0 * pair_sum
    if params.g1_squared == 0.0:
        return smooth
    denom = x @ BARRIER_FORM
    if np.any(denom == 0.0):
        raise ValueError("a configuration lies on the barrier plane x1 + x2 = 2*x3")
    return smooth + params.g1_squared / denom**2
