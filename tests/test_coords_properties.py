"""Property test of the coordinate chain particle -> Jacobi -> spherical and back."""

import dataclasses
import math

import pytest

from wolfes4 import from_jacobi, from_spherical, ParticleConfig, to_jacobi, to_spherical

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

position = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(position, position, position, position)
def test_particle_jacobi_spherical_round_trip(x1, x2, x3, x4):
    p = ParticleConfig(x1, x2, x3, x4)
    j = to_jacobi(p)
    r = math.sqrt(j.X1**2 + j.X2**2 + j.X3**2)
    # away from the origin and the poles, where theta = acos(X3 / r) and with
    # it every angle stays well conditioned
    assume(r > 1e-3)
    assume(math.hypot(j.X1, j.X2) > 1e-3 * r)

    s = to_spherical(j)
    assert s.r == pytest.approx(r, rel=1e-14)
    # the spherical map drops the centre of mass; restore it before going back
    back = from_jacobi(dataclasses.replace(from_spherical(s), Xcm=j.Xcm))
    scale = max(abs(v) for v in (x1, x2, x3, x4))
    assert back.as_array() == pytest.approx(p.as_array(), abs=1e-12 * max(1.0, scale))
