"""The chained spherical-coordinate solve, next to the separated route.

The azimuthal eigenvalues f^2_m feed the polar equation, whose separation
constants k^2_{lm} feed the radial equation; the resulting energies form the
same multiset as the separated-coordinate sums, level for level.

Run:  python demos/spherical_chain.py
"""

import numpy as np

from wolfes4.model import ModelParams
from wolfes4.numsolve import ChannelKind, ChannelSpec, solve_channel_extrapolated
from wolfes4.verify import verify_spherical_route


def main() -> None:
    params = ModelParams(omega=1.0, g1_squared=3.0)

    f2 = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.ANGULAR_PHI, params.g1_squared / 3.0),
        params, 2001, 3).values
    print("azimuthal eigenvalues f^2_m:", np.round(f2, 6))

    print("\npolar separation constants k^2_{lm}:")
    for m, f2m in enumerate(f2):
        k2 = solve_channel_extrapolated(
            ChannelSpec(ChannelKind.ANGULAR_THETA, float(f2m)), params, 2001, 3).values
        print(f"  m={m}: {np.round(k2, 6)}")

    k2_00 = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.ANGULAR_THETA, float(f2[0])), params, 2001, 1).values[0]
    e = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.RADIAL, float(k2_00)), params, 2001, 3).values
    print(f"\nradial energies for k^2_00 = {k2_00:.6f}: {np.round(e, 6)}")
    print("(the lowest must equal the separated-route ground 2 + delta)")

    report = verify_spherical_route(params, n_cap=3, tol=1e-4, offset=1.0)
    print(f"\nroute comparison: {'PASS' if report.passed else 'FAIL'}")
    for c in report.checks:
        if c.name.startswith("route-pair"):
            print(f"  {c.name:>15}: spherical {c.measured:.8f}  "
                  f"jacobi {c.reference:.8f}  [{c.provenance}]")


if __name__ == "__main__":
    main()
