"""Finite-difference channel solves against their exact limits.

Each 1D channel (oscillator, barrier oscillator, radial, and the two angular
operators) is solved on a pair of grids (h, h/2), the oscillators' fine grid
on the box their levels need; the Richardson extrapolant lands on the
analytic eigenvalues to ~1e-9, and the raw error ratio of 4 confirms the
second-order stencil.

Run:  python demos/channel_oracles.py
"""

import numpy as np

from wolfes4.model import ModelParams, delta_constant, sho_energy_resolved
from wolfes4.numsolve import ChannelKind, ChannelSpec, solve_channel_extrapolated


def show(title, spec, params, exact, levels=4):
    pair = solve_channel_extrapolated(spec, params, 1500, levels)
    e_h, e_half = pair.coarse.eigenvalues, pair.fine.eigenvalues
    exact = np.asarray(exact, float)
    ratio = (e_h - exact) / (e_half - exact)
    print(f"{title}")
    print(f"  exact      : {np.array2string(exact, precision=6)}")
    print(f"  h          : {np.array2string(e_h, precision=6)}")
    print(f"  richardson : {np.array2string(pair.values, precision=10)}")
    print(f"  error ratio h->h/2: {np.array2string(ratio, precision=2)}\n")


def main() -> None:
    params = ModelParams(omega=1.0, g1_squared=3.0)
    d = delta_constant(params)
    n = np.arange(4)

    show("harmonic oscillator, levels omega*(n + 1/2)",
         ChannelSpec(ChannelKind.HO), params, n + 0.5)

    show("barrier oscillator, levels omega*(2n + 1 + delta)",
         ChannelSpec(ChannelKind.SHO), params,
         [sho_energy_resolved(int(k), params, 1.0) for k in n])

    show("radial channel at k^2 = 2, levels omega*(2n + l + 3/2) with l = 1",
         ChannelSpec(ChannelKind.RADIAL, 2.0), params, 2 * n + 2.5)

    f = 0.5 + d
    show("azimuthal channel at strength g1^2/3, eigenvalues (m + 1/2 + delta)^2",
         ChannelSpec(ChannelKind.ANGULAR_PHI, params.g1_squared / 3.0), params,
         (n + f) ** 2)

    show("polar channel fed f^2_0, eigenvalues (f + l)(f + l + 1)",
         ChannelSpec(ChannelKind.ANGULAR_THETA, f * f), params,
         (f + n) * (f + n + 1))

    print("polar self-test at f^2 = 0 (Legendre limit l(l+1)):")
    spec = ChannelSpec(ChannelKind.ANGULAR_THETA, 0.0)
    e = solve_channel_extrapolated(spec, params, 1500, 5).values
    print(f"  {np.array2string(e, precision=8)}  vs  0, 2, 6, 12, 20")


if __name__ == "__main__":
    main()
