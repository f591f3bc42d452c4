"""Direct 3D diagonalization against the closed-form spectrum.

The matrix-free Lanczos solve never uses separability, only the reflection
symmetries of the grid, so agreement with the closed forms is a genuine
three-dimensional cross-check.  The barrier splits space into two mirror
half-spaces, so the grid holds X2 > 0 behind a Dirichlet plane at X2 = 0.
Each level is solved once and carries its multiplicity: 2 for the mirror
half-space, 4 for the X1 <-> X3 image pair of the N = 1 class.  The two
grids share the extent, so they are extrapolated at their spacing ratio,
as `verify 3d` does.

Run:  python demos/grid3d_check.py      (a few seconds)
"""

from wolfes4 import ModelParams, delta_constant, richardson, solve_hd_3d


def main() -> None:
    params = ModelParams(omega=1.0, g1_squared=3.0)
    exact_ground = 2.0 + delta_constant(params)
    k = 6

    n_fine, n_coarse, extent = 61, 30, 7.0
    fine = solve_hd_3d(params, n_fine, extent, k=k)
    coarse = solve_hd_3d(params, n_coarse, extent, k=k)
    # a grid's spacing is extent / (n // 2 + 1): the ratio is 31/16, not 2
    ratio = (n_fine // 2 + 1) / (n_coarse // 2 + 1)
    extrap = richardson(coarse.eigenvalues, fine.eigenvalues, ratio)

    print(f"closed-form ground: {exact_ground:.6f}; "
          f"the lowest {k} states in {len(fine.eigenvalues)} levels\n")
    print(f"  {'level':>5} {'states':>6} {'coarse':>10} {'fine':>10} {'extrapolated':>13}")
    for i, mult in enumerate(fine.multiplicities):
        print(f"  {i:>5} {mult:>6} {coarse.eigenvalues[i]:>10.6f} "
              f"{fine.eigenvalues[i]:>10.6f} {extrap[i]:>13.6f}")

    print(f"\nextrapolated ground error: {extrap[0] - exact_ground:+.2e}")
    print(f"largest Ritz residual: {fine.residual_bound:.1e}")


if __name__ == "__main__":
    main()
