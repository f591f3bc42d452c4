"""Direct 3D diagonalization against the closed-form spectrum.

The matrix-free Lanczos solve never uses separability, only the reflection
symmetries of the grid, so agreement with the closed forms is a genuine
three-dimensional cross-check.  The barrier splits space into two mirror
half-spaces, so the grid holds X2 > 0 behind a Dirichlet plane at X2 = 0.
Each level is solved once and carries its multiplicity: 2 for the mirror
half-space, 4 for the X1 <-> X3 image pair of the N = 1 class.

Only X2 meets the barrier, so only X2 has the second-order stencil; X1 and
X3 carry a sinc-DVR whose node count the extent fixes.  The coarse grid
has half the X2 points and the same DVR, solves only the levels the fine
one holds, each paired with the fine level of the same rank in its sector,
and the pair is extrapolated at the X2 spacing ratio: the pairing of
`verify 3d`, through the same functions.  What the pair leaves, the DVR
error, is measured by solving the coarse grid again with 4 DVR nodes fewer.

The fine grid's Lanczos solves start cold; the coarse grid starts each
sector from the fine grid's Ritz vectors, carried to its X2 nodes, and the
DVR check from the coarse grid's, carried to the coarser DVR.  The demo
counts the operator applications of each of the three grids.

Run:  python demos/grid3d_check.py      (about a second)
"""

from wolfes4 import grid3d
from wolfes4.grid3d import dvr_change, solve_hd_3d, solve_partner
from wolfes4.model import ModelParams, delta_constant


def count_matvecs(solves: list) -> None:
    """Record (warm start?, matvecs) of every sector solve from here on."""
    lanczos_lowest = grid3d.lanczos_lowest

    def counting(matvec, n, k, **kwargs):
        calls = []

        def counted(u):
            calls.append(None)
            return matvec(u)

        try:
            return lanczos_lowest(counted, n, k, **kwargs)
        finally:
            solves.append((kwargs.get("start") is not None, len(calls)))

    grid3d.lanczos_lowest = counting


def main() -> None:
    solves: list = []
    count_matvecs(solves)
    params = ModelParams(omega=1.0, g1_squared=3.0)
    exact_ground = 2.0 + delta_constant(params)
    k, n_points, extent = 6, 61, 7.0

    # the coarse grid has 61 // 2 = 30 X2 points; an X2 spacing is
    # extent / (n // 2 + 1), so the pair's ratio is 31/16, not 2
    pair = solve_partner(solve_hd_3d(params, n_points, extent, k))
    fine, coarse, extrap, ratio = pair.fine, pair.coarse.eigenvalues, pair.values, pair.ratio

    print(f"closed-form ground: {exact_ground:.6f}; "
          f"the lowest {k} states in {len(fine.eigenvalues)} levels")
    print(f"X2: {n_points // 2} and {n_points // 4} stencil nodes; "
          f"X1, X3: {2 * fine.dvr_nodes + 1} DVR nodes on both grids\n")
    print(f"  {'level':>5} {'sector':>12} {'states':>6} {'coarse':>10} {'fine':>10} "
          f"{'extrapolated':>13}")
    for i, (sector, mult) in enumerate(zip(fine.sectors, fine.multiplicities)):
        print(f"  {i:>5} {str(sector):>12} {mult:>6} {coarse[i]:>10.6f} "
              f"{fine.eigenvalues[i]:>10.6f} {extrap[i]:>13.6f}")

    print(f"\nspacing ratio {ratio:.6g}; "
          f"extrapolated ground error: {extrap[0] - exact_ground:+.2e}")
    paired = len(solves)
    dvr = dvr_change(pair.coarse)
    print(f"grid3d-dvr-error (coarse levels with 4 DVR nodes fewer): {dvr:.1e}")
    print(f"largest Ritz residual of the fine levels: {fine.residual_bound:.1e}")
    cold = sum(matvecs for warm, matvecs in solves[:paired] if not warm)
    coarse_warm = sum(matvecs for warm, matvecs in solves[:paired] if warm)
    dvr_warm = sum(matvecs for _, matvecs in solves[paired:])
    print(f"Lanczos matvecs: fine grid {cold} (cold start), coarse grid {coarse_warm} "
          f"(from the fine vectors), DVR check {dvr_warm} (from the coarse vectors)")


if __name__ == "__main__":
    main()
