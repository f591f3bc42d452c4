"""Closed-form level table of the four-particle chain.

Shows the separated HO + SHO + HO structure: every level is
omega*(N + 1 + offset + delta) with N = n1 + n3 + 2*n2, and its degeneracy
counts the triples sharing N.  Also contrasts the published SHO constant
(offset 1/2) with the resolved one (offset 1).

Run:  python demos/closed_form_spectrum.py
"""

from wolfes4.model import (
    ModelParams,
    delta_constant,
    enumerate_spectrum,
    sho_energy_resolved,
)


def main() -> None:
    params = ModelParams(omega=1.0, g1_squared=3.0)
    print(f"omega = {params.omega}, g1^2 = {params.g1_squared}, "
          f"delta = {delta_constant(params):.6f}\n")

    print("published vs resolved SHO levels (the printed constant is off by 1/2):")
    for n in range(4):
        print(f"  n2={n}:  published {sho_energy_resolved(n, params, 0.5):.6f}   "
              f"resolved {sho_energy_resolved(n, params, 1.0):.6f}")

    print("\nlevel table up to N = 6 (resolved offset):")
    table = enumerate_spectrum(params, 6, offset=1.0)
    print(f"  {'N':>2} {'energy':>12} {'degeneracy':>10}  representative triples")
    for lv in table.levels:
        n_total = lv.members[0].total_quanta
        reps = ", ".join(f"({t.n1},{t.n2},{t.n3})" for t in lv.members[:4])
        more = " ..." if lv.degeneracy > 4 else ""
        print(f"  {n_total:>2} {lv.value:>12.6f} {lv.degeneracy:>10}  {reps}{more}")

    doubled = enumerate_spectrum(params, 4, offset=1.0, sector_multiplicity=2)
    print("\nwith sector doubling (both mirror half-lines of the barrier):")
    print("  degeneracies:", [lv.degeneracy for lv in doubled.levels])


if __name__ == "__main__":
    main()
