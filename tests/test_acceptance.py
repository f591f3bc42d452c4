"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from wolfes4.coords import jacobi_matrix, potential_particle
from wolfes4.grid3d import solve_hd_3d
from wolfes4.model import (
    ModelParams,
    delta_constant,
    enumerate_spectrum,
    sho_energy_resolved,
)
from wolfes4.numsolve import (
    ChannelKind,
    ChannelSpec,
    richardson,
    solve_channel,
    solve_channel_extrapolated,
)
from wolfes4.verify import (
    bk_audit,
    hellmann_feynman_check,
    resolve_formula_offsets,
    verify_3d,
    verify_spherical_route,
)

P3 = ModelParams(omega=1.0, g1_squared=3.0)


def record(number, ok, detail):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def resolution():
    return resolve_formula_offsets()


def test_criterion_01_ho_oracle():
    """Lowest 8 HO levels match omega*(n + 1/2) within 1e-6 after Richardson."""
    t0 = time.perf_counter()
    e_h = solve_channel(ChannelSpec(ChannelKind.HO), P3, 2001, 8).eigenvalues
    e_half = solve_channel(ChannelSpec(ChannelKind.HO), P3, 4003, 8).eigenvalues
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(richardson(e_h, e_half) - (np.arange(8) + 0.5))))
    record(1, err < 1e-6 and elapsed < 5.0,
           f"max |E_n - (n+1/2)| = {err:.2e} after Richardson, {elapsed:.2f}s")


def test_criterion_02_transform_identities():
    """Potential identity over 1e4 random configurations; J^T J = I."""
    rng = np.random.default_rng(99)
    x = rng.uniform(-5, 5, size=(10_000, 4))
    x = x[np.abs(x[:, 0] + x[:, 1] - 2 * x[:, 2]) > 1e-3]
    J = jacobi_matrix()
    X = x @ J.T
    v1 = potential_particle(x, P3)
    # the Jacobi-frame potential (omega^2/2) (X1^2 + X2^2 + X3^2) + g1^2 / (6 X2^2)
    v2 = (P3.omega**2 / 2 * (X[:, 0] ** 2 + X[:, 1] ** 2 + X[:, 2] ** 2)
          + P3.g1_squared / (6 * X[:, 1] ** 2))
    worst = float(np.max(np.abs(v1 - v2) / np.maximum(1.0, np.abs(v1))))
    ortho = float(np.max(np.abs(J.T @ J - np.eye(4))))
    record(2, worst <= 1e-12 and ortho <= 1e-14,
           f"potential identity rel err {worst:.2e} over {len(x)} draws, "
           f"|J^T J - I| = {ortho:.2e}")


def test_criterion_03_formula_resolution(resolution):
    """Unique offset and radial rule; anchors at 1e-5; table emitted."""
    offset, rule, report = resolution
    by_name = {c.name: c for c in report.checks}
    anchors_ok = (abs(by_name["sho-anchor[g1sq=0]"].measured - 1.5) < 1e-5
                  and abs(by_name["radial-anchor[k2=2]"].measured - 2.5) < 1e-5)
    residual = max(by_name["sho-offset-unique"].measured,
                   by_name["radial-rule-unique"].measured)
    table_rows = [c for c in report.checks if c.name.startswith("discrepancy-")]
    ok = (offset == 1.0 and rule == "candidate" and anchors_ok
          and residual < 1e-4 and len(table_rows) >= 6 and report.passed)
    record(3, ok, f"offset={offset}, rule={rule}, max residual {residual:.2e}, "
                  f"{len(table_rows)} discrepancy rows emitted")


def test_criterion_04_route_equivalence(resolution):
    """Lowest 10 energies agree between the two routes within 1e-4."""
    offset = resolution[0]
    t0 = time.perf_counter()
    report = verify_spherical_route(P3, n_cap=3, tol=1e-4, offset=offset)
    elapsed = time.perf_counter() - t0
    pairs = [c for c in report.checks if c.name.startswith("route-pair")]
    worst = max(abs(c.measured - c.reference) for c in pairs[:10])
    # the chained energies must also land on the closed-form table
    closed = enumerate_spectrum(P3, 3, offset).flattened()[:10]
    chain = sorted(c.measured for c in pairs)[:10]
    worst_closed = max(abs(a - b) for a, b in zip(chain, closed))
    ok = (report.passed and len(pairs) >= 10 and worst_closed < 1e-4
          and elapsed < 60.0)
    record(4, ok, f"{len(pairs)} paired levels, worst of lowest 10 = "
                  f"{worst:.2e} (vs closed forms {worst_closed:.2e}), {elapsed:.1f}s")


def test_criterion_05_hellmann_feynman():
    """Three-way derivative agreement within 1e-4, strictly positive."""
    worst = 0.0
    for g in (1.0, 3.0, 7.5):
        for n2 in (0, 1, 2):
            report = hellmann_feynman_check(ModelParams(1.0, g), n2=n2, tol=1e-4)
            assert report.passed, f"HF check failed at g1^2={g}, n2={n2}"
            gaps = [abs(c.measured - c.reference) for c in report.checks
                    if c.name in ("hf-fd-vs-closed", "hf-expectation-vs-closed",
                                  "hf-fd-vs-expectation")]
            worst = max(worst, max(gaps))
    record(5, worst < 1e-4,
           f"9 (g1^2, n2) combinations, worst pairwise gap {worst:.2e}")


def test_criterion_06_scaling_law(resolution):
    """Spectra at omega = 2 are exactly twice the omega = 1 spectra."""
    offset = resolution[0]
    p1, p2 = ModelParams(1.0, 3.0), ModelParams(2.0, 3.0)
    closed1 = enumerate_spectrum(p1, 6, offset).flattened()
    closed2 = enumerate_spectrum(p2, 6, offset).flattened()
    closed_dev = max(abs(b - 2 * a) / abs(b) for a, b in zip(closed1, closed2))

    numeric_dev = 0.0
    for spec in (ChannelSpec(ChannelKind.HO), ChannelSpec(ChannelKind.SHO),
                 ChannelSpec(ChannelKind.RADIAL, 2.0)):
        e1 = solve_channel_extrapolated(spec, p1, 1001, 4).values
        e2 = solve_channel_extrapolated(spec, p2, 1001, 4).values
        numeric_dev = max(numeric_dev, float(np.max(np.abs(e2 - 2 * e1))))
    g1 = solve_hd_3d(p1, 33, 7.0, k=2).eigenvalues
    g2 = solve_hd_3d(p2, 33, 7.0, k=2).eigenvalues
    grid_dev = float(np.max(np.abs(g2 - 2 * g1)))

    ok = closed_dev <= 1e-12 and numeric_dev <= 2e-4 and grid_dev <= 1e-6
    record(6, ok, f"closed forms rel dev {closed_dev:.1e}, 1D channels "
                  f"{numeric_dev:.1e}, 3D grid {grid_dev:.1e}")


def test_criterion_07_degeneracies():
    """Degeneracy sequence 1, 2, 4, 6, 9 for N = 0..4, vs brute force."""
    table = enumerate_spectrum(P3, 4, 1.0)
    got = [lv.degeneracy for lv in table.levels]
    brute = []
    for n_total in range(5):
        brute.append(sum(1 for n1 in range(5) for n2 in range(5) for n3 in range(5)
                         if n1 + n3 + 2 * n2 == n_total))
    ok = got == [1, 2, 4, 6, 9] == brute
    record(7, ok, f"enumerated {got}, brute force {brute}")


def test_criterion_08_grid3d_oracle(resolution):
    """3D solve at 61 per axis, extent 7, matches the closed ground within 5e-3
    and finds classes N = 0 and 1 with their full degeneracies."""
    offset = resolution[0]
    t0 = time.perf_counter()
    report = verify_3d(P3, k=6, tol=5e-3, offset=offset, n_per_axis=61, extent=7.0)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c for c in report.checks}
    ground = by_name["grid3d-level[N=0]"]
    ground_err = abs(ground.measured - ground.reference)
    states = [by_name[f"grid3d-degeneracy[N={n}]"].measured for n in (0, 1)]
    ok = report.passed and states == [2.0, 4.0] and elapsed < 300.0
    record(8, ok, f"ground err {ground_err:.2e} (tol 5e-3), states of N = 0, 1: "
                  f"{states[0]:g}, {states[1]:g}, {elapsed:.0f}s")


def test_criterion_09_bk_audit():
    """Audit entries demonstrate coupling dependence with measured values."""
    report = bk_audit(P3)
    by_name = {c.name: c for c in report.checks}
    dep = by_name["audit-spectrum-depends-on-g1"]
    f2 = by_name["audit-f2-not-all-equal"]
    k2 = by_name["audit-k2-not-l(l+1)"]
    ok = (report.passed
          and abs(dep.measured - 0.3542713729) < 1e-3
          and f2.measured >= 1.0
          and abs(k2.measured) > 1.0)
    record(9, ok, f"ground shift {dep.measured:.4f} (delta difference "
                  f"{dep.reference:.4f}), f^2 gap {f2.measured:.3f}, "
                  f"k^2_00 = {k2.measured:.3f} vs l(l+1) = 0")


def test_criterion_10_convergence_order():
    """Each 1D channel shows an error ratio in [3.5, 4.5] under h -> h/2."""
    f0 = 0.5 + delta_constant(P3)
    cases = [
        (ChannelSpec(ChannelKind.HO), 2, 2.5),
        (ChannelSpec(ChannelKind.SHO), 1, sho_energy_resolved(1, P3, 1.0)),
        (ChannelSpec(ChannelKind.RADIAL, 2.0), 1, 4.5),
        (ChannelSpec(ChannelKind.ANGULAR_PHI, P3.g1_squared / 3.0), 0, f0**2),
        (ChannelSpec(ChannelKind.ANGULAR_THETA, f0**2), 0, f0 * (f0 + 1)),
    ]
    ratios = {}
    for spec, level, exact in cases:
        e0 = solve_channel(spec, P3, 800, level + 1).eigenvalues[level]
        e1 = solve_channel(spec, P3, 1601, level + 1).eigenvalues[level]
        ratios[spec.kind.value] = (e0 - exact) / (e1 - exact)
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    record(10, ok, "h->h/2 error ratios: "
           + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items()))
