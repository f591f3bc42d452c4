"""Formula resolution, route equivalence, Hellmann-Feynman, audit, 3D check."""

import math

import numpy as np
import pytest

from wolfes4 import (
    ChannelKind,
    ChannelSpec,
    ModelParams,
    ResolutionError,
    bk_audit,
    composite_energy,
    delta_constant,
    hellmann_feynman_check,
    QuantumTriple,
    resolve_formula_offsets,
    solve_channel_extrapolated,
    verify_3d,
    verify_jacobi_route,
    verify_spherical_route,
)

P3 = ModelParams(omega=1.0, g1_squared=3.0)


@pytest.fixture(scope="module")
def resolution():
    return resolve_formula_offsets()


class TestResolution:
    def test_selects_corrected_constants(self, resolution):
        offset, rule, report = resolution
        assert offset == 1.0
        assert rule == "candidate"
        assert report.passed
        assert report.resolved_sho_offset == 1.0
        assert report.resolved_radial_rule == "candidate"

    def test_anchors(self, resolution):
        _, _, report = resolution
        by_name = {c.name: c for c in report.checks}
        anchor = by_name["sho-anchor[g1sq=0]"]
        assert abs(anchor.measured - 1.5) <= 1e-5
        anchor = by_name["radial-anchor[k2=2]"]
        assert abs(anchor.measured - 2.5) <= 1e-5

    def test_uniform_residual(self, resolution):
        _, _, report = resolution
        by_name = {c.name: c for c in report.checks}
        assert by_name["sho-offset-unique"].measured < 1e-4
        assert by_name["radial-rule-unique"].measured < 1e-4

    def test_discrepancy_table_emitted(self, resolution):
        _, _, report = resolution
        sho_rows = [c for c in report.checks if c.name.startswith("discrepancy-sho")]
        radial_rows = [c for c in report.checks
                       if c.name.startswith("discrepancy-radial")]
        assert len(sho_rows) == 4 and len(radial_rows) == 2
        # the printed SHO constant misses by its offset error (0.5 at g=0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["discrepancy-sho-printed[g1sq=0]"].measured \
            == pytest.approx(0.5, abs=1e-3)
        assert by_name["discrepancy-radial-printed[k2=2,omega=1]"].measured \
            == pytest.approx(1.0 - (math.sqrt(3) - 1) / 2, abs=1e-3)

    def test_impossible_tolerance_is_ambiguity(self):
        with pytest.raises(ResolutionError) as err:
            resolve_formula_offsets(n_points=301, tol=1e-15)
        assert err.value.table  # residual table attached

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            resolve_formula_offsets(params_list=[])

    def test_mixed_omega_sweep(self):
        sweep = [ModelParams(1.0, 0.0), ModelParams(2.0, 1.0),
                 ModelParams(1.0, 3.0), ModelParams(0.5, 7.5)]
        offset, rule, report = resolve_formula_offsets(sweep, n_points=1001)
        assert offset == 1.0 and rule == "candidate"
        assert report.passed


class TestJacobiRoute:
    def test_standard_case(self):
        report = verify_jacobi_route(P3, cutoff=4, tol=1e-4, offset=1.0)
        assert report.passed
        level_checks = [c for c in report.checks if c.name.startswith("jacobi-level")]
        assert len(level_checks) == 5

    def test_zero_coupling_ground(self):
        p = ModelParams(omega=1.0, g1_squared=0.0)
        report = verify_jacobi_route(p, cutoff=2, tol=1e-4, offset=1.0)
        assert report.passed
        ground = next(c for c in report.checks if c.name == "jacobi-level[N=0]")
        assert ground.measured == pytest.approx(2.5, abs=1e-5)

    def test_omega_doubling(self):
        r1 = verify_jacobi_route(P3, cutoff=3, tol=1e-4, offset=1.0)
        r2 = verify_jacobi_route(ModelParams(2.0, 3.0), cutoff=3, tol=2e-4, offset=1.0)
        assert r1.passed and r2.passed
        e1 = [c.measured for c in r1.checks if c.name.startswith("jacobi-level")]
        e2 = [c.measured for c in r2.checks if c.name.startswith("jacobi-level")]
        assert e2 == pytest.approx([2 * v for v in e1], rel=1e-9)

    def test_wrong_offset_fails(self):
        report = verify_jacobi_route(P3, cutoff=2, tol=1e-4, offset=0.5)
        assert not report.passed


@pytest.fixture(scope="module")
def spherical_report():
    return verify_spherical_route(P3, ranges=(3, 3, 1), tol=1e-4, offset=1.0)


class TestSphericalRoute:
    @pytest.fixture()
    def report(self, spherical_report):
        return spherical_report

    def test_passes(self, report):
        assert report.passed

    def test_ground_energy(self, report):
        ground = next(c for c in report.checks if c.name == "spherical-ground")
        assert ground.measured == pytest.approx(2 + math.sqrt(5) / 2, abs=1e-5)
        assert ground.reference == pytest.approx(
            composite_energy(QuantumTriple(0, 0, 0), P3, 1.0), rel=1e-12)

    def test_counts_and_pairs(self, report):
        count = next(c for c in report.checks if c.name == "spherical-state-count")
        assert count.measured == count.reference == 13.0
        pairs = [c for c in report.checks if c.name.startswith("route-pair")]
        assert len(pairs) == 13
        assert all(c.passed for c in pairs)

    def test_zero_coupling_chain(self):
        # forced chain: f^2_0 = 1 -> k^2_00 = 2 -> E_000 = 2.5
        p0 = ModelParams(omega=1.0, g1_squared=0.0)
        f2 = solve_channel_extrapolated(ChannelSpec(ChannelKind.ANGULAR_PHI, 0.0),
                                        p0, 2001, 1)
        assert f2[0] == pytest.approx(1.0, abs=1e-6)
        k2 = solve_channel_extrapolated(
            ChannelSpec(ChannelKind.ANGULAR_THETA, float(f2[0])), p0, 2001, 1)
        assert k2[0] == pytest.approx(2.0, abs=1e-5)
        e = solve_channel_extrapolated(
            ChannelSpec(ChannelKind.RADIAL, float(k2[0])), p0, 2001, 1)
        assert e[0] == pytest.approx(2.5, abs=1e-5)

    def test_absurd_tolerance_names_first_mismatch(self):
        report = verify_spherical_route(P3, ranges=(1, 1, 0), tol=1e-13, offset=1.0)
        assert not report.passed
        pairs = [c for c in report.checks if c.name.startswith("route-pair")]
        # pairing stops at the first level beyond tolerance and names it
        assert pairs and not pairs[-1].passed
        assert all(c.passed for c in pairs[:-1])
        assert "(n,l,m)" in pairs[-1].provenance and "(n1,n2,n3)" in pairs[-1].provenance


class TestHellmannFeynman:
    @pytest.mark.parametrize("g,expected", [
        (3.0, 1 / (3 * math.sqrt(5))),
        (1.0, 1 / (6 * math.sqrt(7.0 / 12.0))),
    ])
    def test_three_way_agreement(self, g, expected):
        report = hellmann_feynman_check(ModelParams(1.0, g), n2=0, tol=1e-4)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["hf-fd-vs-closed"].measured == pytest.approx(expected, abs=1e-4)
        assert by_name["hf-expectation-vs-closed"].measured == pytest.approx(
            expected, abs=1e-4)
        assert by_name["hf-positivity"].passed

    def test_excited_level(self):
        report = hellmann_feynman_check(P3, n2=2, tol=1e-4)
        assert report.passed

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            hellmann_feynman_check(ModelParams(1.0, 0.0), n2=0)


class TestAudit:
    def test_claims_refuted_at_g3(self):
        report = bk_audit(P3)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        dep = by_name["audit-spectrum-depends-on-g1"]
        assert dep.measured == pytest.approx(
            delta_constant(P3) - delta_constant(ModelParams(1.0, 1.0)), abs=1e-4)
        assert dep.measured == pytest.approx(0.354, abs=1e-3)
        f2 = by_name["audit-f2-not-all-equal"]
        assert f2.measured >= 1.0
        k2 = by_name["audit-k2-not-l(l+1)"]
        assert abs(k2.measured) > 1.0

    def test_claims_refuted_at_g1(self):
        report = bk_audit(ModelParams(1.0, 1.0))
        assert report.passed


class TestVerify3D:
    def test_small_grid_pass(self):
        report = verify_3d(P3, k=4, tol=5e-3, offset=1.0, n_per_axis=41, extent=5.0)
        assert report.passed
        levels = [c for c in report.checks if c.name.startswith("grid3d-level")]
        assert len(levels) == 4
        assert levels[0].reference == pytest.approx(2 + math.sqrt(5) / 2, rel=1e-12)
        pair = next(c for c in report.checks if c.name == "grid3d-mirror-pair")
        assert pair.passed

    def test_closed_reference_doubles_by_sector(self):
        report = verify_3d(P3, k=2, tol=5e-3, offset=1.0, n_per_axis=41, extent=5.0)
        refs = [c.reference for c in report.checks if c.name.startswith("grid3d-level")]
        assert refs[0] == refs[1]


class TestMonotoneCoupling:
    def test_numeric_levels_increase_with_barrier(self):
        # quantitative form of the positivity of dE/d(g1^2), on the numerics
        sweep = [0.0, 1.0, 3.0, 7.5]
        levels = [solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO),
                                             ModelParams(1.0, g), 1001, 3)
                  for g in sweep]
        for lo, hi in zip(levels, levels[1:]):
            assert np.all(hi > lo)
