"""Formula resolution, route equivalence, Hellmann-Feynman, audit, 3D check."""

import ast
import math
import re

import numpy as np
import pytest

from wolfes4 import grid3d, numsolve, verify
from wolfes4.grid3d import lanczos_lowest, solve_hd_3d
from wolfes4.model import (
    ModelParams,
    QuantumTriple,
    SphericalQuantum,
    composite_energy,
    delta_constant,
)
from wolfes4.numsolve import (
    ChannelKind,
    ChannelSpec,
    richardson,
    solve_channel_extrapolated,
)
from wolfes4.verify import (
    ResolutionError,
    bk_audit,
    hellmann_feynman_check,
    resolve_formula_offsets,
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
        assert by_name["discrepancy-sho-printed[g1sq=0,omega=1]"].measured \
            == pytest.approx(0.5, abs=1e-3)
        assert by_name["discrepancy-radial-printed[k2=2,omega=1]"].measured \
            == pytest.approx(1.0 - (math.sqrt(3) - 1) / 2, abs=1e-3)

    def test_impossible_tolerance_is_ambiguity(self):
        with pytest.raises(ResolutionError) as err:
            resolve_formula_offsets(n_points=301, tol=1e-15)
        assert err.value.table  # residual table attached

    def test_a_coupling_repeated_at_two_omegas_keeps_both_cases(self):
        sweep = [ModelParams(1.0, 3.0), ModelParams(2.0, 3.0), ModelParams(1.0, 0.0)]

        def residuals(params_list):
            # at tol 0 nothing fits, and the error gives each family's worst
            # residual by candidate
            with pytest.raises(ResolutionError) as err:
                resolve_formula_offsets(params_list, n_points=1001, tol=0.0)
            return [ast.literal_eval(d) for d in re.findall(r"\{[^}]*\}", str(err.value))]

        singles = [residuals([p]) for p in sweep]
        fits = residuals(sweep)
        assert len(fits) == 2
        for family, worst in enumerate(fits):
            assert worst == {c: max(s[family][c] for s in singles) for c in worst}

        def printed(report, family):
            return [(c.name, c.measured) for c in report.checks
                    if c.name.startswith(f"discrepancy-{family}")]

        reports = [resolve_formula_offsets([p], n_points=1001)[2] for p in sweep]
        _, _, report = resolve_formula_offsets(sweep, n_points=1001)
        # each case keeps its own entry, both g1^2 = 3 ones among them, by its own name
        assert printed(report, "sho") == [e for r in reports for e in printed(r, "sho")]
        names = [c.name for c in report.checks]
        assert len(set(names)) == len(names)
        assert printed(report, "radial") == printed(reports[0], "radial") + printed(
            reports[1], "radial")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            resolve_formula_offsets(params_list=[])

    def test_mixed_omega_sweep(self):
        sweep = [ModelParams(1.0, 0.0), ModelParams(2.0, 1.0),
                 ModelParams(1.0, 3.0), ModelParams(0.5, 7.5)]
        offset, rule, report = resolve_formula_offsets(sweep, n_points=1001)
        assert offset == 1.0 and rule == "candidate"
        assert report.passed


@pytest.mark.parametrize("route, least", [
    (lambda n: verify_jacobi_route(P3, 6, offset=1.0, n_points=n), 7),
    (lambda n: verify_spherical_route(P3, 4, offset=1.0, n_points=n), 5),
    (lambda n: resolve_formula_offsets(n_points=n), 6)],
    ids=["jacobi", "spherical", "resolution"])
def test_too_few_channel_points_rejected_before_any_solve(monkeypatch, route, least):
    # each route needs as many points as the most levels it asks of one channel
    with monkeypatch.context() as patched:
        solved = []
        patched.setattr(verify, "solve_channel_extrapolated", lambda *a, **kw: solved.append(a))
        with pytest.raises(ValueError, match=f"needs at least {least} grid points, "
                                             f"got {least - 1}$"):
            route(least - 1)
        assert solved == []
    # the least count runs: too coarse to pass, or to resolve, but solved
    try:
        assert not route(least).passed
    except ResolutionError:
        pass


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

    @pytest.mark.parametrize("params", [ModelParams(1.0, 0.0), ModelParams(1.0, 3.0),
                                        ModelParams(2.5, 0.3)], ids=str)
    def test_mirror_triples_tie_exactly(self, params):
        # (n1, n2, n3) and (n3, n2, n1) carry the same bits, so the sort and
        # every provenance name the first of them, not a rounding-dependent one
        levels = verify._jacobi_numeric_levels(params, 6, 2001)
        energy = {t: e for e, t in levels}
        rank = {t: i for i, (_, t) in enumerate(levels)}
        for t, e in energy.items():
            mirror = QuantumTriple(t.n3, t.n2, t.n1)
            assert energy[mirror] == e
            assert (rank[t] < rank[mirror]) == (t.n1 < t.n3)
        report = verify_jacobi_route(params, cutoff=6, tol=1e-4, offset=1.0)
        for c in report.checks:
            if c.name.startswith("jacobi-level"):
                n1, _, n3 = map(int, re.search(r"=\((\d+),(\d+),(\d+)\)", c.provenance).groups())
                assert n1 <= n3, c.provenance


@pytest.fixture(scope="module")
def spherical_report():
    return verify_spherical_route(P3, n_cap=3, tol=1e-4, offset=1.0)


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
                                        p0, 2001, 1).values
        assert f2[0] == pytest.approx(1.0, abs=1e-6)
        k2 = solve_channel_extrapolated(
            ChannelSpec(ChannelKind.ANGULAR_THETA, float(f2[0])), p0, 2001, 1).values
        assert k2[0] == pytest.approx(2.0, abs=1e-5)
        e = solve_channel_extrapolated(
            ChannelSpec(ChannelKind.RADIAL, float(k2[0])), p0, 2001, 1).values
        assert e[0] == pytest.approx(2.5, abs=1e-5)

    @pytest.mark.parametrize("ranges", [(4, 4, 2), (5, 4, 3)])
    def test_solves_only_the_checked_states(self, monkeypatch, ranges):
        # both (m_max, l_max, n_max) boxes cap the total quanta at
        # min(m_max, l_max, 2 n_max + 1) = 4: the chain solves the 15 (l, m)
        # with l + m <= 4 and, for each, the n with 2n + l + m <= 4
        m_max, l_max, n_max = ranges
        n_cap = min(m_max, l_max, 2 * n_max + 1)
        solved = []

        def spy(spec, params, n_points, k, tol=None):
            solved.append((spec.kind, k))
            return solve_channel_extrapolated(spec, params, n_points, k, tol=tol)

        monkeypatch.setattr(verify, "solve_channel_extrapolated", spy)
        verify_spherical_route(P3, n_cap=n_cap, offset=1.0, n_points=201)

        def levels(kind):
            return [k for kind_, k in solved if kind_ is kind]

        assert levels(ChannelKind.ANGULAR_PHI) == [5]
        assert levels(ChannelKind.ANGULAR_THETA) == [5, 4, 3, 2, 1]
        radial = levels(ChannelKind.RADIAL)
        assert (len(radial), sum(radial)) == (15, 22)

    @pytest.mark.parametrize("g1_squared", [0.0, 3.0, 100.0])
    def test_trimmed_chain_matches_full_box(self, g1_squared):
        # the full (m, l, n) <= (4, 4, 2) box; stebz places the last bits of
        # a level by how many levels are asked for
        p = ModelParams(omega=1.0, g1_squared=g1_squared)
        n_cap, n_points = 4, 2001

        def solve(kind, coefficient, k):
            return solve_channel_extrapolated(ChannelSpec(kind, float(coefficient)),
                                              p, n_points, k).values

        f2 = solve(ChannelKind.ANGULAR_PHI, g1_squared / 3.0, n_cap + 1)
        full = {}
        for m, f2m in enumerate(f2):
            for l, k2 in enumerate(solve(ChannelKind.ANGULAR_THETA, f2m, n_cap + 1)):
                for n, e in enumerate(solve(ChannelKind.RADIAL, k2, n_cap // 2 + 1)):
                    if 2 * n + l + m <= n_cap:
                        full[SphericalQuantum(n_r=n, l=l, m=m)] = float(e)

        trimmed = verify._spherical_chain(p, n_cap, n_points)
        assert trimmed.keys() == full.keys()
        assert max(abs(trimmed[q] - full[q]) for q in full) <= 2e-9

    def test_absurd_tolerance_names_first_mismatch(self):
        report = verify_spherical_route(P3, n_cap=1, tol=1e-13, offset=1.0)
        assert not report.passed
        pairs = [c for c in report.checks if c.name.startswith("route-pair")]
        # pairing stops at the first level beyond tolerance and names it
        assert pairs and not pairs[-1].passed
        assert all(c.passed for c in pairs[:-1])
        assert "(n,l,m)" in pairs[-1].provenance and "(n1,n2,n3)" in pairs[-1].provenance


def exact_levels(spec, params, k):
    """The k lowest eigenvalues of a channel's own operator, in closed form.

    Each kind is x^b-regular at its walls with b(b - 1) its inverse-square
    strength over its kinetic prefactor; RADIAL and ANGULAR_THETA take their
    coupling as solved, so a chained pair is judged against its own problem.
    """
    n = np.arange(k)
    w = params.omega
    if spec.kind is ChannelKind.HO:
        return w * (n + 0.5)
    if spec.kind is ChannelKind.SHO:
        return w * (2 * n + 1 + delta_constant(params))
    if spec.kind is ChannelKind.RADIAL:  # s(s + 1) = k^2
        return w * (2 * n + 1.5 + 0.5 * (math.sqrt(4 * spec.coefficient + 1) - 1))
    if spec.kind is ChannelKind.ANGULAR_PHI:  # f^2 = (m + b)^2
        return (n + 0.5 + math.sqrt(0.25 + spec.coefficient)) ** 2
    return (n + math.sqrt(spec.coefficient) + 0.5) ** 2 - 0.25  # k^2 = (l + f + 1/2)^2 - 1/4


class TestSizedPairs:
    """With no point count, each pair is the coarsest its pilot predicts meets its check."""

    @pytest.mark.parametrize("omega", [1e-3, 2.5])
    @pytest.mark.parametrize("g1sq", [0.0, 0.3, 1e4])
    def test_each_pair_meets_its_target_at_the_corners(self, monkeypatch, omega, g1sq):
        # every sized pair of resolution, both routes at --max-quanta 0 and 60
        # (the spherical route at its cap of 4) and audit: a pair below the
        # top (2001, 4003) one is within PAIR_ERROR_FRACTION of the tol it
        # was sized to, and none is finer than the top pair; a pair at the
        # top is the one an explicit 2001 points solves, on its fitted box
        pairs = []

        def spy(spec, params, n_points, k, tol=None, **kw):
            pair = solve_channel_extrapolated(spec, params, n_points, k, tol=tol, **kw)
            pairs.append((spec, params, k, tol, pair))
            return pair

        monkeypatch.setattr(verify, "solve_channel_extrapolated", spy)
        p = ModelParams(omega=omega, g1_squared=g1sq)
        resolve_formula_offsets([p])
        for quanta in (0, 60):
            assert verify_jacobi_route(p, quanta, offset=1.0).passed
            assert verify_spherical_route(p, min(quanta, 4), offset=1.0).passed
        bk_audit(p)
        below = 0
        for spec, params, k, tol, pair in pairs:
            top = numsolve.recommended_grid(spec.kind, numsolve.CHANNEL_POINTS)
            assert pair.coarse.grid.spacing >= top.spacing * (1 - 1e-12)
            assert pair.fine.grid.spacing >= top.spacing / 2 * (1 - 1e-12)
            if pair.coarse.grid.spacing > top.spacing * (1 + 1e-12):
                below += 1
                err = np.max(np.abs(pair.values - exact_levels(spec, params, k)))
                assert err <= numsolve.PAIR_ERROR_FRACTION * tol, (spec, k)
        assert below >= len(pairs) // 4


class TestHellmannFeynman:
    @pytest.mark.parametrize("g,expected", [
        (3.0, 1 / (3 * math.sqrt(5))),
        (1.0, 1 / (6 * math.sqrt(7.0 / 12.0))),
        # below g1^2 = 2.25 the expectation's lowest error term is h^(2 delta), delta < 1
        (0.2, 1 / (6 * math.sqrt(19.0 / 60.0))),
        (1e-3, 1 / (6 * math.sqrt(751.0 / 3000.0))),
    ])
    def test_three_way_agreement(self, g, expected):
        report = hellmann_feynman_check(ModelParams(1.0, g), n2=0, tol=1e-4)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["hf-fd-vs-closed"].measured == pytest.approx(expected, abs=1e-4)
        assert by_name["hf-expectation-vs-closed"].measured == pytest.approx(
            expected, abs=1e-4)
        assert by_name["hf-positivity"].passed

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 2.5])
    @pytest.mark.parametrize("g1sq", [1e-3, 0.01, 0.3, 1.0, 2.2, 2.25, 2.26, 3.0, 7.5, 11.0,
                                      11.5, 100.0, 1e4])
    def test_expectation_within_its_measured_ceiling(self, omega, g1sq):
        # three grids cancel the two lowest of h^(2 delta), h^2 and h^4, which
        # nearly meet at 2.2 and 2.26 (2 delta near 2) and at 11 and 11.5 (near
        # 4).  Measured worst, in units of omega: 2.5e-8 below 0.3, 1.4e-9 up to
        # 1, 9.8e-11 above; one Richardson pair read 2.0e-6, 1.1e-6 and 3.2e-7 at
        # 1e-3, 0.3 and 1, and 1.2e-8 at 3
        ceiling = 5e-8 if g1sq < 0.3 else 3e-9 if g1sq <= 1.0 else 2e-10
        report = hellmann_feynman_check(ModelParams(omega, g1sq), n2=0)
        entry = next(c for c in report.checks if c.name == "hf-expectation-vs-closed")
        assert abs(entry.measured - entry.reference) <= ceiling * omega

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
        # the lowest 4 states hold all of class N = 0 (2 states) and only
        # part of N = 1 (4), so only N = 0 is checked
        report = verify_3d(P3, k=4, tol=5e-3, offset=1.0, n_per_axis=41, extent=5.0)
        assert report.passed
        assert [c.name for c in report.checks] == ["grid3d-level[N=0]",
                                                   "grid3d-degeneracy[N=0]",
                                                   "grid3d-dvr-error"]
        assert report.checks[0].reference == pytest.approx(2 + math.sqrt(5) / 2, rel=1e-12)
        assert (report.checks[1].measured, report.checks[1].tolerance) == (2.0, 0.0)

    @pytest.mark.parametrize("g1_squared", [0.0, 0.3, 1.0])
    def test_weak_barrier_passes_on_benchmark_grid(self, g1_squared):
        # each class's level and degeneracy, at the default tol 5e-3; g1^2 = 0
        # is the impenetrable limit (ground 2.5, not the free oscillator's 1.5)
        report = verify_3d(ModelParams(1.0, g1_squared), k=6, offset=1.0,
                           n_per_axis=41, extent=5.5)
        assert report.checks[0].reference == pytest.approx(
            2.0 + math.sqrt(0.25 + g1_squared / 3.0), rel=1e-12)
        assert [(c.name, c.measured) for c in report.checks[1::2]] == [
            ("grid3d-degeneracy[N=0]", 2.0), ("grid3d-degeneracy[N=1]", 4.0)]
        assert len(report.checks) == 5
        assert report.passed

    @pytest.mark.parametrize("sector, count, failing", [
        ((1, -1, 0), 2, "grid3d-level[N=1]"),       # its X1 <-> X3 partner lost
        ((1, 1, 1), 4, "grid3d-degeneracy[N=0]"),   # a spurious partner
    ])
    def test_wrong_multiplicity_fails(self, monkeypatch, sector, count, failing):
        monkeypatch.setattr(grid3d, "SECTORS", {**grid3d.SECTORS, sector: count})
        report = verify_3d(P3, k=6, offset=1.0, n_per_axis=41, extent=5.5)
        assert [c.name for c in report.checks if not c.passed] == [failing]

    @pytest.mark.parametrize("n_per_axis, extent", [(41, 5.5), (61, 7.0), (30, 7.0)])
    @pytest.mark.parametrize("g1_squared", [0.0, 1.0, 3.0, 100.0])
    def test_partner_levels_pair_as_the_full_solves_do(self, n_per_axis, extent,
                                                       g1_squared, monkeypatch):
        # the partner grid solves only the sector levels the fine grid holds;
        # paired by sector and rank they must give what full solves of both
        # grids, paired by position, give
        asked = []

        def recording(matvec, n, k, **kwargs):
            asked.append(k)
            return lanczos_lowest(matvec, n, k, **kwargs)

        monkeypatch.setattr(grid3d, "lanczos_lowest", recording)
        params = ModelParams(2.5, g1_squared)
        report = verify_3d(params, k=6, offset=1.0, n_per_axis=n_per_axis, extent=extent)
        # five fine sectors at the Perron-Frobenius budget, then the partner's,
        # then the partner's again with 4 DVR nodes fewer
        assert len(asked) == 9 and sum(asked[5:7]) == 2 and asked[7:] == asked[5:7]

        fine = solve_hd_3d(params, n_per_axis, extent, 6).eigenvalues
        coarse = solve_hd_3d(params, n_per_axis // 2, extent, 6).eigenvalues
        m = min(len(fine), len(coarse))
        ratio = (n_per_axis // 2 + 1) / (n_per_axis // 4 + 1)
        expected = richardson(coarse[:m], fine[:m], ratio)
        levels = [c.measured for c in report.checks if c.name.startswith("grid3d-level")]
        assert m == 2
        assert levels == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    def test_dvr_error_entry(self, omega):
        # the partner levels with 4 DVR nodes fewer move by ~1e-12 at 61 / 7,
        # in units of omega, against tol / 100
        report = verify_3d(ModelParams(omega, 3.0), k=6, offset=1.0, n_per_axis=61,
                           extent=7.0)
        entry = report.checks[-1]
        assert entry.name == "grid3d-dvr-error" and entry.passed
        assert (entry.reference, entry.tolerance) == (0.0, 5e-5 * omega)
        assert 0.0 <= entry.measured <= 1e-11 * omega
        assert "29 nodes has 25" in entry.provenance

    def test_coarse_dvr_fails_the_dvr_error_entry(self, monkeypatch):
        # a DVR spacing of 1 leaves the floor of 17 nodes over 7, 0.78 apart
        monkeypatch.setattr(grid3d, "DVR_SPACING", 1.0)
        report = verify_3d(P3, k=6, offset=1.0, n_per_axis=61, extent=7.0)
        assert [c.name for c in report.checks if not c.passed] == ["grid3d-dvr-error"]
        assert report.checks[-1].measured > 10 * report.checks[-1].tolerance

    def test_partner_and_dvr_solves_start_warm(self, monkeypatch):
        # the fine grid starts cold and takes 199 matvecs; the partner's two
        # solves start from its vectors and dvr_change's two from the
        # partner's, one Lanczos cycle each, where cold starts took 116 + 116
        solves = []

        def counting(matvec, n, k, **kwargs):
            calls = []

            def counted(u):
                calls.append(n)
                return matvec(u)

            out = lanczos_lowest(counted, n, k, **kwargs)
            solves.append((kwargs.get("start") is not None, len(calls)))
            return out

        monkeypatch.setattr(grid3d, "lanczos_lowest", counting)
        report = verify_3d(P3, k=6, offset=1.0, n_per_axis=41, extent=5.5)
        assert report.passed
        assert [warm for warm, _ in solves] == [False] * 5 + [True] * 4
        assert sum(matvecs for _, matvecs in solves) <= 320
        assert all(matvecs <= grid3d.SECTOR_KRYLOV_DIM for _, matvecs in solves[5:])

    def test_residuals_quoted(self):
        report = verify_3d(P3, k=6, offset=1.0, n_per_axis=41, extent=5.5)
        for c in report.checks:
            if c.name.startswith("grid3d-level"):
                fine, coarse = re.search(r"largest Lanczos residual: fine grid (\S+), "
                                         r"coarse (\S+)$", c.provenance).groups()
                assert 0.0 < float(fine) <= 5e-8 and 0.0 < float(coarse) <= 5e-8

    def test_tolerance_in_units_of_omega(self):
        report = verify_3d(ModelParams(4.0, 3.0), k=2, tol=5e-3, offset=1.0,
                           n_per_axis=41, extent=5.5)
        assert report.checks[0].tolerance == 2e-2
        assert report.checks[0].reference == pytest.approx(4 * (2 + math.sqrt(5) / 2))
        assert report.passed

    def test_k_must_cover_the_ground_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            verify_3d(P3, k=1, offset=1.0, n_per_axis=16, extent=5.0)

    def test_levels_scale_with_omega(self):
        # the grid is the omega = 1 grid in units of 1/sqrt(omega), so every
        # level is omega times the omega = 1 level, however small or large;
        # the provenance quotes the grid levels in units of omega
        def levels(omega):
            report = verify_3d(ModelParams(omega, 3.0), k=6, offset=1.0,
                               n_per_axis=41, extent=5.5)
            assert report.passed
            levels = [c for c in report.checks if c.name.startswith("grid3d-level")]
            quoted = [re.search(r"fine grid (\S+), coarse (\S+),", c.provenance).groups()
                      for c in levels]
            return (np.array([c.measured for c in levels]), np.array(quoted, dtype=float))

        unit, unit_quoted = levels(1.0)
        assert np.all(unit_quoted > 2.0)
        for omega in (1e-150, 1e-14, 1e-10, 1e100):
            measured, quoted = levels(omega)
            assert measured / omega == pytest.approx(unit, rel=1e-9)
            assert quoted == pytest.approx(unit_quoted, abs=1.1e-6)


class TestMonotoneCoupling:
    def test_numeric_levels_increase_with_barrier(self):
        # quantitative form of the positivity of dE/d(g1^2), on the numerics
        sweep = [0.0, 1.0, 3.0, 7.5]
        levels = [solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO),
                                             ModelParams(1.0, g), 1001, 3).values
                  for g in sweep]
        for lo, hi in zip(levels, levels[1:]):
            assert np.all(hi > lo)
