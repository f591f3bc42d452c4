"""Closed-form energies, spectrum enumeration, scaling and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wolfes4.model import (
    EnergyLevel,
    ModelParams,
    QuantumTriple,
    SphericalQuantum,
    composite_energy,
    delta_constant,
    enumerate_spectrum,
    hf_derivative_closed_form,
    ho_energy,
    radial_energy,
    sho_energy_resolved,
)

P1 = ModelParams(omega=1.0, g1_squared=3.0)
P0 = ModelParams(omega=1.0, g1_squared=0.0)


def fd_barrier_oscillator_oracle(g1_squared, n_level, n_nodes=3000, L=14.0):
    """Independent oracle: half-line oscillator plus barrier, plain 3-point
    stencil sampled at the nodes, Richardson pair.  Built from scratch here,
    on purpose not via the package solvers."""

    def solve(n):
        h = L / (n + 1)
        x = h * np.arange(1, n + 1)
        diag = 1.0 / h**2 + 0.5 * x**2 + g1_squared / (6.0 * x**2)
        off = np.full(n - 1, -0.5 / h**2)
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                             select_range=(0, n_level), lapack_driver="stebz")
        return np.sort(w)[n_level]

    e_h = solve(n_nodes)
    e_half = solve(2 * n_nodes + 1)
    return (4.0 * e_half - e_h) / 3.0


class TestParamsAndConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega=-1.0)
        with pytest.raises(ValueError):
            ModelParams(g1_squared=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ModelParams(omega=bad)
            with pytest.raises(ValueError):
                ModelParams(g1_squared=bad)

    def test_delta(self):
        assert delta_constant(P0) == 0.5
        assert delta_constant(P1) == pytest.approx(math.sqrt(5) / 2, rel=1e-15)

    def test_delta_floor(self):
        # delta >= 1/2 with equality only at zero coupling
        for g in (0.0, 1e-9, 0.5, 10.0):
            d = delta_constant(ModelParams(g1_squared=g))
            assert d >= 0.5
            assert (d == 0.5) == (g == 0.0)

    def test_quantum_triple_validation(self):
        with pytest.raises(ValueError):
            QuantumTriple(-1, 0, 0)
        with pytest.raises(ValueError):
            SphericalQuantum(0, -2, 0)
        assert QuantumTriple(1, 2, 3).total_quanta == 1 + 3 + 2 * 2


class TestHoEnergy:
    def test_ground(self):
        assert ho_energy(0, P1) == 0.5

    def test_examples(self):
        assert ho_energy(3, ModelParams(omega=2.0)) == 7.0
        assert ho_energy(0, ModelParams(omega=0.5)) == 0.25

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ho_energy(-1, P1)


class TestShoEnergy:
    def test_published_examples(self):
        assert sho_energy_resolved(0, P1, 0.5) == pytest.approx(0.5 + math.sqrt(5) / 2,
                                                                rel=1e-15)
        assert sho_energy_resolved(0, P0, 0.5) == 1.0
        assert sho_energy_resolved(2, P0, 0.5) == 5.0

    def test_resolved_zero_coupling_forced(self):
        # the half-line Dirichlet oscillator has levels omega*(2n + 3/2)
        assert sho_energy_resolved(0, P0, 1.0) == 1.5
        assert sho_energy_resolved(1, P0, 1.0) == 3.5

    def test_resolved_vs_independent_oracle(self):
        oracle = fd_barrier_oscillator_oracle(3.0, 0)
        assert sho_energy_resolved(0, P1, 1.0) == pytest.approx(oracle, abs=1e-6)
        assert sho_energy_resolved(0, P1, 1.0) == pytest.approx(1 + math.sqrt(5) / 2,
                                                                rel=1e-15)

    def test_offset_candidates_enforced(self):
        with pytest.raises(ValueError):
            sho_energy_resolved(0, P1, 0.75)


class TestCompositeEnergy:
    def test_zero_coupling(self):
        assert composite_energy(QuantumTriple(0, 0, 0), P0, 1.0) == 2.5
        assert composite_energy(QuantumTriple(1, 0, 1), P0, 1.0) == 4.5

    def test_with_barrier(self):
        e = composite_energy(QuantumTriple(0, 1, 0), P1, 1.0)
        assert e == pytest.approx(4 + math.sqrt(5) / 2, rel=1e-15)
        oracle = 1.0 + fd_barrier_oscillator_oracle(3.0, 1)
        assert e == pytest.approx(oracle, abs=1e-5)


class TestRadialEnergy:
    def test_published(self):
        assert radial_energy(0, 0.0, P1, "published") == 1.5
        assert radial_energy(0, 2.0, P1, "published") == pytest.approx(
            1.5 + (math.sqrt(3) - 1) / 2, rel=1e-15)
        assert radial_energy(1, 0.0, ModelParams(omega=2.0), "published") == 7.0

    def test_candidate(self):
        assert radial_energy(0, 0.0, P1, "candidate") == 1.5
        assert radial_energy(0, 2.0, P1, "candidate") == 2.5
        assert radial_energy(0, 6.0, P1, "candidate") == 3.5

    def test_coincide_only_at_zero(self):
        assert radial_energy(2, 0.0, P1, "published") == radial_energy(2, 0.0, P1, "candidate")
        for k2 in (0.5, 2.0, 6.0, 11.3):
            assert radial_energy(0, k2, P1, "published") != radial_energy(0, k2, P1, "candidate")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown radial rule"):
            radial_energy(0, 2.0, P1, "textbook")


class TestHfDerivative:
    def test_values(self):
        assert hf_derivative_closed_form(P0) == pytest.approx(1 / 3, rel=1e-15)
        assert hf_derivative_closed_form(P1) == pytest.approx(1 / (3 * math.sqrt(5)),
                                                                 rel=1e-15)
        assert hf_derivative_closed_form(ModelParams(omega=2.0, g1_squared=3.0)) \
            == pytest.approx(2 / (3 * math.sqrt(5)), rel=1e-15)

    def test_independent_of_level(self):
        # every SHO level moves with g1^2 at the one rate the closed form gives
        h = 1e-4
        for n2 in (0, 5):
            up, down = (sho_energy_resolved(n2, ModelParams(g1_squared=3.0 + s), 1.0)
                        for s in (h, -h))
            assert (up - down) / (2 * h) == pytest.approx(hf_derivative_closed_form(P1),
                                                          rel=1e-7)

    def test_always_positive(self):
        for g in (0.0, 0.3, 1.0, 3.0, 7.5, 100.0):
            for w in (0.5, 1.0, 2.0):
                assert hf_derivative_closed_form(ModelParams(w, g)) > 0.0


class TestScaling:
    def test_composite_scaling(self):
        base = composite_energy(QuantumTriple(0, 0, 0), P1, 1.0)
        direct = composite_energy(QuantumTriple(0, 0, 0),
                                  ModelParams(omega=2.0, g1_squared=3.0), 1.0)
        assert 2.0 * base == pytest.approx(direct, rel=1e-15)
        assert direct == pytest.approx(2 * (2 + math.sqrt(5) / 2), rel=1e-15)

    @pytest.mark.parametrize("omega", [0.25, 0.5, 2.0, 3.7])
    def test_every_formula_is_linear_in_omega(self, omega):
        unit = ModelParams(omega=1.0, g1_squared=3.0)
        scaled = ModelParams(omega=omega, g1_squared=3.0)
        cases = [
            (ho_energy(2, unit), ho_energy(2, scaled)),
            (sho_energy_resolved(1, unit, 0.5), sho_energy_resolved(1, scaled, 0.5)),
            (sho_energy_resolved(1, unit, 1.0), sho_energy_resolved(1, scaled, 1.0)),
            (composite_energy(QuantumTriple(1, 1, 0), unit, 1.0),
             composite_energy(QuantumTriple(1, 1, 0), scaled, 1.0)),
            (radial_energy(1, 2.0, unit, "published"),
             radial_energy(1, 2.0, scaled, "published")),
            (radial_energy(1, 2.0, unit, "candidate"),
             radial_energy(1, 2.0, scaled, "candidate")),
            (hf_derivative_closed_form(unit), hf_derivative_closed_form(scaled)),
        ]
        for at_unit, at_omega in cases:
            assert at_omega == pytest.approx(omega * at_unit, rel=1e-12)


class TestMonotonicity:
    def test_increasing_in_quantum_numbers(self):
        for n in range(6):
            assert ho_energy(n + 1, P1) > ho_energy(n, P1)
            assert sho_energy_resolved(n + 1, P1, 1.0) > sho_energy_resolved(n, P1, 1.0)
            assert (radial_energy(n + 1, 2.0, P1, "candidate")
                    > radial_energy(n, 2.0, P1, "candidate"))

    def test_nondecreasing_in_coupling(self):
        gs = [0.0, 0.5, 1.0, 3.0, 7.5]
        for lo, hi in zip(gs, gs[1:]):
            a = sho_energy_resolved(0, ModelParams(g1_squared=lo), 1.0)
            b = sho_energy_resolved(0, ModelParams(g1_squared=hi), 1.0)
            assert b > a


def brute_force_degeneracy(n_total):
    """Count triples by explicit loop; independent of enumerate_spectrum."""
    count = 0
    for n1 in range(n_total + 1):
        for n2 in range(n_total + 1):
            for n3 in range(n_total + 1):
                if n1 + n3 + 2 * n2 == n_total:
                    count += 1
    return count


def float_sorted_levels(params, cutoff, offset):
    """Levels found by sorting every triple's float energy and merging values
    within 1e-9 * omega; independent of the N-class construction."""
    triples = sorted(
        (composite_energy(QuantumTriple(n1, n2, n3), params, offset),
         QuantumTriple(n1, n2, n3))
        for n1 in range(cutoff + 1) for n2 in range(cutoff + 1)
        for n3 in range(cutoff + 1) if n1 + n3 + 2 * n2 <= cutoff)
    levels = []
    for e, t in triples:
        if levels and abs(levels[-1][0] - e) <= 1e-9 * params.omega:
            levels[-1][1].add(t)
        else:
            levels.append((e, {t}))
    return levels


class TestEnumerateSpectrum:
    @pytest.mark.parametrize("params", [P1, P0, ModelParams(0.37, 0.3),
                                        ModelParams(2.0, 7.5), ModelParams(3.3, 1e6)])
    @pytest.mark.parametrize("offset", [0.5, 1.0])
    def test_classes_match_the_float_sort(self, params, offset):
        table = enumerate_spectrum(params, 12, offset)
        assert [(lv.value, set(lv.members)) for lv in table.levels] == \
            float_sorted_levels(params, 12, offset)
        assert all(lv.members == sorted(lv.members) for lv in table.levels)

    def test_cutoff_zero(self):
        table = enumerate_spectrum(P1, 0, 1.0)
        assert len(table.levels) == 1
        assert table.levels[0].degeneracy == 1
        assert table.levels[0].members == [QuantumTriple(0, 0, 0)]

    def test_degeneracy_sequence(self):
        table = enumerate_spectrum(P1, 4, 1.0)
        assert [lv.degeneracy for lv in table.levels] == [1, 2, 4, 6, 9]

    def test_sector_doubling(self):
        table = enumerate_spectrum(P1, 4, 1.0, sector_multiplicity=2)
        assert [lv.degeneracy for lv in table.levels] == [2, 4, 8, 12, 18]
        # each triple is listed once and stands for one state per mirror sector
        assert table.levels[0].members == [QuantumTriple(0, 0, 0)]

    def test_against_brute_force(self):
        table = enumerate_spectrum(P1, 8, 1.0)
        for lv in table.levels:
            n_total = lv.members[0].total_quanta
            assert lv.degeneracy == brute_force_degeneracy(n_total)

    @settings(max_examples=25, deadline=None)
    @given(g1_squared=st.floats(0.0, 10.0), cutoff=st.integers(0, 14),
           multiplicity=st.sampled_from([1, 2]), offset=st.sampled_from([0.5, 1.0]))
    def test_class_degeneracies_match_brute_force(self, g1_squared, cutoff,
                                                  multiplicity, offset):
        table = enumerate_spectrum(ModelParams(1.0, g1_squared), cutoff, offset,
                                   multiplicity)
        assert [lv.degeneracy for lv in table.levels] == \
            [multiplicity * brute_force_degeneracy(n) for n in range(cutoff + 1)]

    def test_degeneracy_identity_large(self):
        # degeneracy of class N must equal sum over n2 of (N - 2*n2 + 1)
        for n_total in range(0, 51, 7):
            predicted = sum(n_total - 2 * n2 + 1 for n2 in range(n_total // 2 + 1))
            assert brute_force_degeneracy(n_total) == predicted

    def test_complete_and_sorted(self):
        cutoff = 6
        table = enumerate_spectrum(P1, cutoff, 1.0)
        values = [lv.value for lv in table.levels]
        assert all(b > a for a, b in zip(values, values[1:]))
        seen = [t for lv in table.levels for t in lv.members]
        assert len(seen) == len(set(seen))
        expected = {QuantumTriple(n1, n2, n3)
                    for n1 in range(cutoff + 1)
                    for n2 in range(cutoff + 1)
                    for n3 in range(cutoff + 1)
                    if n1 + n3 + 2 * n2 <= cutoff}
        assert set(seen) == expected

    def test_members_are_plain_quantum_triples(self):
        # enumerate_spectrum builds its triples without re-validating them;
        # they must still act in every way as validated ones
        members = [t for lv in enumerate_spectrum(P1, 9, 1.0).levels for t in lv.members]
        for t in members:
            built = QuantumTriple(t.n1, t.n2, t.n3)
            assert type(t) is QuantumTriple and vars(t) == vars(built)
            assert t == built and hash(t) == hash(built) and repr(t) == repr(built)
            assert not t < built and not built < t
            with pytest.raises(AttributeError):
                t.n1 = 0
        assert members == sorted(members, key=lambda t: (t.total_quanta, t))
        assert len(set(members)) == len(members)

    def test_members_share_value(self):
        table = enumerate_spectrum(P1, 6, 1.0)
        for lv in table.levels:
            for t in lv.members:
                assert composite_energy(t, P1, 1.0) == pytest.approx(lv.value, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_spectrum(P1, -1, 1.0)
        with pytest.raises(ValueError):
            enumerate_spectrum(P1, 2, 1.0, sector_multiplicity=3)
        with pytest.raises(ValueError):
            enumerate_spectrum(ModelParams(omega=1e308), 2, 1.0)

    def test_energy_level_invariant(self):
        # degeneracy is a positive multiple of len(members)
        pair = [QuantumTriple(0, 0, 1), QuantumTriple(1, 0, 0)]
        assert EnergyLevel(value=1.0, degeneracy=4, members=pair).degeneracy == 4
        for degeneracy, members in ((3, pair), (0, pair), (1, [])):
            with pytest.raises(ValueError):
                EnergyLevel(value=1.0, degeneracy=degeneracy, members=members)
