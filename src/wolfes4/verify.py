"""Cross-validation of the closed forms against the independent numerical routes.

Three sources of truth are compared at desk scale: the closed-form level
formulas (after their printed constants are resolved), the chained
azimuthal -> polar -> radial eigensolves, and direct 3D diagonalization.
Every comparison is recorded as a named check entry with the measured value,
the reference, the tolerance and a provenance note; a report passes only if
every gating entry passes.  Energies scale with omega; so do their tolerances.
A 1D check given no point count passes its tolerance to each channel pair,
which sizes its grids to it (``numsolve.solve_channel_extrapolated``); a
given count fixes every pair, and ``hellmann_feynman_check``, whose central
difference compares solves at four couplings, keeps ``CHANNEL_POINTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .grid3d import check_grid, dvr_change, solve_hd_3d, solve_partner
from .model import (
    ModelParams,
    QuantumTriple,
    RADIAL_RULES,
    SHO_OFFSET_CANDIDATES,
    SphericalQuantum,
    composite_energy,
    delta_constant,
    enumerate_spectrum,
    hf_derivative_closed_form,
    radial_energy,
    sho_energy_resolved,
)
from .numsolve import (
    CHANNEL_POINTS,
    ChannelKind,
    ChannelSpec,
    richardson,
    solve_channel,  # not called here; perfbench/tracing.py wraps it by name
    solve_channel_extrapolated,
    solve_grids,
    expectation,
)

#: Uniform residual bound for accepting a formula candidate.
RESOLUTION_TOL = 1e-4
#: Tighter bound for the analytically forced anchor values.
ANCHOR_TOL = 1e-5
#: Barrier strengths of the standard resolution sweep.
STANDARD_SWEEP = (0.0, 1.0, 3.0, 7.5)
#: Centrifugal strengths probed on the radial channel during resolution;
#: k^2 = 2 is also an anchor.
STANDARD_RADIAL_KSQ = (2.0, 6.0)
#: Lowest levels of each channel compared against the candidate formulas.
RESOLUTION_LEVELS = 6
#: Default grid of the 3D check: points per axis, box half-width in oscillator lengths.
GRID3D_POINTS = 61
GRID3D_EXTENT = 7.0
#: Bound on the Richardson-extrapolated 3D grid levels against the closed forms.
GRID3D_TOL = 5e-3


class ResolutionError(RuntimeError):
    """Formula resolution was ambiguous or matched no candidate."""

    def __init__(self, message: str, table: dict | None = None):
        super().__init__(message)
        self.table = table or {}


@dataclass
class CheckEntry:
    name: str
    status: str  # "pass" | "fail"
    measured: float
    reference: float
    tolerance: float
    provenance: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    checks: list[CheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, measured: float, reference: float, tolerance: float,
            provenance: str = "", ok: bool | None = None) -> CheckEntry:
        if ok is None:
            ok = abs(measured - reference) <= tolerance
        entry = CheckEntry(name=name, status="pass" if ok else "fail",
                           measured=float(measured), reference=float(reference),
                           tolerance=float(tolerance), provenance=provenance)
        self.checks.append(entry)
        return entry

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)


def _require_points(n_points: int | None, levels: int, route: str) -> None:
    """Reject, before any solve, a given channel grid of fewer points than the
    most levels ``route`` asks of one channel, or than the 3 a grid holds."""
    least = max(levels, 3)
    if n_points is not None and n_points < least:
        why = (f"{route} asks a channel for {levels} levels" if levels >= 3
               else f"{route} solves every channel on at least 3 points")
        raise ValueError(f"{why}, so it needs at least {least} grid points, got {n_points}")


def _pmap(fn: Callable, items: Sequence) -> list:
    """Map in order over independent channel solves.

    Worker threads measured no faster here.  The function stays because
    ``perfbench/tracing.py`` wraps it by name.
    """
    return [fn(x) for x in items]


def resolve_formula_offsets(params_list: Sequence[ModelParams] | None = None,
                            n_points: int | None = None, tol: float = RESOLUTION_TOL,
                            ) -> tuple[float, str, VerificationReport]:
    """Select the SHO offset and the radial exponent rule that match the numerics.

    For every parameter set the lowest RESOLUTION_LEVELS eigenvalues of the
    SHO channel are compared against omega*(2n + offset + delta) for both
    candidate offsets, and the radial channel (for each k^2 of
    STANDARD_RADIAL_KSQ) against both printed and corrected exponent rules.
    Exactly one candidate per family must fit within ``tol`` uniformly, in
    units of omega; anything else raises ResolutionError with the residuals.
    Each pair is sized to the smaller of ``tol`` and ANCHOR_TOL unless
    ``n_points`` is given.  Raises ValueError for an empty ``params_list`` or
    fewer ``n_points`` than RESOLUTION_LEVELS.
    """
    if params_list is None:
        params_list = [ModelParams(omega=1.0, g1_squared=g) for g in STANDARD_SWEEP]
    if not params_list:
        raise ValueError("params_list must be nonempty")
    _require_points(n_points, RESOLUTION_LEVELS, "resolution")

    report = VerificationReport()
    sho_cases = [(p,) for p in params_list]
    omegas = sorted({p.omega for p in params_list})
    radial_cases = [(k2, ModelParams(omega=w, g1_squared=0.0))
                    for w in omegas for k2 in STANDARD_RADIAL_KSQ]
    sho_spec = ChannelSpec(ChannelKind.SHO)
    aim = min(tol, ANCHOR_TOL)  # in units of omega, as the residuals and anchors are
    sho_numeric = _pmap(
        lambda case: solve_channel_extrapolated(sho_spec, case[0], n_points, RESOLUTION_LEVELS,
                                                tol=aim * case[0].omega).values,
        sho_cases)
    radial_numeric = _pmap(
        lambda case: solve_channel_extrapolated(
            ChannelSpec(ChannelKind.RADIAL, coefficient=case[0]), case[1], n_points,
            RESOLUTION_LEVELS, tol=aim * case[1].omega).values,
        radial_cases)

    # A case holds the closed form's arguments before the candidate, its
    # ModelParams last; table[family][i] is case i's residual by candidate.
    table: dict = {}
    worst: dict = {}
    for family, cases, numeric, candidates, closed_form in (
            ("sho", sho_cases, sho_numeric, SHO_OFFSET_CANDIDATES, sho_energy_resolved),
            ("radial", radial_cases, radial_numeric, RADIAL_RULES, radial_energy)):
        table[family] = []
        for case, e_num in zip(cases, numeric):
            by_candidate = {}
            for c in candidates:
                closed = np.array([closed_form(n, *case, c) for n in range(RESOLUTION_LEVELS)])
                by_candidate[c] = float(np.max(np.abs(e_num - closed))) / case[-1].omega
            table[family].append(by_candidate)
        worst[family] = {c: max(r[c] for r in table[family]) for c in candidates}
    winners = [[c for c, r in resid.items() if r < tol] for resid in worst.values()]
    if any(len(w) != 1 for w in winners):
        raise ResolutionError(
            "formula resolution is ambiguous or matched nothing: "
            f"sho residuals {worst['sho']}, radial residuals {worst['radial']}",
            table=table)
    (offset,), (rule,) = winners

    # analytically forced anchors
    zero_barrier = [p for p in params_list if p.g1_squared == 0.0]
    if zero_barrier:
        p0 = zero_barrier[0]
        ground = sho_numeric[list(params_list).index(p0)][0]
        report.add("sho-anchor[g1sq=0]", ground, 1.5 * p0.omega, ANCHOR_TOL * p0.omega,
                   "half-line Dirichlet oscillator forces omega*(2n + 3/2)")
    w = omegas[0]
    e = radial_numeric[radial_cases.index((2.0, ModelParams(omega=w, g1_squared=0.0)))][0]
    report.add("radial-anchor[k2=2]", e, 2.5 * w, ANCHOR_TOL * w,
               "k^2 = 2 is the l = 1 isotropic-oscillator channel, "
               "E = omega*(2n + l + 3/2)")

    for family, word, choice in (("sho", "offset", offset), ("radial", "rule", rule)):
        report.add(f"{family}-{word}-unique", worst[family][choice], 0.0, tol,
                   f"selected {word} {choice}; residuals by candidate: "
                   + ", ".join(f"{c} -> {r:.3e}" for c, r in worst[family].items()))

    # discrepancy table against the printed forms, each family's first
    # candidate (informational, never gates)
    for family, labels, printed in (
            ("sho", [f"g1sq={p.g1_squared:g},omega={p.omega:g}" for p in params_list],
             "omega*(2n + 1/2 + delta)"),
            ("radial", [f"k2={k2:g},omega={p.omega:g}" for k2, p in radial_cases],
             "s = (sqrt(k^2 + 1) - 1)/2 rule")):
        for label, by_candidate in zip(labels, table[family]):
            report.add(f"discrepancy-{family}-printed[{label}]",
                       next(iter(by_candidate.values())), 0.0, math.inf,
                       f"informational: residual of the printed {printed} "
                       "against the numerics", ok=True)
    return offset, rule, report


def _jacobi_numeric_levels(params: ModelParams, cutoff: int, n_points: int | None,
                           tol: float = RESOLUTION_TOL) -> list[tuple[float, QuantumTriple]]:
    """Numeric composite levels E(n2) + (E(n1) + E(n3)) for all triples with N <= cutoff.

    Both channels' pairs are sized to ``tol``, in units of omega, unless
    ``n_points`` is given.  Adding the two HO levels first makes (n1, n2, n3)
    and (n3, n2, n1) carry bitwise-equal energies, so the sort names the
    first of them.
    """
    e_ho = solve_channel_extrapolated(ChannelSpec(ChannelKind.HO), params, n_points,
                                      cutoff + 1, tol=tol * params.omega).values
    e_sho = solve_channel_extrapolated(ChannelSpec(ChannelKind.SHO), params, n_points,
                                       cutoff // 2 + 1, tol=tol * params.omega).values
    out = []
    for n2 in range(cutoff // 2 + 1):
        for n1 in range(cutoff - 2 * n2 + 1):
            for n3 in range(cutoff - 2 * n2 - n1 + 1):
                out.append((float(e_sho[n2] + (e_ho[n1] + e_ho[n3])),
                            QuantumTriple(n1, n2, n3)))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def verify_jacobi_route(params: ModelParams, cutoff: int, *, offset: float,
                        tol: float = RESOLUTION_TOL,
                        n_points: int | None = None) -> VerificationReport:
    """Check that summed 1D channel numerics reproduce the closed-form table.

    Each channel pair is sized to ``tol`` unless ``n_points`` is given, which
    must be at least cutoff + 1, the HO levels it asks for, and 3.
    """
    _require_points(n_points, cutoff + 1, "the Jacobi route")
    report = VerificationReport()
    numeric = _jacobi_numeric_levels(params, cutoff, n_points, tol)
    closed = enumerate_spectrum(params, cutoff, offset, sector_multiplicity=1)

    i = 0
    for n, level in enumerate(closed.levels):
        states = numeric[i:i + level.degeneracy]
        i += level.degeneracy
        e_num, t = max(states, key=lambda s: abs(s[0] - level.value))
        report.add(f"jacobi-level[N={n}]", e_num, level.value, tol * params.omega,
                   f"worst of {level.degeneracy} states at this level, "
                   f"triple (n1,n2,n3)=({t.n1},{t.n2},{t.n3})")
    report.add("jacobi-state-count", float(len(numeric)),
               float(sum(lv.degeneracy for lv in closed.levels)), 0.0,
               "triple enumeration agrees with the closed-form degeneracy total")
    return report


def _spherical_chain(params: ModelParams, n_cap: int, n_points: int | None,
                     tol: float = RESOLUTION_TOL) -> dict[SphericalQuantum, float]:
    """Chained energies of exactly the states (n, l, m) with 2n + l + m <= n_cap.

    f^2 for m <= n_cap; then, in row m, k^2 for l <= n_cap - m; then, for each
    (l, m), E for n <= (n_cap - l - m) // 2.  No channel is asked for a level
    outside that set.  Unless ``n_points`` is given, each pair is sized to
    ``tol`` in units of omega: E's to tol * omega, and f^2's and k^2's to tol,
    as an error in either moves E by at most omega times it.
    """
    f2 = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.ANGULAR_PHI, coefficient=params.g1_squared / 3.0),
        params, n_points, n_cap + 1, tol=tol).values
    k2_rows = _pmap(
        lambda m: solve_channel_extrapolated(
            ChannelSpec(ChannelKind.ANGULAR_THETA, coefficient=float(f2[m])),
            params, n_points, n_cap - m + 1, tol=tol).values,
        range(n_cap + 1))
    cases = [(l, m) for m in range(n_cap + 1) for l in range(n_cap - m + 1)]
    radial_rows = _pmap(
        lambda lm: solve_channel_extrapolated(
            ChannelSpec(ChannelKind.RADIAL, coefficient=float(k2_rows[lm[1]][lm[0]])),
            params, n_points, (n_cap - lm[0] - lm[1]) // 2 + 1, tol=tol * params.omega).values,
        cases)
    return {SphericalQuantum(n_r=n, l=l, m=m): float(e)
            for (l, m), row in zip(cases, radial_rows) for n, e in enumerate(row)}


def verify_spherical_route(params: ModelParams, n_cap: int, *,
                           offset: float, tol: float = RESOLUTION_TOL,
                           n_points: int | None = None) -> VerificationReport:
    """Check the chained spherical solve against the separated route, as multisets.

    Both routes are enumerated completely up to the total-quanta class
    ``n_cap``: the chain solves exactly the (n, l, m) with 2n + l + m <= n_cap.
    The two sorted energy multisets are paired greedily; the first unpaired
    level is named.  Each channel pair is sized to ``tol`` unless ``n_points``
    is given, which must be at least n_cap + 1, the f^2 levels asked, and 3.
    """
    _require_points(n_points, n_cap + 1, "the spherical route")
    report = VerificationReport()

    spherical = sorted((e, q) for q, e in _spherical_chain(params, n_cap, n_points,
                                                           tol).items())
    jacobi = _jacobi_numeric_levels(params, n_cap, n_points, tol)
    tol = tol * params.omega

    report.add("spherical-state-count", float(len(spherical)), float(len(jacobi)),
               0.0, f"both routes enumerate every state with total quanta <= {n_cap}; "
               "the observed correspondence is N = 2n + l + m")
    ground = composite_energy(QuantumTriple(0, 0, 0), params, offset)
    if spherical:
        report.add("spherical-ground", spherical[0][0], ground, tol,
                   "lowest chained energy vs the resolved closed form")
    for idx, ((e_s, q), (e_j, t)) in enumerate(zip(spherical, jacobi)):
        pair = report.add(f"route-pair[{idx}]", e_s, e_j, tol,
                          f"spherical (n,l,m)=({q.n_r},{q.l},{q.m}) vs "
                          f"jacobi (n1,n2,n3)=({t.n1},{t.n2},{t.n3})")
        if not pair.passed:
            break
    return report


def _eliminate(values: Sequence[float], spacings: Sequence[float],
               exponents: Sequence[float]) -> float:
    """Cancel the error terms h^p, for each p of ``exponents`` in turn, from
    values at falling spacings h; len(values) = len(exponents) + 1.

    Generalized Richardson extrapolation with known exponents (the
    E-algorithm; Sidi, Practical Extrapolation Methods, 2003): each step
    extrapolates neighbouring values by ``richardson`` at the ratio that
    cancels the next term as the steps before have left it, which is the
    spacing ratio to the power p / 2 where the ratios are equal.
    """
    terms = [[(h / spacings[-1]) ** p for p in exponents] for h in spacings]
    for j in range(len(exponents)):
        q = [t[j] / u[j] for t, u in zip(terms, terms[1:])]
        values = [richardson(a, b, math.sqrt(r)) for a, b, r in zip(values, values[1:], q)]
        terms = [[(r * y - x) / (r - 1.0) for x, y in zip(t, u)]
                 for t, u, r in zip(terms, terms[1:], q)]
    (value,) = values
    return float(value)


def hellmann_feynman_check(params: ModelParams, n2: int, tol: float = RESOLUTION_TOL,
                           n_points: int = CHANNEL_POINTS) -> VerificationReport:
    """Three-way derivative comparison dE/d(g1^2) on one SHO level.

    Compares the central finite difference of the numeric eigenvalue (step
    1e-3 * max(1, g1^2)), the eigenvector expectation of 1/(6 X2^2), taken on
    each of three grids of one ``solve_grids`` ladder, at (n_points - 1) // 2,
    n_points and 2 n_points + 1 points on the box the coarsest fixes, with the
    two lowest exponents of its trapezoid error eliminated, and the closed
    form omega/(6 delta); all three must agree pairwise within ``tol`` and be
    strictly positive.  Raises ValueError below g1^2 = 1e-3, where g1^2 - step
    would leave the coupling range, and, before any solve, for fewer than
    2 max(n2 + 1, 3) + 1 ``n_points``: the coarsest grid must hold the level
    and 3 nodes.
    """
    delta_g2 = 1e-3 * max(1.0, params.g1_squared)
    if params.g1_squared - delta_g2 < 0:
        raise ValueError(f"hf-check needs g1sq >= 1e-3, so that the central difference "
                         f"of step 1e-3 stays in the admissible coupling range, "
                         f"got {params.g1_squared:g}")
    least = 2 * max(n2 + 1, 3) + 1
    if n_points < least:
        raise ValueError(f"hf-check solves its expectation on (grid-points - 1) // 2 points "
                         f"too, at least {least // 2} of them, so it needs at least {least} "
                         f"grid points, got {n_points}")
    tol = tol * params.omega
    report = VerificationReport()
    spec = ChannelSpec(ChannelKind.SHO)

    def level(g: float) -> float:
        p = replace(params, g1_squared=g)
        return float(solve_channel_extrapolated(spec, p, n_points, n2 + 1).values[n2])

    def central(step: float) -> float:
        return (level(params.g1_squared + step) - level(params.g1_squared - step)) / (2 * step)

    d_fd = central(delta_g2)
    d_fd_half = central(delta_g2 / 2.0)

    grids = solve_grids(spec, params, ((n_points - 1) // 2, n_points, 2 * n_points + 1),
                        n2 + 1, want_vectors=True)
    # The eigenvector meets the wall as x^b, b = delta + 1/2, so the integrand
    # goes as x^(2b - 2) and its trapezoid error has the term h^(2 delta)
    # beside the even powers of h (Navot 1961): from 2 delta = 2 at
    # g1^2 = 2.25 up, the two lowest are 2 and min(2 delta, 4).  The grids
    # are in oscillator lengths x = sqrt(omega) X2, where 1/(6 X2^2) is omega/(6 x^2).
    wall = 2.0 * delta_constant(params)
    exponents = sorted({wall, 2.0, 4.0})[:2]
    d_exp = params.omega * _eliminate(
        [expectation(res.eigenvectors[n2], lambda x: 1.0 / (6.0 * x**2), res.grid)
         for res in grids], [res.grid.spacing for res in grids], exponents)

    d_closed = hf_derivative_closed_form(params)

    report.add("hf-fd-vs-closed", d_fd, d_closed, tol,
               f"central difference, step {delta_g2:g}")
    report.add("hf-expectation-vs-closed", d_exp, d_closed, tol,
               "eigenvector expectation of 1/(6 X2^2) on three grids, the two lowest of "
               f"h^(2 delta), h^2 and h^4 cancelled; 2 delta = {wall:.6g}")
    report.add("hf-fd-vs-expectation", d_fd, d_exp, tol,
               "the two independent numerical derivatives")
    report.add("hf-positivity", min(d_fd, d_exp, d_closed), 0.0, math.inf,
               "every eigenvalue must increase with the barrier strength",
               ok=min(d_fd, d_exp, d_closed) > 0.0)
    report.add("hf-step-halving", abs(d_fd_half - d_fd), 0.0, tol / 10.0,
               "halving the difference step moves the derivative only at O(step^2)")
    return report


def bk_audit(params: ModelParams, tol: float = RESOLUTION_TOL,
             n_points: int | None = None) -> VerificationReport:
    """Measure the three claims of the earlier spherical-coordinate treatment.

    The audited claims: the spectrum does not depend on the barrier strength;
    the azimuthal eigenvalues are all equal at fixed strength; the polar
    separation constants equal l(l+1) regardless of strength.  Each entry
    records the measured counter-evidence.  The spectrum is compared with
    the one at g1^2 = 1 (at 3 when g1^2 is 1 already).  Each channel pair is
    sized to ``tol``, in units of omega, unless ``n_points`` is given, which
    must be at least 3.
    """
    _require_points(n_points, 2, "audit")
    other = replace(params, g1_squared=1.0 if params.g1_squared != 1.0 else 3.0)
    report = VerificationReport()
    sho = ChannelSpec(ChannelKind.SHO)

    g_here = float(solve_channel_extrapolated(sho, params, n_points, 1,
                                              tol=tol * params.omega).values[0])
    g_there = float(solve_channel_extrapolated(sho, other, n_points, 1,
                                               tol=tol * params.omega).values[0])
    predicted = params.omega * (delta_constant(params) - delta_constant(other))
    report.add("audit-spectrum-depends-on-g1", g_here - g_there, predicted, tol * params.omega,
               f"numeric ground levels at g1^2 = {params.g1_squared:g} vs "
               f"{other.g1_squared:g}; a g1-independent spectrum would give 0")

    f2 = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.ANGULAR_PHI, coefficient=params.g1_squared / 3.0),
        params, n_points, 2, tol=tol).values
    claimed = params.g1_squared / 3.0 + 0.25
    report.add("audit-f2-not-all-equal", float(f2[1] - f2[0]), 0.0, math.inf,
               f"f^2_0 = {f2[0]:.6f}, f^2_1 = {f2[1]:.6f}; the audited claim is "
               f"that every f^2 equals g1^2/3 + 1/4 = {claimed:.6f}",
               ok=float(f2[1] - f2[0]) >= 1.0)

    k2 = solve_channel_extrapolated(
        ChannelSpec(ChannelKind.ANGULAR_THETA, coefficient=float(f2[0])),
        params, n_points, 1, tol=tol).values
    report.add("audit-k2-not-l(l+1)", float(k2[0]), 0.0, math.inf,
               "k^2 for l = 0, m = 0; the audited claim pins it to l(l+1) = 0",
               ok=abs(float(k2[0])) > 1.0)
    return report


def verify_3d(params: ModelParams, k: int, *, offset: float, tol: float = GRID3D_TOL,
              n_per_axis: int = GRID3D_POINTS, extent: float = GRID3D_EXTENT,
              ) -> VerificationReport:
    """Compare direct 3D diagonalization with the resolved closed-form classes.

    The grid of ``n_per_axis`` points, n_per_axis // 2 X2 nodes, and its
    partner of n_per_axis // 4 X2 nodes over the same extent (in oscillator
    lengths) and DVR come paired by sector and rank and extrapolated at their
    X2 spacing ratio (grid3d.solve_partner).  Each class (both mirror half-spaces)
    takes grid levels until their multiplicities reach its degeneracy; every
    class within the lowest k states checks its worst level and its
    degeneracy.  The provenance quotes that level's fine and coarse grid
    values and the largest Lanczos residual of the levels each grid returns,
    in units of omega.  ``grid3d-dvr-error`` checks the X1/X3 error the pair
    does not cancel: the partner levels' largest move with 4 DVR nodes fewer
    (grid3d.dvr_change), within tol / 100.  Raises ValueError for k < 2 and
    for a grid that grid3d.check_grid rejects.
    """
    if k < 2:
        raise ValueError("k must be at least 2, the states of the ground class")
    check_grid(params, n_per_axis, extent)
    report = VerificationReport()
    pair = solve_partner(solve_hd_3d(params, n_per_axis, extent, k))
    mults = pair.fine.multiplicities
    m = len(mults)
    residuals = (f"largest Lanczos residual: fine grid {np.max(pair.fine.residuals):.1e}, "
                 f"coarse {np.max(pair.coarse.residuals):.1e}")

    i = covered = 0
    # every class holds at least one triple, twice, so (k + 1) // 2 classes suffice
    for n, level in enumerate(enumerate_spectrum(params, (k - 1) // 2, offset, 2).levels):
        covered += level.degeneracy
        if covered > k or i == m:
            break
        first, states = i, 0
        while states < level.degeneracy and i < m:
            states += int(mults[i])
            i += 1
        worst = max(range(first, i), key=lambda j: abs(pair.values[j] - level.value))
        report.add(f"grid3d-level[N={n}]", pair.values[worst], level.value, tol * params.omega,
                   f"worst of {i - first} levels: fine grid {pair.fine.levels[worst]:.6f}, "
                   f"coarse {pair.coarse.levels[worst]:.6f}, Richardson pair at "
                   f"spacing ratio {pair.ratio:.6g}; {residuals}")
        report.add(f"grid3d-degeneracy[N={n}]", states, level.degeneracy, 0.0,
                   "states the class's grid levels stand for, by sector multiplicity")
    nodes = 2 * pair.coarse.dvr_nodes + 1
    report.add("grid3d-dvr-error", params.omega * dvr_change(pair.coarse),
               0.0, tol / 100.0 * params.omega,
               f"largest move of the coarse grid's levels when its X1/X3 DVR of "
               f"{nodes} nodes has {nodes - 4} over the same extent")
    return report
