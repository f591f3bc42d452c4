"""Closed-form energies of the four-particle chain with an inverse-square barrier.

After removing the center of mass, the model separates into two ordinary
harmonic oscillators (HO) and one singular harmonic oscillator (SHO), the
latter carrying the three-particle barrier.  Every energy is a linear
function of the oscillator frequency ``omega`` and depends on the barrier
strength only through the constant ``delta = sqrt(1/4 + g1_squared/3)``.

Two printed formulas are kept in both their published form and a corrected
candidate form; which one is right is decided numerically by the ``verify``
module, never assumed here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

#: Admissible additive constants for the SHO level formula omega*(2n + offset + delta).
SHO_OFFSET_CANDIDATES = (0.5, 1.0)

#: Names of the two candidate exponent rules for the radial level formula.
RADIAL_RULE_PUBLISHED = "published"
RADIAL_RULE_CANDIDATE = "candidate"


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings: oscillator frequency and squared barrier strength."""

    omega: float = 1.0
    g1_squared: float = 3.0

    def __post_init__(self) -> None:
        if not (self.omega > 0 and math.isfinite(self.omega * self.omega)):
            raise ValueError(
                f"omega must be positive with a finite square, got {self.omega}")
        if not (0 <= self.g1_squared < math.inf):
            raise ValueError(
                f"g1_squared must be nonnegative and finite, got {self.g1_squared}")


def delta_constant(params: ModelParams) -> float:
    """sqrt(1/4 + g1_squared/3); equals 1/2 exactly when the barrier is off."""
    return math.sqrt(0.25 + params.g1_squared / 3.0)


@dataclass(frozen=True, order=True)
class QuantumTriple:
    """Quantum numbers (n1, n2, n3) of the separated HO + SHO + HO product states."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "n3"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total_quanta(self) -> int:
        """N = n1 + n3 + 2*n2; the closed-form energy depends on the triple only through N."""
        return self.n1 + self.n3 + 2 * self.n2


@dataclass(frozen=True, order=True)
class SphericalQuantum:
    """Quantum numbers (n_r, l, m) of the chained radial/polar/azimuthal solve."""

    n_r: int
    l: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n_r", "l", "m"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


def ho_energy(n: int, params: ModelParams) -> float:
    """Harmonic-oscillator level omega*(n + 1/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.omega * (n + 0.5)


def sho_energy_published(n: int, params: ModelParams) -> float:
    """SHO level exactly as published: omega*(2n + 1/2 + delta).

    Kept verbatim so the published constant can be compared against numerics;
    use :func:`sho_energy_resolved` for actual spectra.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.omega * (2 * n + 0.5 + delta_constant(params))


def sho_energy_resolved(n: int, params: ModelParams, offset: float) -> float:
    """SHO level omega*(2n + offset + delta) with the offset fixed by resolution.

    ``offset`` must be one of SHO_OFFSET_CANDIDATES; the right value is
    selected once by ``verify.resolve_formula_offsets``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if offset not in SHO_OFFSET_CANDIDATES:
        raise ValueError(
            f"offset must be one of {SHO_OFFSET_CANDIDATES}, got {offset}")
    return params.omega * (2 * n + offset + delta_constant(params))


def composite_energy(t: QuantumTriple, params: ModelParams, offset: float) -> float:
    """Total level E(n1,n2,n3) = HO(n1) + SHO(n2) + HO(n3)."""
    return (ho_energy(t.n1, params)
            + sho_energy_resolved(t.n2, params, offset)
            + ho_energy(t.n3, params))


def radial_energy_published(n: int, k_squared: float, params: ModelParams) -> float:
    """Radial level omega*(2n + s + 3/2) with s = (sqrt(k^2 + 1) - 1)/2, as published."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k_squared < 0:
        raise ValueError("k_squared must be nonnegative")
    s = 0.5 * (math.sqrt(k_squared + 1.0) - 1.0)
    return params.omega * (2 * n + s + 1.5)


def radial_energy_candidate(n: int, k_squared: float, params: ModelParams) -> float:
    """Radial level with the exponent from s(s+1) = k^2, i.e. s = (sqrt(4k^2 + 1) - 1)/2.

    This is what the textbook reduction u = r*R of the radial operator gives;
    at k^2 = 0 it coincides with the published form.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k_squared < 0:
        raise ValueError("k_squared must be nonnegative")
    s = 0.5 * (math.sqrt(4.0 * k_squared + 1.0) - 1.0)
    return params.omega * (2 * n + s + 1.5)


def radial_energy(n: int, k_squared: float, params: ModelParams, rule: str) -> float:
    """Dispatch on the resolved radial rule name."""
    if rule == RADIAL_RULE_PUBLISHED:
        return radial_energy_published(n, k_squared, params)
    if rule == RADIAL_RULE_CANDIDATE:
        return radial_energy_candidate(n, k_squared, params)
    raise ValueError(f"unknown radial rule {rule!r}")


def hf_derivative_closed_form(n2: int, params: ModelParams) -> float:
    """dE_SHO/d(g1_squared) = omega / (6*delta); independent of n2 and of the offset."""
    if n2 < 0:
        raise ValueError("n2 must be nonnegative")
    return params.omega / (6.0 * delta_constant(params))


@dataclass
class EnergyLevel:
    """One distinct energy with the triples that produce it.

    With sector doubling each triple labels two mirror states and therefore
    appears twice in ``members``; ``degeneracy == len(members)`` always.
    """

    value: float
    degeneracy: int
    members: list[QuantumTriple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.degeneracy != len(self.members) or self.degeneracy < 1:
            raise ValueError("degeneracy must equal len(members) and be >= 1")


@dataclass
class SpectrumTable:
    """Closed-form levels, one per total-quanta class, sorted ascending."""

    levels: list[EnergyLevel]
    sector_multiplicity: int

    def flattened(self) -> list[float]:
        """Every state energy repeated by its degeneracy, ascending."""
        out: list[float] = []
        for lv in self.levels:
            out.extend([lv.value] * lv.degeneracy)
        return out


def enumerate_spectrum(params: ModelParams, cutoff: int, offset: float,
                       sector_multiplicity: int = 1) -> SpectrumTable:
    """One level per total-quanta class N = n1 + n3 + 2*n2 <= cutoff.

    The energy depends on a triple only through N, so each class is one
    level, its members in ascending triple order.  The members' float
    energies differ only by rounding; the level takes the smallest.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if sector_multiplicity not in (1, 2):
        raise ValueError("sector_multiplicity must be 1 or 2")

    levels = []
    for n in range(cutoff + 1):
        triples = [QuantumTriple(n1, n2, n - n1 - 2 * n2)
                   for n1 in range(n + 1) for n2 in range((n - n1) // 2 + 1)]
        members = [t for t in triples for _ in range(sector_multiplicity)]
        levels.append(EnergyLevel(
            value=min(composite_energy(t, params, offset) for t in triples),
            degeneracy=len(members), members=members))
    if not math.isfinite(levels[-1].value):
        raise ValueError(f"the level energies overflow by N = {cutoff}")
    return SpectrumTable(levels=levels, sector_multiplicity=sector_multiplicity)
