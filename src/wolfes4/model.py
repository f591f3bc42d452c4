"""Closed-form energies of the four-particle chain with an inverse-square barrier.

After removing the center of mass, the model separates into two ordinary
harmonic oscillators (HO) and one singular harmonic oscillator (SHO), the
latter carrying the three-particle barrier.  Every energy is a linear
function of the oscillator frequency ``omega`` and depends on the barrier
strength only through the constant ``delta = sqrt(1/4 + g1_squared/3)``.

Two printed constants, the SHO offset and the radial exponent rule, are
kept as candidates, the printed one first; which one is right is decided
numerically by the ``verify`` module, never assumed here.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

#: Admissible additive constants for the SHO level formula omega*(2n + offset + delta).
SHO_OFFSET_CANDIDATES = (0.5, 1.0)

#: Candidate exponent rules for the radial level formula, the printed one
#: first, by name: the coefficient a of s = (sqrt(a k^2 + 1) - 1)/2.
RADIAL_RULES = {"published": 1.0, "candidate": 4.0}


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings: oscillator frequency and squared barrier strength."""

    omega: float = 1.0
    g1_squared: float = 3.0

    def __post_init__(self) -> None:
        # omega^2 scales coords.potential_particle; the solvers work in units of omega
        if not (self.omega > 0 and sys.float_info.min <= self.omega * self.omega < math.inf):
            raise ValueError(
                f"omega must be positive with a finite, normal square, got {self.omega}")
        if not (0 <= self.g1_squared < math.inf):
            raise ValueError(
                f"g1_squared must be nonnegative and finite, got {self.g1_squared}")


def delta_constant(params: ModelParams) -> float:
    """sqrt(1/4 + g1_squared/3); equals 1/2 exactly when the barrier is off."""
    return math.sqrt(0.25 + params.g1_squared / 3.0)


def _nonnegative_ints(record) -> None:
    """The __post_init__ of a quantum-number record: every field a nonnegative integer."""
    for name in record.__dataclass_fields__:
        v = getattr(record, name)
        if type(v) is int and v >= 0:
            continue
        if not isinstance(v, numbers.Integral) or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True, order=True)
class QuantumTriple:
    """Quantum numbers (n1, n2, n3) of the separated HO + SHO + HO product states."""

    n1: int
    n2: int
    n3: int

    __post_init__ = _nonnegative_ints

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

    __post_init__ = _nonnegative_ints


def ho_energy(n: int, params: ModelParams) -> float:
    """Harmonic-oscillator level omega*(n + 1/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.omega * (n + 0.5)


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


def radial_energy(n: int, k_squared: float, params: ModelParams, rule: str) -> float:
    """Radial level omega*(2n + s + 3/2) with s = (sqrt(a k^2 + 1) - 1)/2, a = RADIAL_RULES[rule].

    The published rule has a = 1.  The candidate's a = 4 gives s(s+1) = k^2,
    which the textbook reduction u = r*R of the radial operator gives; at
    k^2 = 0 the two coincide.
    """
    if rule not in RADIAL_RULES:
        raise ValueError(f"unknown radial rule {rule!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k_squared < 0:
        raise ValueError("k_squared must be nonnegative")
    s = 0.5 * (math.sqrt(RADIAL_RULES[rule] * k_squared + 1.0) - 1.0)
    return params.omega * (2 * n + s + 1.5)


def hf_derivative_closed_form(params: ModelParams) -> float:
    """dE_SHO/d(g1_squared) = omega / (6*delta), the same for every level and offset."""
    return params.omega / (6.0 * delta_constant(params))


@dataclass
class EnergyLevel:
    """One distinct energy with the triples that produce it, each listed once.

    ``degeneracy`` counts states: the sector multiplicity times
    ``len(members)``, since with sector doubling each triple labels two
    mirror states.
    """

    value: float
    degeneracy: int
    members: list[QuantumTriple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members or self.degeneracy < 1 or self.degeneracy % len(self.members):
            raise ValueError("degeneracy must be a positive multiple of len(members)")


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


def _class_members(n: int) -> list[QuantumTriple]:
    """The triples of class N = n1 + n3 + 2*n2 = n, in ascending order.

    Their fields are nonnegative ints by construction, so each triple is
    built without QuantumTriple's validation: the fields go into the
    instance dict, where the frozen dataclass's __init__ would put them.
    """
    new = object.__new__
    members = []
    for n1 in range(n + 1):
        for n2 in range((n - n1) // 2 + 1):
            t = new(QuantumTriple)
            attrs = t.__dict__
            attrs["n1"] = n1
            attrs["n2"] = n2
            attrs["n3"] = n - n1 - 2 * n2
            members.append(t)
    return members


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

    # the terms of composite_energy, each computed once and summed in its order
    ho = [ho_energy(n, params) for n in range(cutoff + 1)]
    sho = [sho_energy_resolved(n, params, offset) for n in range(cutoff // 2 + 1)]
    levels = []
    for n in range(cutoff + 1):
        triples = _class_members(n)
        levels.append(EnergyLevel(
            value=min(ho[t.n1] + sho[t.n2] + ho[t.n3] for t in triples),
            degeneracy=sector_multiplicity * len(triples), members=triples))
    if not math.isfinite(levels[-1].value):
        raise ValueError(f"the level energies overflow by N = {cutoff}")
    return SpectrumTable(levels=levels, sector_multiplicity=sector_multiplicity)
