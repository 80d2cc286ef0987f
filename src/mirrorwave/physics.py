"""Physical constants, lab-unit conversion, and scenario records.

Everything downstream of this module works in SI units.  Lab units
(cm/s, ms, um) exist only at the CLI boundary, which keeps exponents
such as m*x**2/(2*hbar*t) free of unit bugs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

#: Reduced Planck constant, J*s (2018 CODATA).
HBAR = 1.054571817e-34

#: Mass of one 87Rb atom, kg.  A single documented constant is used for
#: every number this package produces so results are reproducible bit for bit.
RB87_MASS = 1.44316060e-25

#: Species available to the CLI.  Constants are compiled in on purpose;
#: there is no environment override.
SPECIES_MASSES = {"87Rb": RB87_MASS}


class UnknownUnitError(ValueError):
    """Raised for a unit tag outside the fixed set this package converts."""


# unit tag -> power of ten relative to the SI base unit
_UNIT_EXPONENT = {
    "m": 0,
    "s": 0,
    "m/s": 0,
    "1/m": 0,
    "cm/s": -2,
    "ms": -3,
    "um": -6,
    "us": -6,
    "μm": -6,  # accept the Greek-mu spelling as well
}


def _scale_exact(value: float, exponent: int) -> float:
    # 10**|e| is exactly representable for the small exponents used here,
    # so multiply/divide by the exact integer power for best rounding.
    if exponent >= 0:
        return value * float(10**exponent)
    return value / float(10**-exponent)


def to_si(value: float, unit: str) -> float:
    """Convert a lab-unit value to SI.

    Supported tags: m, s, m/s, 1/m, cm/s, ms, um, us.
    """
    try:
        e = _UNIT_EXPONENT[unit]
    except KeyError:
        raise UnknownUnitError(f"unknown unit tag {unit!r}") from None
    return _scale_exact(value, e)


def from_si(value: float, unit: str) -> float:
    """Convert an SI value back to the given lab unit (inverse of to_si)."""
    try:
        e = _UNIT_EXPONENT[unit]
    except KeyError:
        raise UnknownUnitError(f"unknown unit tag {unit!r}") from None
    return _scale_exact(value, -e)


@dataclass(frozen=True)
class PhysicalContext:
    """Fundamental constants plus the beam species mass.

    Immutable value record; safe to share between threads.
    """

    hbar: float = HBAR
    mass: float = RB87_MASS
    species_label: str = "87Rb"

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and > 0")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("mass must be finite and > 0")

    def velocity(self, k: float) -> float:
        """Velocity hbar*k/m for wavenumber k."""
        return self.hbar * k / self.mass

    def wavenumber(self, v: float) -> float:
        """Wavenumber m*v/hbar for velocity v."""
        return self.mass * v / self.hbar


class MirrorKind(enum.Enum):
    STATIC = "static"
    MOVING = "moving"
    SUDDEN_REMOVAL = "sudden"


@dataclass(frozen=True)
class MirrorLaw:
    """How the mirror at the origin behaves for t > 0.

    Sudden removal is the infinite-velocity case and is kept as its own
    variant rather than a large float.
    """

    kind: MirrorKind
    velocity: float | None = None

    def __post_init__(self):
        if self.kind is MirrorKind.MOVING:
            if self.velocity is None or not math.isfinite(self.velocity):
                raise ValueError("moving mirror requires a finite velocity")
        elif self.velocity is not None:
            raise ValueError(f"{self.kind.value} mirror takes no velocity")

    @classmethod
    def static(cls) -> "MirrorLaw":
        return cls(MirrorKind.STATIC)

    @classmethod
    def moving(cls, velocity: float) -> "MirrorLaw":
        return cls(MirrorKind.MOVING, float(velocity))

    @classmethod
    def sudden_removal(cls) -> "MirrorLaw":
        return cls(MirrorKind.SUDDEN_REMOVAL)


@dataclass(frozen=True)
class Scenario:
    """A beam/mirror configuration at a fixed evaluation time.

    The beam velocity is always derived as hbar*k/m, never stored, so k
    remains the single source of truth.
    """

    context: PhysicalContext
    k: float
    mirror: MirrorLaw
    time: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("wavenumber k must be finite and > 0")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError("time must be finite and >= 0")

    @property
    def v_k(self) -> float:
        """Beam velocity hbar*k/m."""
        return self.context.velocity(self.k)

    @property
    def mirror_velocity(self) -> float:
        if self.mirror.kind is not MirrorKind.MOVING:
            raise ValueError("mirror_velocity is defined only for a moving mirror")
        return self.mirror.velocity

    @property
    def mirror_position(self) -> float:
        """Mirror position v*t (0 for a static mirror)."""
        if self.mirror.kind is MirrorKind.MOVING:
            return self.mirror.velocity * self.time
        if self.mirror.kind is MirrorKind.STATIC:
            return 0.0
        raise ValueError("a suddenly removed mirror has no position")

    @property
    def front(self) -> float:
        """Beam front v_k*t, where a free particle of the beam velocity arrives."""
        return self.v_k * self.time

