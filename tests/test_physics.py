import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirrorwave import analysis, oracle, waves
from mirrorwave.physics import (
    HBAR,
    RB87_MASS,
    MirrorKind,
    MirrorLaw,
    PhysicalContext,
    Scenario,
    UnknownUnitError,
    from_si,
    to_si,
)


class TestUnits:
    @pytest.mark.parametrize(
        "value,unit,expected",
        [
            (1.0, "cm/s", 0.01),
            (5, "ms", 0.005),
            (0, "um", 0.0),
            (2.5, "μm", 2.5e-6),
            (3.0, "m", 3.0),
            (7.0, "s", 7.0),
            (1.3e7, "1/m", 1.3e7),
            (2.5, "us", 2.5e-6),
        ],
    )
    def test_to_si_examples(self, value, unit, expected):
        assert to_si(value, unit) == expected

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnknownUnitError):
            to_si(1.0, "furlong")
        with pytest.raises(UnknownUnitError):
            from_si(1.0, "km/h")

    @pytest.mark.parametrize("unit", ["cm/s", "ms", "um", "us"])
    @pytest.mark.parametrize(
        "value", [0.05, 0.1, 0.2, 0.5, 0.8, 1.0, 1.1, 1.5, 2.0, 5.0, 7.5, 10.0, 100.0]
    )
    def test_round_trip_exact_on_lab_values(self, value, unit):
        # one correctly-rounded op each way; exact for the decimal values
        # figure captions use (arbitrary doubles round-trip to <= 1 ulp,
        # an IEEE double-rounding limit no scaling scheme can beat)
        assert from_si(to_si(value, unit), unit) == value

    @given(
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        st.sampled_from(["cm/s", "ms", "um", "m", "s", "1/m"]),
    )
    def test_round_trip_one_ulp(self, value, unit):
        back = from_si(to_si(value, unit), unit)
        assert abs(back - value) <= abs(value) * 2.3e-16


class TestContext:
    def test_defaults(self):
        ctx = PhysicalContext()
        assert ctx.hbar == HBAR
        assert ctx.mass == RB87_MASS
        assert ctx.species_label == "87Rb"

    @pytest.mark.parametrize("bad", [dict(hbar=0.0), dict(hbar=-1.0), dict(mass=0.0), dict(mass=float("nan"))])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            PhysicalContext(**bad)


class TestMirrorLaw:
    def test_variants(self):
        assert MirrorLaw.static().kind is MirrorKind.STATIC
        assert MirrorLaw.moving(-0.01).velocity == -0.01
        assert MirrorLaw.sudden_removal().kind is MirrorKind.SUDDEN_REMOVAL

    def test_moving_requires_finite_velocity(self):
        with pytest.raises(ValueError):
            MirrorLaw.moving(float("inf"))
        with pytest.raises(ValueError):
            MirrorLaw(MirrorKind.MOVING)

    def test_non_moving_takes_no_velocity(self):
        with pytest.raises(ValueError):
            MirrorLaw(MirrorKind.SUDDEN_REMOVAL, 1.0)


class TestScenario:
    def setup_method(self):
        self.ctx = PhysicalContext()

    def test_beam_velocity_inverse_of_definition(self):
        k = self.ctx.mass * 0.01 / self.ctx.hbar
        s = Scenario(self.ctx, k, MirrorLaw.sudden_removal(), 1e-3)
        assert s.v_k == pytest.approx(0.01, rel=1e-15)

    def test_wavenumber_round_trip(self):
        # 87Rb at v_k = 1 cm/s with the documented constants
        k = self.ctx.wavenumber(0.01)
        assert k == pytest.approx(13684801.5159881709, rel=1e-12)
        s = Scenario(self.ctx, k, MirrorLaw.static(), 0.0)
        assert s.v_k * self.ctx.mass / self.ctx.hbar == pytest.approx(s.k, rel=4e-16)

    def test_linearity(self):
        k = self.ctx.wavenumber(0.01)
        s1 = Scenario(self.ctx, k, MirrorLaw.static(), 0.0)
        s2 = Scenario(self.ctx, 2 * k, MirrorLaw.static(), 0.0)
        assert s2.v_k == 2 * s1.v_k

    @given(st.floats(min_value=1e3, max_value=1e9, allow_nan=False))
    def test_velocity_wavenumber_consistency(self, k):
        s = Scenario(self.ctx, k, MirrorLaw.sudden_removal(), 1e-3)
        assert s.v_k * self.ctx.mass / self.ctx.hbar == pytest.approx(k, rel=1e-14)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Scenario(self.ctx, -1.0, MirrorLaw.static(), 1e-3)
        with pytest.raises(ValueError):
            Scenario(self.ctx, 0.0, MirrorLaw.static(), 1e-3)
        with pytest.raises(ValueError):
            Scenario(self.ctx, 1e7, MirrorLaw.static(), -1e-3)

    def test_mirror_helpers(self):
        s = Scenario(self.ctx, 1e7, MirrorLaw.moving(0.008), 0.01)
        assert s.mirror_velocity == 0.008
        assert s.mirror_position == pytest.approx(8e-5)
        sudden = Scenario(self.ctx, 1e7, MirrorLaw.sudden_removal(), 0.01)
        with pytest.raises(ValueError):
            sudden.mirror_velocity
        with pytest.raises(ValueError):
            sudden.mirror_position
        assert Scenario(self.ctx, 1e7, MirrorLaw.static(), 0.01).mirror_position == 0.0


# Scenario admits time 0, where no state has evolved yet; every entry point
# that evolves the beam rejects it
_CTX = PhysicalContext()
_K = _CTX.wavenumber(0.01)
_MOVING_0 = Scenario(_CTX, _K, MirrorLaw.moving(0.005), 0.0)
_SUDDEN_0 = Scenario(_CTX, _K, MirrorLaw.sudden_removal(), 0.0)
_XS = np.linspace(-1e-5, 0.0, 5)
_CFG = oracle.OracleConfig(1e-3, 64, 1e-6, 1e-4, (-1e-5, 0.0))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: waves.psi_sudden(_XS, 0.0, _K, _CTX), ValueError),
        (lambda: waves.psi_moving(_XS, _MOVING_0), ValueError),
        (lambda: waves.psi_near_limit(_XS, _MOVING_0), ValueError),
        (lambda: analysis.profile(_SUDDEN_0, _XS), ValueError),
        (lambda: analysis.profile(_MOVING_0, _XS), ValueError),
        (lambda: analysis.cornu_theta(_XS, 0.0, _K, _CTX), ValueError),
        (lambda: analysis.enhancement_scan([1.5], _SUDDEN_0), ValueError),
        (lambda: oracle.default_config(_MOVING_0), oracle.OracleConfigError),
        (lambda: oracle.validate_config(_MOVING_0, _CFG), oracle.OracleConfigError),
        (lambda: oracle.evolve_quadrature(_SUDDEN_0, _CFG, _XS), oracle.OracleConfigError),
    ],
    ids=[
        "psi_sudden", "psi_moving", "psi_near_limit", "profile-sudden", "profile-moving",
        "cornu_theta", "enhancement_scan", "default_config", "validate_config",
        "evolve_quadrature",
    ],
)
def test_zero_time_rejected(call, error):
    with pytest.raises(error, match=r"\b(t|time) > 0"):
        call()
