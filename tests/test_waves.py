import mpmath as mp
import numpy as np
import pytest

from mirrorwave import analysis
from mirrorwave.analysis import profile
from mirrorwave.physics import MirrorKind, MirrorLaw, PhysicalContext, Scenario
from mirrorwave.specialfn import cis
from mirrorwave.waves import (
    classical_density,
    critical_points,
    initial_state,
    moshinsky_m,
    psi_moving,
    psi_near_limit,
    psi_sudden,
    stream_regions,
)

from .reference import (
    bits,
    moshinsky_asymptotic,
    moshinsky_mp,
    moshinsky_ref,
    moshinsky_z,
    propagator_free,
    propagator_moving_wall,
    spread_gaussian_ref,
)

CTX = PhysicalContext()
K1 = CTX.wavenumber(0.01)  # v_k = 1 cm/s


def plane_wave(x, k, t):
    """exp(i(kx - hbar k^2 t/2m)) with extended-precision phase."""
    phi = (
        np.longdouble(k) * np.asarray(x, np.longdouble)
        - np.longdouble(CTX.hbar) * np.longdouble(k) ** 2 * np.longdouble(t) / (2 * np.longdouble(CTX.mass))
    )
    return cis(phi)


class TestInitialState:
    def test_antinode(self):
        x = -np.pi / (2 * K1)
        assert initial_state(x, K1) == pytest.approx(-2j, rel=1e-12)
        assert abs(initial_state(x, K1)) ** 2 == pytest.approx(4.0, rel=1e-12)

    def test_support(self):
        assert initial_state(0.1, K1) == 0.0
        assert initial_state(0.0, K1) == 0.0  # Theta(0) = 0 convention
        assert initial_state(-1e-7, K1) != 0.0

    def test_vectorized(self):
        x = np.array([-1e-6, 0.0, 1e-6])
        vals = initial_state(x, K1)
        assert vals[1] == 0.0 and vals[2] == 0.0 and vals[0] != 0.0


class TestMoshinsky:
    def test_origin(self):
        assert moshinsky_m(0.0, 0.0, 1e-3, CTX) == pytest.approx(0.5, abs=1e-14)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            moshinsky_m(0.0, K1, 0.0, CTX)

    @pytest.mark.parametrize(
        "x,k,t,expected",
        [
            (50e-6, K1, 5e-3, -0.47562055744237515 + 0.15422413993342391j),
            (-30e-6, -K1, 8e-3, -0.0137178154525003 + 0.013563664947663922j),
        ],
    )
    def test_golden_values(self, x, k, t, expected):
        # frozen from the arbitrary-precision oracle
        got = moshinsky_m(x, k, t, CTX)
        assert abs(got - expected) <= 1e-13 * abs(expected)

    def test_against_multiprecision(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(-2e-4, 2e-4)
            k = rng.uniform(-3e7, 3e7)
            t = rng.uniform(1e-3, 2e-2)
            ref = moshinsky_ref(x, k, t, CTX.hbar, CTX.mass)
            got = moshinsky_m(x, k, t, CTX)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_plane_wave_identity(self):
        # M(x,k,t) + M(-x,-k,t) = exp(i(kx - hbar k^2 t/2m))
        rng = np.random.default_rng(5)
        n = 1000
        logz = rng.uniform(-3, 2, n)
        t = rng.uniform(1e-3, 2e-2, n)
        x = rng.uniform(-5e-5, 5e-5, n)
        sgn = rng.choice([-1.0, 1.0], n)
        u = sgn * np.sqrt(2.0) * 10**logz / np.sqrt(CTX.hbar * t / CTX.mass)
        k = u + CTX.mass * x / (CTX.hbar * t)
        for i in range(n):
            lhs = moshinsky_m(x[i], k[i], t[i], CTX) + moshinsky_m(-x[i], -k[i], t[i], CTX)
            rhs = complex(plane_wave(x[i], k[i], t[i])[()])
            assert abs(lhs - rhs) <= 1e-12

    def test_deep_classical_correction_magnitude(self):
        # (k - m x/hbar t) sqrt(hbar t/m) = +20: the distance to the plane
        # wave is the leading series term sqrt(pi) / (2 pi |z|)
        t = 5e-3
        u = 20.0 / np.sqrt(CTX.hbar * t / CTX.mass)
        x = 10e-6
        k = u + CTX.mass * x / (CTX.hbar * t)
        z = moshinsky_z(x, k, t, CTX)
        dist = abs(moshinsky_m(x, k, t, CTX) - complex(plane_wave(x, k, t)[()]))
        lead = np.sqrt(np.pi) / (2 * np.pi * abs(z))
        assert dist == pytest.approx(lead, rel=1e-3)
        assert dist <= 2.1e-2


class TestMoshinskyAsymptotic:
    def _point(self, side, mag, t=5e-3, x=20e-6):
        u = side * mag * np.sqrt(2.0) / np.sqrt(CTX.hbar * t / CTX.mass)
        k = u + CTX.mass * x / (CTX.hbar * t)
        return x, k, t

    @pytest.mark.parametrize("mag", [10.0, 50.0])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_matches_exact_beyond_z10(self, side, mag):
        x, k, t = self._point(side, mag)
        exact = moshinsky_m(x, k, t, CTX)
        approx, classical = moshinsky_asymptotic(x, k, t, CTX, 5)
        assert abs(approx - exact) <= 1e-6
        assert classical == (side > 0)
        if side < 0:
            assert abs(approx) <= 0.1

    def test_truncation_n0(self):
        x, k, t = self._point(+1, 10.0)
        z = moshinsky_z(x, k, t, CTX)
        phi_free = (
            np.longdouble(CTX.mass) * np.longdouble(x) ** 2 / (2 * np.longdouble(CTX.hbar) * np.longdouble(t))
        )
        manual = complex(plane_wave(x, k, t)[()]) + complex(cis(phi_free)[()]) * np.sqrt(np.pi) / (
            2j * np.pi * z
        )
        val, classical = moshinsky_asymptotic(x, k, t, CTX, 0)
        assert classical
        assert val == pytest.approx(manual, rel=1e-14)

    def test_domain_guard(self):
        x, k, t = self._point(+1, 1.0)
        with pytest.raises(ValueError):
            moshinsky_asymptotic(x, k, t, CTX, 5)
        x2, k2, t2 = self._point(+1, 10.0)
        with pytest.raises(ValueError):
            moshinsky_asymptotic(x2, k2, t2, CTX, -1)


class TestPropagatorFree:
    def test_unimodular_density(self):
        t, tp = 8e-3, 1e-3
        for x, xp in [(0.0, 0.0), (3e-5, -2e-5), (-1e-4, 5e-5)]:
            val = propagator_free(x, t, xp, tp, CTX)
            assert abs(val) ** 2 == pytest.approx(
                CTX.mass / (2 * np.pi * CTX.hbar * (t - tp)), rel=1e-12
            )

    def test_exchange_symmetry(self):
        a = propagator_free(3e-5, 5e-3, -1e-5, 0.0, CTX)
        b = propagator_free(-1e-5, 5e-3, 3e-5, 0.0, CTX)
        assert a == b

    def test_time_order(self):
        with pytest.raises(ValueError):
            propagator_free(0.0, 1e-3, 0.0, 2e-3, CTX)

    def test_gaussian_spreading(self):
        # quadrature against the closed-form spread Gaussian
        sigma0 = 2e-6
        t = 4e-3
        xp = np.linspace(-30e-6, 30e-6, 60001)
        psi0 = (2 * np.pi * sigma0**2) ** (-0.25) * np.exp(-xp**2 / (4 * sigma0**2))
        for x in (0.0, 3e-6, -8e-6):
            kern = propagator_free(np.full_like(xp, x), t, xp, 0.0, CTX)
            got = np.trapezoid(kern * psi0, xp)
            ref = spread_gaussian_ref(x, t, sigma0, CTX.hbar, CTX.mass)
            assert abs(got - ref) <= 1e-8


class TestPropagatorMovingWall:
    def test_vanishes_on_wall(self):
        v, t = 0.008, 5e-3
        assert propagator_moving_wall(v * t, t, -1e-5, 0.0, v, CTX) == 0.0

    def test_static_reduces_to_image_form(self):
        t = 5e-3
        x, xp = -3e-6, -5e-6
        moving = propagator_moving_wall(x, t, xp, 0.0, 0.0, CTX)
        image = propagator_free(x, t, xp, 0.0, CTX) - propagator_free(x, t, -xp, 0.0, CTX)
        assert moving == image

    def test_rejects_forbidden_endpoints(self):
        with pytest.raises(ValueError):
            propagator_moving_wall(1e-5, 5e-3, -1e-5, 0.0, 0.0, CTX)
        with pytest.raises(ValueError):
            propagator_moving_wall(-1e-5, 5e-3, 1e-5, 0.0, 0.0, CTX)


class TestPsiSudden:
    def test_far_ahead_of_front_vanishes(self):
        t = 5e-3
        x = 5 * CTX.velocity(K1) * t
        assert abs(psi_sudden(x, t, K1, CTX)) ** 2 < 1e-3

    def test_initial_condition_continuity(self):
        x = -np.pi / (2 * K1)
        dens = abs(psi_sudden(x, 1e-7, K1, CTX)) ** 2
        assert dens == pytest.approx(4.0, abs=1e-3)

    def test_peak_enhancement(self):
        # main-peak overshoot of the released beam: 1.37x the background
        t = 0.1
        vk = CTX.velocity(K1)
        x = np.linspace(vk * t - 40e-5, vk * t, 40000)
        peak = (np.abs(psi_sudden(x, t, K1, CTX)) ** 2).max()
        assert peak == pytest.approx(1.37, abs=0.005)


class TestPsiMoving:
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
    def test_exact_zero_on_mirror(self, ratio):
        vk = 0.01
        v, t = ratio * vk, 5e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(v), t)
        wc = psi_moving(v * t, s)
        assert wc.psi == 0.0
        # the cancelling pairs coincide bitwise on the wall
        assert wc.m1 == wc.m3 and wc.m2 == wc.m4

    def test_near_wall_density_follows_standing_wave(self):
        # just inside the wall the density is the forming standing wave
        # 4 sin^2(k'(x - vt)), k' = m(v_k - v)/hbar
        vk, v, t = 0.01, 0.005, 5e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(v), t)
        kp = CTX.wavenumber(vk - v)
        eps = 1e-9
        dens = abs(psi_moving(v * t - eps, s).psi) ** 2
        assert dens == pytest.approx(4 * np.sin(kp * eps) ** 2, rel=0.1)

    def test_forbidden_region_zero_components_kept(self):
        vk, v, t = 0.01, 0.008, 10e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(v), t)
        x = np.array([v * t + 1e-6, v * t + 1e-5])
        wc = psi_moving(x, s)
        assert np.all(wc.psi == 0.0)
        assert np.all(np.abs(wc.m1) > 0)  # formal values preserved

    def test_slow_mirror_reduces_to_standing_wave(self):
        vk = 0.01
        t = 5e-4
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(1e-6 * vk), t)
        x = np.linspace(-2 * vk * t, -1e-9, 3001)
        dens = np.abs(psi_moving(x, s).psi) ** 2
        assert np.abs(dens - 4 * np.sin(CTX.wavenumber(vk) * x) ** 2).max() <= 1e-3

    def test_fast_mirror_reduces_to_sudden_removal(self):
        vk = 0.01
        t = 10e-3
        k = CTX.wavenumber(vk)
        s = Scenario(CTX, k, MirrorLaw.moving(1e3 * vk), t)
        x = np.linspace(-vk * t, vk * t, 2001)
        d_m = np.abs(psi_moving(x, s).psi) ** 2
        d_s = np.abs(psi_sudden(x, t, k, CTX)) ** 2
        assert np.abs(d_m - d_s).max() <= 1e-4

    def test_image_term_fades_deep_inside(self):
        # |m4| is negligible once (2v + v_k)t - x spans many hundred
        # diffusion lengths sqrt(hbar t / m)
        vk, v, t = 0.01, 0.008, 10e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(v), t)
        spread = np.sqrt(CTX.hbar * t / CTX.mass)
        x = (2 * v + vk) * t - 800 * spread
        wc = psi_moving(x, s)
        assert abs(wc.m4) <= 1e-3 * abs(wc.m1)

    def test_requires_moving_mirror(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1e-3)
        with pytest.raises(ValueError):
            psi_moving(0.0, s)

    def test_component_fronts(self):
        # v = 1.5 cm/s, t = 5 ms: image fronts near 100 um and 200 um,
        # free fronts near +-50 um
        v, t = 0.015, 5e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
        spread = np.sqrt(CTX.hbar * t / CTX.mass)
        xs = np.linspace(-120e-6, 230e-6, 3000)
        wc = psi_moving(xs, s)

        def front(vals, occupied_side, level=0.25):
            # edge of the region where the formal component density holds
            # its plateau; the free terms fill space to the left of their
            # fronts, the images open rightward toward their sources
            idx = np.where(vals >= level)[0]
            return xs[idx[-1] if occupied_side == "left" else idx[0]]

        assert front(np.abs(wc.m1) ** 2, "left") == pytest.approx(50e-6, abs=4 * spread)
        assert front(np.abs(wc.m2) ** 2, "left") == pytest.approx(-50e-6, abs=4 * spread)
        assert front(np.abs(wc.m3) ** 2, "right") == pytest.approx(100e-6, abs=4 * spread)
        assert front(np.abs(wc.m4) ** 2, "right") == pytest.approx(200e-6, abs=4 * spread)


class TestSharedChirpBitwise:
    """The wavefunctions share one chirp and form plane waves only where
    u >= 0; each must stay bitwise equal to independent moshinsky_m calls."""

    VK, T = 0.01, 10e-3  # v_k t = 100 um; phases reach m y^2/(2 hbar t) > 1e4 rad

    def grid(self, v):
        """Dense grid over [-500 um, 500 um] plus every u = 0 point and its neighbours."""
        t, vk = self.T, self.VK
        fronts = np.array([-vk * t, vk * t, (2 * v - vk) * t, (2 * v + vk) * t, v * t])
        near = np.concatenate([np.nextafter(fronts, -1.0), fronts, np.nextafter(fronts, 1.0)])
        x = np.sort(np.concatenate([np.linspace(-5e-4, 5e-4, 20001), near]))
        y = x - v * t
        assert CTX.mass * np.abs(y).max() ** 2 / (2 * CTX.hbar * t) >= 1e4
        return x

    @pytest.mark.parametrize("ratio", [0.5, 1.3])
    def test_psi_moving_components(self, ratio):
        v, t = ratio * self.VK, self.T
        k = CTX.wavenumber(self.VK)
        s = Scenario(CTX, k, MirrorLaw.moving(v), t)
        x = self.grid(v)
        y = x - v * t
        kp, km = k - CTX.mass * v / CTX.hbar, -k - CTX.mass * v / CTX.hbar
        for u_zero in (kp, km):  # the grid crosses u = 0 of every term
            u = u_zero - CTX.mass * y / (CTX.hbar * t)
            assert u.min() < 0.0 < u.max()
        wc = psi_moving(x, s)
        want = {
            "m1": moshinsky_m(y, kp, t, CTX),
            "m2": moshinsky_m(y, km, t, CTX),
            "m3": moshinsky_m(-y, kp, t, CTX),
            "m4": moshinsky_m(-y, km, t, CTX),
        }
        for name, ref in want.items():
            assert np.array_equal(bits(getattr(wc, name)), bits(ref)), name
        formal = (want["m1"] - want["m3"]) - (want["m2"] - want["m4"])
        psi = np.where(y <= 0.0, wc.prefactor * formal, 0.0 + 0.0j)
        assert np.array_equal(bits(wc.psi), bits(psi))
        for xi in x[::4001]:
            one = psi_moving(float(xi), s)
            assert type(one.psi) is complex
            yi = float(xi) - v * t
            assert np.array_equal(bits(one.m1), bits(moshinsky_m(np.array([yi]), kp, t, CTX)))

    @pytest.mark.parametrize("ratio", [0.5, 1.3])
    def test_psi_near_limit(self, ratio):
        v, t = ratio * self.VK, self.T
        s = Scenario(CTX, CTX.wavenumber(self.VK), MirrorLaw.moving(v), t)
        x = self.grid(v)
        y = x - v * t
        boost = psi_moving(x, s).prefactor
        # a named factor: for a temporary right operand numpy reuses its
        # buffer and multiplies in the swapped order, which FMA rounds differently
        pair = moshinsky_m(y, 0.0, t, CTX) - moshinsky_m(-y, 0.0, t, CTX)
        assert np.array_equal(bits(psi_near_limit(x, s)), bits(boost * pair))
        arr = psi_near_limit(x, s)
        for i in range(0, x.size, 4001):  # a scalar runs as a one-point array
            one = psi_near_limit(float(x[i]), s)
            assert type(one) is complex
            assert np.array_equal(bits(one), bits(arr[i]))

    def test_psi_sudden(self):
        t, k = self.T, CTX.wavenumber(self.VK)
        x = self.grid(0.0)
        ref = moshinsky_m(x, k, t, CTX) - moshinsky_m(x, -k, t, CTX)
        assert np.array_equal(bits(psi_sudden(x, t, k, CTX)), bits(ref))
        for xi in x[::2001]:
            one = psi_sudden(float(xi), t, k, CTX)
            assert type(one) is complex
            ref = moshinsky_m(float(xi), k, t, CTX) - moshinsky_m(float(xi), -k, t, CTX)
            assert np.array_equal(bits(one), bits(ref))

    def test_moshinsky_m_broadcasts_k(self):
        t = self.T
        x = np.linspace(-2e-4, 2e-4, 401)
        k = np.linspace(-2.0, 2.0, 401) * CTX.wavenumber(self.VK)
        arr = moshinsky_m(x, k, t, CTX)
        one = np.array([moshinsky_m(x[i : i + 1], k[i], t, CTX)[0] for i in range(x.size)])
        assert np.array_equal(bits(arr), bits(one))
        grid = moshinsky_m(x[:, None], k[None, ::50], t, CTX)
        assert grid.shape == (401, 9)
        assert np.array_equal(bits(grid[:, 3]), bits(moshinsky_m(x, k[150], t, CTX)))
        assert type(moshinsky_m(1e-5, k[7], t, CTX)) is complex


class TestScalarIsArrayElement:
    """A scalar x runs as a one-point array: it returns a Python complex
    bitwise equal to the same element of an array call."""

    def test_scalar_call_returns_the_array_element(self):
        rng = np.random.default_rng(2026)
        t = 10e-3
        x = rng.uniform(-2e-4, 2e-4, 200)  # v_k t = 100 um
        k = rng.uniform(-2.0, 2.0, x.size) * K1
        s = Scenario(CTX, K1, MirrorLaw.moving(0.5 * CTX.velocity(K1)), t)
        fast = Scenario(CTX, K1, MirrorLaw.moving(1.3 * CTX.velocity(K1)), t)
        fields = ("m1", "m2", "m3", "m4", "prefactor", "psi")
        wc = psi_moving(x, s)
        arrays = [moshinsky_m(x, k, t, CTX), psi_sudden(x, t, K1, CTX), psi_near_limit(x, fast)]
        arrays += [getattr(wc, f) for f in fields]
        names = ["moshinsky_m", "psi_sudden", "psi_near_limit"] + [f"psi_moving.{f}" for f in fields]
        for i, xi in enumerate(x):
            one = psi_moving(xi, s)
            scalars = [moshinsky_m(xi, k[i], t, CTX), psi_sudden(xi, t, K1, CTX), psi_near_limit(xi, fast)]
            scalars += [getattr(one, f) for f in fields]
            for name, arr, got in zip(names, arrays, scalars):
                assert type(got) is complex, name
                assert np.array_equal(bits(got), bits(arr[i])), (name, i)


class TestConformanceSweep:
    """psi against a 40-digit mpmath psi built on the reference M, over
    seeded draws of (v_k, t) and of points in the figure region of each law.

    The draws cycle sudden removal, 0.2-0.9 v_k and 1.0-1.5 v_k, 10 points
    each over [-1.5 v_k t, wall] (sudden removal: up to 1.1 v_k t).  The
    reference wall is ``Scenario.mirror_position`` as the library forms it.
    A moving mirror forms its frame in float64, which costs up to ~3e-12
    (sudden removal forms none: ~2e-15); each bound leaves a margin.
    """

    BOUND = {"sudden": 1e-14, "slow": 1e-11, "fast": 1e-11}

    @staticmethod
    def draws():
        rng = np.random.default_rng(6)
        for i in range(40):
            law = ("sudden", "slow", "fast")[i % 3]
            v_k = 10.0 ** rng.uniform(-3.0, -2.0)
            t = 10.0 ** rng.uniform(-3.0, -1.0)
            ratio = {"sudden": None, "slow": rng.uniform(0.2, 0.9), "fast": rng.uniform(1.0, 1.5)}[law]
            hi = 1.1 * v_k * t if ratio is None else ratio * v_k * t
            yield law, v_k, ratio, t, rng.uniform(-1.5 * v_k * t, hi, 10)

    @staticmethod
    def psi_mp(s, x):
        """The closed form summed in mpmath: boost * [M1 - M2 - M3 + M4] in the mirror frame."""
        ctx = s.context
        hb, m, t = mp.mpf(ctx.hbar), mp.mpf(ctx.mass), mp.mpf(s.time)
        x, k = mp.mpf(x), mp.mpf(s.k)
        if s.mirror.kind is MirrorKind.SUDDEN_REMOVAL:
            return moshinsky_mp(x, k, t, hb, m) - moshinsky_mp(x, -k, t, hb, m)
        v = mp.mpf(s.mirror_velocity)
        y, beta = x - mp.mpf(s.mirror_position), m * v / hb
        if y > 0:
            return mp.mpc(0)
        terms = [moshinsky_mp(sy, sk * k - beta, t, hb, m) for sy in (y, -y) for sk in (1, -1)]
        boost = mp.expj(m * v * x / hb - m * v * v * t / (2 * hb))
        return boost * (terms[0] - terms[1] - terms[2] + terms[3])

    @pytest.mark.parametrize("law", ["sudden", "slow", "fast"])
    def test_closed_form_matches_multiprecision(self, law):
        worst = 0.0
        with mp.workdps(40):
            for kind, v_k, ratio, t, x in self.draws():
                if kind != law:
                    continue
                k = CTX.wavenumber(v_k)
                if ratio is None:
                    psi = psi_sudden(x, t, k, CTX)
                    s = Scenario(CTX, k, MirrorLaw.sudden_removal(), t)
                else:
                    s = Scenario(CTX, k, MirrorLaw.moving(ratio * v_k), t)
                    psi = psi_moving(x, s).psi
                for xi, got in zip(x, psi):
                    worst = max(worst, float(abs(mp.mpc(complex(got)) - self.psi_mp(s, xi))))
        assert worst <= self.BOUND[law], worst


class TestBlockedProfileBitwise:
    """``analysis.profile`` blocks the wavefunction; the densities equal one unblocked call."""

    VK, T = 0.01, 10e-3

    def laws(self, v):
        """The scenario of each mirror law, with the moving mirror at velocity v."""
        k = CTX.wavenumber(self.VK)
        return {
            "static": Scenario(CTX, k, MirrorLaw.static(), self.T),
            "sudden": Scenario(CTX, k, MirrorLaw.sudden_removal(), self.T),
            "moving": Scenario(CTX, k, MirrorLaw.moving(v), self.T),
        }

    @staticmethod
    def one_call(s, x):
        """|psi|**2 of one wavefunction call over the whole grid."""
        kind = s.mirror.kind
        if kind is MirrorKind.STATIC:
            return np.abs(initial_state(x, s.k)) ** 2
        if kind is MirrorKind.SUDDEN_REMOVAL:
            return np.abs(psi_sudden(x, s.time, s.k, CTX)) ** 2
        return np.abs(psi_moving(x, s).psi) ** 2

    @staticmethod
    def outputs(x, s):
        """Every wavefunction output on x, by name."""
        wc = psi_moving(x, s)
        out = {f: getattr(wc, f) for f in ("m1", "m2", "m3", "m4", "prefactor", "psi")}
        out["psi_sudden"] = psi_sudden(x, s.time, s.k, CTX)
        return out

    def grid(self, n, v):
        """n sorted points over [-2 v_k t, 2 v_k t], one of them exactly on the wall."""
        rng = np.random.default_rng([19, n])
        front = self.VK * self.T
        x = rng.uniform(-2.0 * front, 2.0 * front, n)
        x[n // 2] = v * self.T
        return np.sort(x)

    # at -0.4 and 0.999 psi on the wall is 0 - 0j, so the sign of zero is pinned too
    @pytest.mark.parametrize("ratio", [-0.4, 0.999, 1.3])
    @pytest.mark.parametrize("size", ["1", "2", "B-1", "B", "B+1", "2B+1", "200000"])
    def test_blocked_profile_equals_one_call(self, monkeypatch, ratio, size):
        b = analysis._BLOCK
        n = {"B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}.get(size) or int(size)
        v = ratio * self.VK
        x = self.grid(n, v)
        # the static and sudden laws do not depend on v: run them once per size
        laws = self.laws(v) if ratio == 1.3 else {"moving": self.laws(v)["moving"]}
        blocked = {name: profile(s, x).densities for name, s in laws.items()}
        # B+1 and 2B+1 leave a one-point last block, where in-place
        # products would take numpy's scalar loop (specialfn._in_place)
        monkeypatch.setattr(analysis, "_BLOCK", n)
        for name, s in laws.items():
            ref = self.one_call(s, x)
            assert blocked[name].shape == ref.shape == (n,), name
            assert np.array_equal(bits(blocked[name]), bits(ref)), name
            assert np.array_equal(bits(profile(s, x).densities), bits(ref)), name
        wall = x == v * self.T
        assert wall.any() and np.all(blocked["moving"][wall] == 0.0)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_one_point_slices_at_every_region_edge(self, monkeypatch, block):
        # Slices of 1-3 points leave one-point subsets in every w(z)
        # region and in the u >= 0 plane-wave subset.  M(x, k) has
        # |z| = |x - v_k t| / scale, so s = (x - v_k t) / scale spans the
        # Maclaurin (|z| <= 1.8), Weideman and ray (|z| > 12) regions on
        # both signs of u, densely around |z| = 1.8 and 12; the
        # wavefunctions never reach the off-ray wofz region.
        v, t = 0.5 * self.VK, self.T
        scale = np.sqrt(2.0 * CTX.hbar * t / CTX.mass)
        edges = [e * (1.0 + np.linspace(-1e-3, 1e-3, 101)) for e in (-12.0, -1.8, 1.8, 12.0)]
        s = np.concatenate([np.linspace(-15.0, 15.0, 1201), *edges, [0.0]])
        x = np.unique(self.VK * t + s * scale)  # strictly increasing, as profile needs
        x[np.argmin(np.abs(x - v * t))] = v * t
        z = np.abs(s)
        assert (z <= 1.8).sum() > 200 and ((z > 1.8) & (z <= 12.0)).sum() > 200
        assert (z > 12.0).sum() > 200 and (s < 0).sum() > 200 and (s > 0).sum() > 200
        assert np.all(np.diff(x) > 0)
        laws = self.laws(v)
        # the property the blocks of profile rest on: a wavefunction on
        # consecutive slices, concatenated, is the wavefunction on the grid
        whole = self.outputs(x, laws["moving"])
        parts = [self.outputs(x[lo : lo + block], laws["moving"]) for lo in range(0, x.size, block)]
        for name, ref in whole.items():
            sliced = np.concatenate([p[name] for p in parts])
            assert np.array_equal(bits(sliced), bits(ref)), name
        monkeypatch.setattr(analysis, "_BLOCK", block)
        for name, sc in laws.items():
            ref = self.one_call(sc, x)
            assert np.array_equal(bits(profile(sc, x).densities), bits(ref)), name
        # a 2-d grid comes back in its shape; a scalar comes back as a Python complex
        wc = psi_moving(x[:1200].reshape(30, 40), laws["moving"])
        assert wc.psi.shape == (30, 40)
        assert np.array_equal(bits(wc.psi), bits(whole["psi"][:1200]))
        assert type(psi_moving(float(x[0]), laws["moving"]).psi) is complex
        assert type(psi_sudden(float(x[0]), t, laws["sudden"].k, CTX)) is complex

    @pytest.mark.parametrize("law", ["sudden", "moving"])
    def test_profile_hands_no_wavefunction_more_than_a_block(self, monkeypatch, law):
        # the block bound is what keeps a large profile's temporaries small
        sizes = []

        def recording(f):
            def wrapped(x, *args):
                sizes.append(np.size(x))
                return f(x, *args)
            return wrapped

        monkeypatch.setattr(analysis, "psi_moving", recording(analysis.psi_moving))
        monkeypatch.setattr(analysis, "psi_sudden", recording(analysis.psi_sudden))
        n = 200_000
        d = profile(self.laws(0.5 * self.VK)[law], self.grid(n, 0.5 * self.VK)).densities
        assert d.shape == (n,) and sum(sizes) == n
        assert max(sizes) <= analysis._BLOCK and len(sizes) == -(-n // analysis._BLOCK)


class TestCriticalPoints:
    def test_slow_mirror_markers(self):
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(0.008), 10e-3)
        cp = critical_points(s)
        assert cp.x_minus == pytest.approx(-100e-6, rel=1e-12)
        assert cp.x_plus == pytest.approx(60e-6, rel=1e-12)
        assert cp.x_mirror == pytest.approx(80e-6, rel=1e-12)

    def test_equal_velocities(self):
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(0.01), 7e-3)
        cp = critical_points(s)
        assert cp.x_plus == cp.x_mirror

    def test_zero_time(self):
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(0.008), 0.0)
        cp = critical_points(s)
        assert cp.x_minus == cp.x_plus == cp.x_mirror == 0.0


class TestClassicalDensity:
    def test_slow_mirror_regions(self):
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(0.008), 10e-3)
        x = np.array([-150e-6, -50e-6, 70e-6, 90e-6])
        assert list(classical_density(x, s)) == [2.0, 1.0, 2.0, 0.0]

    def test_fast_mirror_gap(self):
        # nothing between the beam front and the mirror when v >= v_k
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(0.015), 10e-3)
        assert classical_density(120e-6, s) == 0.0
        assert classical_density(90e-6, s) == 1.0

    def test_sudden_profile(self):
        # the -k stream has left (-v_k t, 0): one stream there, two beyond
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.sudden_removal(), 10e-3)
        assert classical_density(-150e-6, s) == 2.0
        assert classical_density(-1e-6, s) == 1.0
        assert classical_density(50e-6, s) == 1.0
        assert classical_density(150e-6, s) == 0.0

    def test_static_mirror(self):
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.static(), 10e-3)
        x = np.array([-150e-6, -1e-9, 0.0, 1e-6])
        assert list(classical_density(x, s)) == [2.0, 2.0, 0.0, 0.0]

    def test_approaching_mirror_regions(self):
        # x_plus = -200 um, x_minus = -100 um, wall -50 um
        s = Scenario(CTX, CTX.wavenumber(0.01), MirrorLaw.moving(-0.005), 10e-3)
        x = np.array([-250e-6, -150e-6, -75e-6, -25e-6])
        assert list(classical_density(x, s)) == [2.0, 3.0, 2.0, 0.0]

    def test_wall_catches_both_streams(self):
        # v <= -v_k: the reflected -k stream fronts at (2v + v_k) t
        v_k, t = CTX.velocity(K1), 10e-3
        v = -1.5 * v_k
        s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
        edges, counts = stream_regions(s)
        assert edges == ((2.0 * v - v_k) * t, (2.0 * v + v_k) * t, v * t)
        assert counts == (2, 3, 4, 0)

    @pytest.mark.parametrize("law", [MirrorLaw.static(), MirrorLaw.moving(0.005)])
    def test_wall_point_reads_zero(self, law):
        s = Scenario(CTX, K1, law, 10e-3)
        assert classical_density(s.mirror_position, s) == 0.0

    @pytest.mark.parametrize(
        "law",
        [MirrorLaw.sudden_removal(), MirrorLaw.static()]
        + [MirrorLaw.moving(r * CTX.velocity(K1)) for r in (1.5, 1.0, 0.5, 0.0, -0.3, -1.0, -1.5)],
        ids=["sudden", "static", "1.5", "1.0", "0.5", "0.0", "-0.3", "-1.0", "-1.5"],
    )
    def test_counts_are_mean_quantum_density(self, law):
        # quantum referee: away from its edges each region's mean |psi|^2
        # is its stream count, and so is a 1.5 v_k t strip left of them all
        s = Scenario(CTX, K1, law, 20e-3)
        edges, counts = stream_regions(s)
        bounds = [(edges[0] - 1.5 * s.front, edges[0], counts[0])]
        bounds += [(lo, hi, c) for lo, hi, c in zip(edges, edges[1:], counts[1:]) if hi - lo > 1e-9]
        for lo, hi, c in bounds:
            xs = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 4001)
            assert profile(s, xs).densities.mean() == pytest.approx(c, abs=1e-2), (lo, hi)


class TestPsiNearLimit:
    def test_mirror_zero(self):
        vk, t = 0.01, 5e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(vk), t)
        assert psi_near_limit(vk * t, s) == 0.0

    def test_peak_bound(self):
        vk, t = 0.01, 5e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(vk), t)
        x = np.linspace(0, vk * t, 200001)
        peak = (np.abs(psi_near_limit(x, s)) ** 2).max()
        assert peak == pytest.approx(1.8014163538604137, abs=2e-7)

    @pytest.mark.parametrize("law", [MirrorLaw.static(), MirrorLaw.sudden_removal()])
    def test_requires_moving_mirror(self, law):
        s = Scenario(CTX, CTX.wavenumber(0.01), law, 5e-3)
        with pytest.raises(ValueError, match="finite-velocity"):
            psi_near_limit(1e-6, s)

    def test_matches_full_solution_at_equal_velocities(self):
        vk, t = 0.01, 20e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(vk), t)
        x = np.linspace(1e-7, vk * t, 20001)
        d_two = np.abs(psi_near_limit(x, s)) ** 2
        d_full = np.abs(psi_moving(x, s).psi) ** 2
        assert np.abs(d_two - d_full).max() / d_full.max() <= 1e-2
