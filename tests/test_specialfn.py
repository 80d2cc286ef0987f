import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import wofz

from mirrorwave import analysis, specialfn, waves
from mirrorwave.physics import MirrorLaw, PhysicalContext, Scenario
from mirrorwave.specialfn import (
    SpecialFunctionOverflow,
    _reflection_exp,
    _w_ray,
    _w_taylor,
    _w_upper,
    _w_weideman,
    cis,
    faddeeva,
    fresnel,
)

from .reference import (
    bits,
    erfc_complex,
    erfc_ref,
    faddeeva_ref,
    fresnel_ref,
    fresnel_series,
    w_ray_scalar,
    w_taylor_scalar,
    w_weideman_scalar,
)


def w_ray(z):
    """The ray kernel as a complex-valued function of z = a (1 + i)."""
    re, im = _w_ray(z.real.copy())
    return re + 1j * im


def ray_points(lo, hi, n, seed):
    """n points z = a (1 + i) with |z| log-uniform over [lo, hi]."""
    rng = np.random.default_rng(seed)
    r = lo * (hi / lo) ** rng.uniform(0.0, 1.0, n)
    return 0.5 * (1.0 + 1j) * (np.sqrt(2.0) * r)


complex_moderate = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


class TestFaddeeva:
    def test_origin(self):
        assert faddeeva(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_imaginary_unit(self):
        # e * erfc(1), real-valued
        val = faddeeva(1j)
        assert val.real == pytest.approx(0.42758357615580700, rel=1e-12)
        assert abs(val.imag) < 1e-15

    @settings(max_examples=300, deadline=None)
    @given(complex_moderate)
    def test_reflection_identity(self, z):
        # residual normalized by the operand scale: near the real axis the
        # imaginary parts cancel exactly and 2 exp(-z**2) is exponentially
        # smaller than w itself, so relative-to-rhs is ill-conditioned there
        wp, wm = faddeeva(z), faddeeva(-z)
        rhs = 2.0 * np.exp(-complex(z) * complex(z))
        scale = max(abs(wp), abs(wm), abs(rhs))
        assert abs(wp + wm - rhs) <= 1e-12 * scale

    def test_region_accuracy_against_multiprecision(self):
        # spans Maclaurin / rational / scipy wofz regions and the
        # lower half-plane reflection, all four quadrants
        rng = np.random.default_rng(2024)
        r = 10 ** rng.uniform(-3, 3, 400)
        ph = rng.uniform(0, 2 * np.pi, 400)
        z = r * np.exp(1j * ph)
        z = z[(z.imag**2 - z.real**2) < 600.0]
        w = faddeeva(z)
        for zi, wi in zip(z, w):
            ref = faddeeva_ref(zi)
            assert abs(wi - ref) <= 1e-11 * abs(ref), f"z={zi}"

    def test_diagonal_rays(self):
        # the rays arg z = +-pi/4, +-3pi/4 are the workhorse directions
        for mag in (0.3, 2.0, 9.0, 40.0):
            for ang in (np.pi / 4, 3 * np.pi / 4, -np.pi / 4, -3 * np.pi / 4):
                z = mag * np.exp(1j * ang)
                ref = faddeeva_ref(z)
                assert abs(faddeeva(z) - ref) <= 1e-12 * abs(ref)

    def test_overflow_flagged(self):
        with pytest.raises(SpecialFunctionOverflow):
            faddeeva(0.5 - 40.0j)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            faddeeva(complex(np.nan, 0.0))

    def test_array_shape(self):
        z = np.array([[0.0, 1j], [1.0, -1.0 - 1.0j]])
        assert faddeeva(z).shape == z.shape


class TestFaddeevaDispatch:
    """faddeeva skips the reflection bookkeeping when no argument has Im z < 0."""

    # |z| from 1e-3 to 30 on rays in the closed upper half-plane: every
    # region (Maclaurin <= 1.8 < Weideman <= 12 < asymptotic series on the
    # arg = pi/4 ray, wofz off it), real axis included
    MAGS = np.concatenate([np.geomspace(1e-3, 30.0, 97), [1.8, 12.0]])
    ANGLES = np.linspace(0.0, np.pi, 9)

    def upper(self):
        return (self.MAGS[:, None] * np.exp(1j * self.ANGLES)[None, :]).ravel()

    def test_upper_half_plane_is_w_upper(self):
        z = self.upper()
        assert np.all(z.imag >= 0.0)
        r = np.abs(z)
        assert np.any(r <= 1.8) and np.any((r > 1.8) & (r <= 12.0)) and np.any(r > 12.0)
        assert np.array_equal(bits(faddeeva(z)), bits(_w_upper(z)))
        grid = z.reshape(self.MAGS.size, self.ANGLES.size)
        assert faddeeva(grid).shape == grid.shape
        assert np.array_equal(bits(faddeeva(grid)), bits(_w_upper(z)))

    def test_mixed_signs_use_reflection(self):
        z = self.upper()
        z = np.concatenate([z, -z[(z.imag > 0.0) & (np.abs(z) < 20.0)]])
        lower = z.imag < 0.0
        got = faddeeva(z)
        assert np.array_equal(bits(got[~lower]), bits(_w_upper(z[~lower])))
        zl = z[lower]
        assert np.array_equal(bits(got[lower]), bits(_reflection_exp(zl) - _w_upper(-zl)))

    def test_mixed_array_element_is_one_point_call(self):
        # every region in both half-planes, the real axis and the ray
        # a (1 + i) with its reflection -a (1 + i), shuffled together; the
        # lower off-ray points keep |Im z| < |Re z|, so exp(-z**2) stays finite
        rng = np.random.default_rng(27)
        r = np.concatenate(
            [rng.uniform(0.0, 1.8, 80), rng.uniform(1.8, 12.0, 80), rng.uniform(12.0, 1e3, 80)]
        )
        a = ray_points(12.0, 1e3, 40, 27)
        z = np.concatenate(
            [
                r * np.exp(1j * rng.uniform(0.0, np.pi, r.size)),
                r * np.exp(1j * rng.uniform(-0.24, -0.01, r.size) * np.pi),
                r * np.exp(1j * rng.uniform(-0.99, -0.76, r.size) * np.pi),
                a,
                -a,
                rng.uniform(-30.0, 30.0, 40) + 0j,
            ]
        )
        rng.shuffle(z)
        got = faddeeva(z)
        alone = np.array([faddeeva(z[i : i + 1])[0] for i in range(z.size)])
        assert np.array_equal(bits(alone), bits(got))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)])
    def test_non_finite_rejected_on_fast_path(self, bad):
        with pytest.raises(ValueError):
            faddeeva(bad)
        z = self.upper()
        z[3] = bad
        with pytest.raises(ValueError):
            faddeeva(z)

    @pytest.mark.parametrize("z", [0.5 + 0.5j, 3.0 + 4.0j, 20.0j, -7.0 + 0.0j, 1.0 - 1.0j])
    def test_scalar_returns_python_complex(self, z):
        val = faddeeva(z)
        assert type(val) is complex
        assert np.array_equal(bits(val), bits(faddeeva(np.array([z]))[0]))

    @pytest.mark.parametrize(
        "kernel,lo,hi", [(_w_taylor, 0.0, 1.8), (_w_weideman, 1.8, 12.0), (w_ray, 12.0, 1e6)]
    )
    def test_kernel_rounding_independent_of_batch(self, kernel, lo, hi):
        # every point rounds alike whether it comes alone or in a batch
        # (numpy's in-place complex product of a one-element array skips
        # the fused multiply-add of its vector loop)
        rng = np.random.default_rng(8)
        if kernel is w_ray:
            z = ray_points(lo, hi, 400, 8)
        else:
            z = rng.uniform(lo, hi, 400) * np.exp(1j * rng.uniform(0.0, np.pi, 400))
        batch = kernel(z)
        alone = np.array([kernel(z[i : i + 1])[0] for i in range(z.size)])
        assert np.array_equal(bits(alone), bits(batch))


class TestRaySeries:
    """|z| > 12 on the arg = pi/4 ray: the real asymptotic series, not wofz."""

    def test_accuracy_against_multiprecision(self):
        z = np.concatenate([ray_points(12.0, 1e6, 300, 9), [(1e6 / np.sqrt(2.0)) * (1.0 + 1j)]])
        z = z[np.abs(z) > 12.0]
        assert np.all(z.real == z.imag)
        w = _w_upper(z)
        with mp.workdps(40):
            for zi, wi in zip(z, w):
                zm = mp.mpc(zi.real, zi.imag)
                ref = mp.exp(-zm * zm) * mp.erfc(-1j * zm)
                assert abs(mp.mpc(wi) - ref) <= 1e-15 * abs(ref), f"z={zi}"

    def test_continuous_across_radius(self):
        # the last Weideman points and the first series points on the ray,
        # each one ulp of a apart
        a = 12.0 / np.sqrt(2.0) + np.arange(-3, 4) * np.spacing(12.0 / np.sqrt(2.0))
        z = a * (1.0 + 1j)
        assert np.all(z.real == z.imag)
        inside = np.abs(z) <= 12.0
        assert inside.any() and not inside.all()
        w = _w_upper(z)
        assert np.array_equal(bits(w[inside]), bits(_w_weideman(z[inside])))
        assert np.array_equal(bits(w[~inside]), bits(w_ray(z[~inside])))
        assert np.abs(w - w[0]).max() <= 4e-15 * abs(w[0])

    def test_off_ray_points_still_use_wofz(self):
        rng = np.random.default_rng(10)
        r = 12.0 * (1e5 / 12.0) ** rng.uniform(0.0, 1.0, 400)
        z = r * np.exp(1j * rng.uniform(0.0, np.pi, 400))
        # one ulp off the ray, and a ray point among them
        a = 20.0
        z = np.concatenate([z, [complex(a, np.nextafter(a, 21.0)), complex(a, a)]])
        on = z.real == z.imag
        assert on.sum() == 1
        w = _w_upper(z)
        assert np.array_equal(bits(w[~on]), bits(wofz(z[~on])))
        assert np.array_equal(bits(w[on]), bits(w_ray(z[on])))
        assert np.array_equal(bits(faddeeva(z)), bits(w))

    def test_library_traffic_never_reaches_wofz(self, monkeypatch):
        # the wavefunctions build every large argument on the ray
        def no_wofz(z):
            raise AssertionError(f"wofz reached for {np.size(z)} points")

        reached = []

        def counted(a):
            reached.append(a.size)
            return _w_ray(a)

        monkeypatch.setattr(specialfn, "wofz", no_wofz)
        monkeypatch.setattr(specialfn, "_w_ray", counted)
        ctx = PhysicalContext()
        k = ctx.wavenumber(0.01)
        t = 20e-3
        laws = {
            "receding": MirrorLaw.moving(0.008),
            "fast": MirrorLaw.moving(0.013),
            "sudden": MirrorLaw.sudden_removal(),
            "near_limit": MirrorLaw.moving(0.0099),
        }
        for name, law in laws.items():
            before = sum(reached)
            s = Scenario(ctx, k, law, t)
            xs = np.linspace(-1.5 * s.v_k * t, 1.2 * s.v_k * t, 2001)
            if name == "sudden":
                waves.psi_sudden(xs, t, k, ctx)
            else:
                xs = xs[xs <= s.mirror_position]
                waves.psi_moving(xs, s)
                if name == "near_limit":
                    waves.psi_near_limit(xs[xs > 0.0], s)
            analysis.profile(s, xs)
            assert sum(reached) > before, name


class TestCoefficientArrays:
    """The series loops take each coefficient as a 0-d array of the
    operation's dtype; on numpy-scalar coefficients they give the same bits."""

    @pytest.mark.parametrize("size", [1, 2, 255, 8192])
    def test_series_match_scalar_coefficient_loops(self, size):
        # seeded arguments on and off the arg = pi/4 ray in each region; size
        # 1 takes the fresh-output rule of ``specialfn._in_place``
        rng = np.random.default_rng([2034, size])
        regions = ((0.0, 1.8, _w_taylor, w_taylor_scalar), (1.8, 12.0, _w_weideman, w_weideman_scalar))
        for lo, hi, series, scalar in regions:
            r = rng.uniform(lo, hi, size)
            on = (r / np.sqrt(2.0)) * (1.0 + 1j)
            off = r * np.exp(1j * rng.uniform(0.0, np.pi, size))
            assert np.all(on.real == on.imag)
            for z in (on, off):
                assert np.array_equal(bits(series(z)), bits(scalar(z)))
        a = (12.0 / np.sqrt(2.0)) * (1e5 / 12.0) ** rng.uniform(0.0, 1.0, size)
        for got, want in zip(_w_ray(a.copy()), w_ray_scalar(a.copy())):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestErfc:
    def test_small_values(self):
        assert erfc_complex(0.0) == pytest.approx(1.0, abs=1e-15)
        assert erfc_complex(1.0).real == pytest.approx(0.15729920705028513, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(complex_moderate)
    def test_symmetry(self, z):
        # normalized by the operand scale: for nearly imaginary z the two
        # terms are huge and cancel, so an absolute-2 target is ill-posed
        a, b = erfc_complex(z), erfc_complex(-z)
        scale = max(2.0, abs(a), abs(b))
        assert abs(a + b - 2.0) <= 1e-12 * scale

    def test_against_multiprecision(self):
        rng = np.random.default_rng(7)
        zs = rng.uniform(-6, 6, 100) + 1j * rng.uniform(-6, 6, 100)
        vals = erfc_complex(zs)
        for zi, vi in zip(zs, vals):
            ref = erfc_ref(zi)
            assert abs(vi - ref) <= 1e-11 * abs(ref)

    def test_real_axis_no_overflow(self):
        # naive exp(-z^2)*w(iz) would overflow/underflow in pieces here
        assert erfc_complex(-25.0) == pytest.approx(2.0, abs=1e-15)
        assert abs(erfc_complex(25.0)) < 1e-250

    def test_overflow_flagged(self):
        with pytest.raises(SpecialFunctionOverflow):
            erfc_complex(40.0j)


class TestFresnel:
    def test_zero(self):
        assert fresnel(0.0) == (0.0, 0.0)

    def test_reference_point(self):
        c, s = fresnel(1.0)
        assert c == pytest.approx(0.7798934003768228, abs=1e-13)
        assert s == pytest.approx(0.4382591473903548, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_odd_parity(self, theta):
        cp, sp = fresnel(theta)
        cm, sm = fresnel(-theta)
        assert cm == -cp and sm == -sp

    def test_limit_envelope(self):
        c10, s10 = fresnel(10.0)
        assert abs(c10 - 0.5) <= 0.04
        assert abs(s10 - 0.5) <= 0.04
        assert c10 == pytest.approx(0.49989869420551572, abs=1e-13)
        assert s10 == pytest.approx(0.46816997858488224, abs=1e-13)

    def test_against_multiprecision(self):
        for theta in np.linspace(-8, 8, 97):
            c, s = fresnel(float(theta))
            cr, sr = fresnel_ref(theta)
            assert abs(c - cr) <= 1e-12
            assert abs(s - sr) <= 1e-12

    def test_two_paths_agree(self):
        # scipy's Fresnel integrals versus the direct power series
        for theta in (0.1, 0.5, 1.0, 1.7, 2.2, 2.5):
            c1, s1 = fresnel(theta)
            c2, s2 = fresnel_series(theta)
            assert abs(c1 - c2) <= 1e-10
            assert abs(s1 - s2) <= 1e-10

    def test_series_domain(self):
        with pytest.raises(ValueError):
            fresnel_series(3.5)

    def test_relative_accuracy_near_zero(self):
        # S(theta) ~ pi theta**3 / 6 keeps its relative accuracy down to 1e-6
        for theta in np.geomspace(1e-6, 1e-2, 41):
            c, s = fresnel(float(theta))
            cr, sr = fresnel_ref(theta)
            assert abs(c - cr) <= 1e-13 * cr
            assert abs(s - sr) <= 1e-13 * sr

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            fresnel(np.array([0.5, bad]))

    def test_shapes(self):
        c, s = fresnel(np.linspace(0.0, 2.0, 6).reshape(2, 3))
        assert c.shape == s.shape == (2, 3)
        assert type(fresnel(np.float64(0.5))[0]) is float


class TestCis:
    def test_large_phase_reduction(self):
        # phases of ~1e4 rad keep ~1e-15 accuracy thanks to the extended
        # precision reduction
        phi = np.longdouble("10000.125")
        import mpmath as mp

        ref = complex(mp.expj(mp.mpf("10000.125")))
        assert abs(complex(cis(phi)[()]) - ref) < 5e-15

    @staticmethod
    def sum_form(phi):
        """The cos + 1j*sin expression that cis fills in place, on the same reduction."""
        reduced = np.mod(np.asarray(phi, dtype=np.longdouble), specialfn.TWO_PI_LD).astype(np.float64)
        return np.cos(reduced) + 1j * np.sin(reduced)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_bitwise_equal_to_cos_plus_i_sin(self, dtype):
        n = np.arange(-40, 41).astype(np.longdouble)
        rng = np.random.default_rng(19)
        phi = np.concatenate(
            [
                [0.0, -0.0],
                n * specialfn.TWO_PI_LD,  # multiples of 2 pi, either sign
                np.nextafter(n * specialfn.TWO_PI_LD, 0.0),
                rng.uniform(-1.2e4, 1.2e4, 4001),  # phases of ~1e4 rad
                rng.uniform(-7.0, 7.0, 1001),
            ]
        ).astype(dtype)
        assert np.array_equal(bits(cis(phi)), bits(self.sum_form(phi)))
        grid = phi[:1200].reshape(30, 40)
        assert np.array_equal(bits(cis(grid)), bits(self.sum_form(grid)))
        assert cis(grid).shape == (30, 40)

    @pytest.mark.parametrize("phi", [0.0, -0.0, 1e4, np.longdouble("-1e4"), np.float64(3.0)])
    def test_scalar_keeps_type(self, phi):
        one = cis(phi)
        assert type(one) is np.complex128
        assert np.array_equal(bits(one), bits(self.sum_form(phi)))


class TestPrecisionCheck:
    def test_double_long_double_warns(self):
        with pytest.warns(RuntimeWarning, match=r"1e4 rad lose the 1e-15"):
            specialfn._check_extended_precision(np.finfo(np.float64))

    def test_extended_long_double_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            specialfn._check_extended_precision(np.finfo(np.longdouble))
