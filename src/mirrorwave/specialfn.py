"""High-accuracy complex special-function kernels.

``faddeeva`` -- the scaled complex complementary error function
w(z) = exp(-z**2) * erfc(-i*z) -- is the one hand-written kernel behind
every wave solution in this package.  ``fresnel`` -- the Fresnel
integrals C and S (C(inf) = S(inf) = 1/2) of the Cornu-spiral curves --
wraps ``scipy.special.fresnel``.

w(z) is evaluated with a region scheme (radii tuned against an
arbitrary-precision reference):

* |z| <= 1.8              Maclaurin series  w(z) = sum (i z)**n / Gamma(n/2 + 1)
* 1.8 < |z| <= 12         Weideman rational approximation (N = 48)
* |z| > 12, Re z = Im z   asymptotic series on the arg = pi/4 ray (12 terms),
                          summed as two real polynomials
* |z| > 12, off the ray   ``scipy.special.wofz``

all for Im z >= 0.  Points below the real axis enter the one pass as -z
and are corrected in place by the reflection w(z) = 2 exp(-z**2) - w(-z),
guarded against overflow of exp(-z**2); an input with none skips both.

Large phase arguments (hundreds to thousands of radians arise routinely
for cm/s beams at ms times) are reduced modulo 2*pi in extended
precision before the complex exponential is formed; see ``cis``.

Everything here is pure and reentrant: tables are built once at import
and never mutated, so all functions may be called concurrently.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import fresnel as _scipy_fresnel, wofz

SQRT_PI = 1.7724538509055160273

# 2*pi to long-double precision (np.pi alone is a 53-bit value)
TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")

_TAYLOR_RADIUS = 1.8
_FAR_RADIUS = 12.0
_TAYLOR_TERMS = 64
_WEIDEMAN_N = 48

# exp(-z*z) overflows double once Im(z)**2 - Re(z)**2 exceeds ~709.78
_EXP_OVERFLOW = 709.0


class SpecialFunctionOverflow(FloatingPointError):
    """exp(-z**2) exceeds the double range; the result would saturate."""


def _check_extended_precision(finfo) -> None:
    """Warn if np.longdouble, described by ``finfo``, is too short for ``cis``."""
    if finfo.nmant < 63:
        warnings.warn(
            f"np.longdouble has {finfo.nmant + 1} significand bits, not 64: phases of "
            "1e4 rad lose the 1e-15 accuracy of cis and the wavefunctions",
            RuntimeWarning,
            stacklevel=2,
        )


_check_extended_precision(np.finfo(np.longdouble))


def cis(phi) -> np.ndarray:
    """exp(i*phi) with the argument reduced modulo 2*pi in extended precision.

    ``phi`` may be float64 or long double, scalar or array.  Passing a
    long-double phi computed from long-double factors keeps the phase
    error near eps_ld * |phi| instead of eps_64 * |phi|.  The cosine and
    sine are written in place into the real and imaginary parts of one
    complex output, bitwise equal to ``cos + 1j * sin`` of the reduced
    phase; a 0-d phi gives a numpy complex scalar.
    """
    phi_ld = np.asarray(phi, dtype=np.longdouble)
    reduced = np.mod(phi_ld, TWO_PI_LD).astype(np.float64)
    out = np.empty(reduced.shape, dtype=complex)
    np.cos(reduced, out=out.real)
    np.sin(reduced, out=out.imag)
    return out[()]


def _in_place(p):
    """``out`` argument for an in-place complex product p * q, or None.

    numpy runs an in-place complex product of a one-element array through
    its scalar loop, which rounds without the fused multiply-add of the
    vector loop; a single point therefore gets a fresh output, so every
    element rounds alike whatever the size of its batch.
    """
    return p if p.size > 1 else None


def _coeffs(values, dtype):
    """``values`` as a tuple of 0-d arrays of ``dtype``, one per coefficient.

    A series loop takes one coefficient per ufunc call, and numpy converts
    a numpy scalar operand on every call (~290 ns) but passes a 0-d array
    of the operation's own dtype straight to the loop, with the same
    result bits.
    """
    return tuple(np.asarray(v, dtype=dtype) for v in values)


# --- Maclaurin region -------------------------------------------------------

# 1 / Gamma(n/2 + 1) for n = 0..N; generated by the recurrence
# Gamma(y + 1) = y * Gamma(y) from Gamma(1) = 1 and Gamma(3/2) = sqrt(pi)/2.
def _taylor_coeffs(n_terms):
    inv = np.empty(n_terms)
    g = np.empty(n_terms)  # Gamma(n/2 + 1)
    g[0] = 1.0
    g[1] = SQRT_PI / 2.0
    for n in range(2, n_terms):
        g[n] = (n / 2.0) * g[n - 2]
    np.divide(1.0, g, out=inv)
    return inv


_TAYLOR_INV_GAMMA = _coeffs(_taylor_coeffs(_TAYLOR_TERMS + 1), complex)


def _w_taylor(z):
    iz = 1j * z
    acc = np.full(z.shape, _TAYLOR_INV_GAMMA[0], dtype=complex)
    p = np.ones_like(acc)
    term = np.empty_like(acc)
    out = _in_place(p)
    for n in range(1, _TAYLOR_TERMS + 1):
        p = np.multiply(p, iz, out=out)
        np.multiply(_TAYLOR_INV_GAMMA[n], p, out=term)
        acc += term
    return acc


# --- Weideman region --------------------------------------------------------

def _weideman_table(n):
    # J.A.C. Weideman, SIAM J. Numer. Anal. 31 (1994): rational expansion of
    # w on the upper half-plane; coefficients from an FFT of the real-line
    # samples.  n = 48 leaves the annulus error near 1e-15.
    m = 2 * n
    idx = np.arange(-m + 1, m)
    big_l = np.sqrt(n / np.sqrt(2.0))
    theta = (np.pi / m) * idx
    t = big_l * np.tan(0.5 * theta)
    f = np.zeros(idx.size + 1)
    f[1:] = np.exp(-t * t) * (big_l * big_l + t * t)
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return big_l, _coeffs(a[1 : n + 1][::-1], complex)  # highest degree first


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_table(_WEIDEMAN_N)


def _w_weideman(z):
    big_l = _WEIDEMAN_L
    iz = 1j * z
    den = big_l - iz
    ratio = (big_l + iz) / den
    p = np.zeros_like(z)
    out = _in_place(p)
    for c in _WEIDEMAN_A:
        p = np.multiply(p, ratio, out=out)
        p += c
    return 2.0 * p / den**2 + (1.0 / SQRT_PI) / den


# --- asymptotic series on the arg = pi/4 ray --------------------------------

# w(z) ~ i / (sqrt(pi) z) * sum_n (2n - 1)!! / (2 z**2)**n.  On the ray
# z = a (1 + i), 1 / (2 z**2) = -i s with s = 1 / (4 a**2), so the terms
# n = 0..11 sum to R(s) - i s P(s), with R and P polynomials in s**2 whose
# coefficients (-1)**j (4j - 1)!! and (-1)**j (4j + 1)!! are exact integers;
# highest degree first
_RAY_R = _coeffs([-654729075.0, 2027025.0, -10395.0, 105.0, -3.0, 1.0], float)
_RAY_P = _coeffs([-13749310575.0, 34459425.0, -135135.0, 945.0, -15.0, 1.0], float)


def _w_ray(a):
    """(Re w, Im w) at z = a (1 + i), a > 12 / sqrt(2), as two real arrays.

    With g = 1 / (2 sqrt(pi) a) and s = 1 / (4 a**2) = pi g**2,
    w = g (R + s P + i (R - s P)), R and P the polynomials ``_RAY_R`` and
    ``_RAY_P`` in s**2.  Twelve terms leave a truncation error near
    1e-18 at |z| = 12.  The work runs in place on ``a``, which is
    overwritten with g, and on three more real arrays of its size.
    """
    g = np.divide(0.5 / SQRT_PI, a, out=a)
    t = np.multiply(g, g)
    t *= np.pi
    t *= t
    re = np.multiply(t, _RAY_R[0])
    re += _RAY_R[1]
    for r in _RAY_R[2:]:
        re *= t
        re += r
    im = np.multiply(t, _RAY_P[0])
    im += _RAY_P[1]
    for p in _RAY_P[2:]:
        im *= t
        im += p
    # s again, in the array that held s**2: s P, then R + s P and R - s P
    np.multiply(g, g, out=t)
    t *= np.pi
    im *= t
    np.subtract(re, im, out=t)
    re += im
    re *= g
    t *= g
    return re, t


def _w_upper(z):
    """w(z) for Im z >= 0 via the region scheme."""
    out = np.empty(z.shape, dtype=complex)
    r = np.abs(z)
    small = r <= _TAYLOR_RADIUS
    big = r > _FAR_RADIUS
    mid = ~(small | big)
    ray = z.real == z.imag
    ray &= big
    big ^= ray
    if small.any():
        out[small] = _w_taylor(z[small])
    if mid.any():
        out[mid] = _w_weideman(z[mid])
    if ray.any():
        out.real[ray], out.imag[ray] = _w_ray(z.real[ray])
    if big.any():
        out[big] = wofz(z[big])
    return out


def _reflection_exp(z):
    """2*exp(-z**2) with the oscillatory part phase-reduced in extended precision.

    Raises SpecialFunctionOverflow when Re(-z**2) overflows double range.
    """
    x = np.asarray(z.real, dtype=np.longdouble)
    y = np.asarray(z.imag, dtype=np.longdouble)
    growth = (y * y - x * x).astype(np.float64)  # Re(-z**2)
    if np.any(growth > _EXP_OVERFLOW):
        raise SpecialFunctionOverflow(
            "exp(-z**2) overflows for deep lower-half-plane argument; "
            f"max Re(-z**2) = {float(np.max(growth)):.6g}"
        )
    return 2.0 * np.exp(growth) * cis(-2.0 * x * y)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z**2) * erfc(-i*z).

    Accepts a complex scalar or array; returns the same shape.  Inputs
    must be finite.  Points with Im z < 0 enter the one region-scheme
    pass as -z and are corrected in place by the reflection
    w(z) = 2*exp(-z**2) - w(-z); arguments deep enough in the lower
    half-plane to overflow exp(-z**2) raise ``SpecialFunctionOverflow``
    rather than returning inf.
    """
    za = np.asarray(z, dtype=complex)
    zf = np.atleast_1d(za)
    if not np.all(np.isfinite(zf)):
        raise ValueError("faddeeva requires finite arguments")
    lower = zf.imag < 0.0
    if not lower.any():
        out = _w_upper(zf)
    else:
        out = _w_upper(np.where(lower, -zf, zf))
        out[lower] = _reflection_exp(zf[lower]) - out[lower]
    return complex(out[0]) if za.ndim == 0 else out


def fresnel(theta):
    """Fresnel integrals (C(theta), S(theta)).

    C(x) = int_0^x cos(pi t**2 / 2) dt, S likewise with sin; both odd,
    C(inf) = S(inf) = 1/2.  Wraps ``scipy.special.fresnel`` (which returns
    (S, C)), rejecting non-finite input.  Against 40-digit mpmath on 500
    theta in [1e-6, 30] both err by <= 1.1e-15, and S, ~ pi theta**3 / 6
    near 0, by <= 2.3e-15 relative.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("fresnel requires finite arguments")
    s, c = _scipy_fresnel(th)
    if th.ndim == 0:
        return float(c), float(s)
    return c, s
