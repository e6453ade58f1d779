"""Smoothing kernel: mass, moments, multiplier, and residuals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mixsmooth.approx import (
    angle_surrogate,
    direct_approximant,
    jackson_kernel,
    kernel_moment,
    kernel_residual_norm,
    smoothing_multiplier,
)
from mixsmooth.core import InvalidParams, LorentzParams, cosine, tensor
from mixsmooth.lorentz import poly_norm
from mixsmooth.spectral import angle_residual

from test_spectral import ring_poly

L2 = LorentzParams(2.0, 2.0)


# --- oracle: adaptive quadrature straight against evaluate() ------------------


def quad_moment(kern, mu):
    # split at zero where |u|^mu has a kink; each half is smooth
    val, err = quad(lambda u: kern.evaluate(u) * u**mu, 0.0, math.pi, limit=200)
    assert err < 1e-8
    return 2.0 * val


# --- mass and positivity ---------------------------------------------------


@pytest.mark.parametrize("l", [8, 16, 32, 64, 128])
def test_unit_mass_both_routes(l):
    kern = jackson_kernel(l, 1)
    # constant Fourier coefficient carries the whole integral
    assert kern.as_trig_poly().coeff((0,)).real * 2.0 * math.pi == pytest.approx(1.0, abs=1e-13)
    # trapezoid cross-check on a fine grid
    x = np.linspace(-math.pi, math.pi, 20001)
    mass = np.trapezoid(kern.evaluate(x), x)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_kernel_is_even_nonnegative_peaked_at_zero():
    kern = jackson_kernel(16, 2)
    x = np.linspace(-math.pi, math.pi, 4001)
    y = kern.evaluate(x)
    assert np.all(y >= -1e-12)
    assert np.allclose(y, y[::-1], atol=1e-12)
    assert np.argmax(y) == len(x) // 2


def test_degree_stays_within_half_the_budget():
    for l in (8, 17, 33, 128):
        for k in (1, 2, 3):
            kern = jackson_kernel(l, k)
            assert 0 < kern.degree <= l


# --- moments ------------------------------------------------------------------


@pytest.mark.parametrize("l", [8, 32])
@pytest.mark.parametrize("mu", [1, 2])
def test_moment_recurrence_matches_quadrature(l, mu):
    kern = jackson_kernel(l, 2)
    assert kernel_moment(kern, mu) == pytest.approx(quad_moment(kern, mu), rel=1e-9)


def test_moment_decays_like_inverse_degree():
    # log-log slope of the first moment across doublings, fitted over 8..128
    ls = [8, 16, 32, 64, 128]
    moments = [kernel_moment(jackson_kernel(l, 1), 1) for l in ls]
    slope = np.polyfit(np.log(ls), np.log(moments), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_second_moment_needs_higher_power():
    ls = [8, 16, 32, 64, 128]
    moments = [kernel_moment(jackson_kernel(l, 2), 2) for l in ls]
    slope = np.polyfit(np.log(ls), np.log(moments), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.3)


# --- multiplier and approximant --------------------------------------------


def test_multiplier_endpoints():
    kern = jackson_kernel(16, 1)
    freqs = np.arange(-40, 41)
    m = smoothing_multiplier(kern, freqs)
    center = np.where(freqs == 0)[0][0]
    assert m[center] == pytest.approx(1.0, abs=1e-13)
    beyond = np.abs(freqs) > kern.degree
    assert np.allclose(m[beyond], 0.0, atol=1e-15)
    assert np.all(m <= 1.0 + 1e-12)
    assert np.all(m >= -1e-12)


def test_approximant_2d_is_separable_multiplier():
    f = ring_poly(np.random.default_rng(31), 2, 6)
    l = (4, 7)
    g = direct_approximant(f, l, k=1)
    k1 = jackson_kernel(4, 1)
    k2 = jackson_kernel(7, 1)
    m1 = smoothing_multiplier(k1, f.freqs(0))
    m2 = smoothing_multiplier(k2, f.freqs(1))
    want = f.apply_multiplier(np.outer(m1, m2))
    assert np.allclose(g.coeffs, want.coeffs, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("k", [0, (1, 0), (1,), (1, 1, 1)])
def test_approximant_rejects_bad_difference_orders(k):
    # orders below 1 or not one per axis, checked as the difference operators do
    f = ring_poly(np.random.default_rng(31), 2, 6)
    with pytest.raises(InvalidParams, match="difference orders"):
        direct_approximant(f, (4, 7), k=k)


def test_residual_vanishes_once_kernel_covers_the_spectrum():
    f = cosine(2)
    # kernel degree grows with l; far past the spectrum the approximant is not
    # exact (the multiplier dips below 1), but the residual must shrink
    r8 = kernel_residual_norm(f, (8,), L2)
    r64 = kernel_residual_norm(f, (64,), L2)
    r512 = kernel_residual_norm(f, (512,), L2)
    assert r64 < r8
    assert r512 < r64 / 4.0
    assert kernel_residual_norm(f * 0.0, (8,), L2) == 0.0


def test_residual_matches_manual_subtraction():
    f = ring_poly(np.random.default_rng(32), 1, 10)
    got = kernel_residual_norm(f, (6,), L2)
    want = poly_norm(f + (-direct_approximant(f, (6,), k=1)), L2)
    assert got == pytest.approx(want, rel=1e-12)


# --- corner surrogate --------------------------------------------------------


def test_angle_surrogate_hand_value():
    f = tensor(cosine(2), cosine(2))
    assert angle_surrogate(f, (1, 1), L2) == pytest.approx(0.5, abs=1e-12)


def test_angle_surrogate_matches_residual_norm():
    f = ring_poly(np.random.default_rng(33), 2, 5)
    for l in ((1, 1), (2, 3)):
        got = angle_surrogate(f, l, L2)
        want = poly_norm(angle_residual(f, l), L2)
        assert got == pytest.approx(want, rel=1e-12)
