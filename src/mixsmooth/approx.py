"""Jackson-type smoothing kernels and the direct trigonometric approximant.

The order-l kernel is F_l(u) = b_r (sin(r u / 2) / sin(u / 2))^(2 k0) with
k0 = floor((k + 1) / 2) + 1 and r = floor(l / (2 k0)) + 1, normalized to unit
mass on [-pi, pi].  Its Fourier coefficients are integers up to the
normalization: squaring the Dirichlet-type ratio gives the triangle sequence
(autocorrelation of a ones vector), and raising to the k0-th power is an
iterated integer convolution.  Unit mass is then exact by construction
(central coefficient 1 / (2 pi)), and the degree k0 (r - 1) never exceeds
l / 2.

Smoothing f by F_l on one axis is a diagonal coefficient multiplier
m(n) = 1 - (-1)^k * sum_{v=0..k} (-1)^(k-v) C(k, v) 2 pi c_{|n v|}; the
multi-axis approximant composes the per-axis multipliers (they commute
exactly, being elementwise products), vanishes for |n| > l, and leaves the
residual f - A(f) controlled by the mixed modulus at steps 1 / (l + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParams, LorentzParams, TrigPoly, axis_product
from .lorentz import lorentz_norm
from .spectral import angle_residual

__all__ = [
    "JacksonKernel",
    "jackson_kernel",
    "kernel_moment",
    "smoothing_multiplier",
    "direct_approximant",
    "kernel_residual_norm",
    "angle_surrogate",
]


@dataclass(frozen=True)
class JacksonKernel:
    """Even nonnegative kernel with integer-exact cosine coefficients.

    coeffs[q] holds c_q for q = 0..degree; the kernel is
    F(u) = c_0 + 2 sum_{q>=1} c_q cos(q u) with c_0 = 1 / (2 pi) exactly.
    """

    l: int
    k: int
    k0: int
    r: int
    b_r: float
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        q = np.arange(1, self.coeffs.size, dtype=np.float64)
        acc = np.full(u.shape, self.coeffs[0])
        if q.size:
            acc = acc + 2.0 * np.cos(np.multiply.outer(u, q)) @ self.coeffs[1:]
        return acc

    def as_trig_poly(self) -> TrigPoly:
        deg = self.degree
        full = np.empty(2 * deg + 1, dtype=np.complex128)
        full[deg:] = self.coeffs
        full[:deg] = self.coeffs[:0:-1]
        return TrigPoly(1, deg, full, real=True, allow_large=True)


def jackson_kernel(l: int, k: int = 1) -> JacksonKernel:
    """Build the order-l kernel for difference order k (l >= 0, k >= 1)."""
    l = int(l)
    k = int(k)
    if l < 0:
        raise InvalidParams(f"kernel order must be >= 0, got {l}")
    if k < 1:
        raise InvalidParams(f"difference order must be >= 1, got {k}")
    k0 = (k + 1) // 2 + 1
    r = l // (2 * k0) + 1
    ones = np.ones(r, dtype=np.int64)
    triangle = np.convolve(ones, ones)
    full = triangle
    for _ in range(k0 - 1):
        full = np.convolve(full, triangle)
    center = k0 * (r - 1)
    v0 = int(full[center])
    b_r = 1.0 / (2.0 * math.pi * v0)
    ratios = full[center:].astype(np.float64) / v0
    coeffs = ratios / (2.0 * math.pi)
    coeffs.flags.writeable = False
    return JacksonKernel(l=l, k=k, k0=k0, r=r, b_r=b_r, coeffs=coeffs)


def kernel_moment(kern: JacksonKernel, mu: int) -> float:
    """Exact moment integral_(-pi)^(pi) F(u) |u|^mu du for integer mu >= 0.

    Uses the closed forms I_mu(q) = int_0^pi u^mu cos(q u) du via the
    integration-by-parts recurrence; no quadrature involved.
    """
    mu = int(mu)
    if mu < 0:
        raise InvalidParams(f"moment order must be >= 0, got {mu}")
    total = 2.0 * float(kern.coeffs[0]) * math.pi ** (mu + 1) / (mu + 1)
    qs = kern.coeffs.size - 1
    for q in range(1, qs + 1):
        total += 4.0 * float(kern.coeffs[q]) * _cos_power_integral(mu, q)
    return total


def _cos_power_integral(mu: int, q: int) -> float:
    """I_mu = int_0^pi u^mu cos(q u) du by recurrence with J_nu = int u^nu sin(q u) du."""
    sign = -1.0 if q % 2 else 1.0
    i_val = 0.0  # I_0
    j_val = (1.0 - sign) / q  # J_0
    for nu in range(1, mu + 1):
        i_next = -(nu / q) * j_val
        j_next = -(math.pi**nu) * sign / q + (nu / q) * i_val
        i_val, j_val = i_next, j_next
    return i_val


def smoothing_multiplier(kern: JacksonKernel, freqs: np.ndarray) -> np.ndarray:
    """Per-frequency multiplier of the one-axis smoothing operator.

    m(n) = 1 - (-1)^k * I(n) with I(n) = int F(t) (e^{i n t} - 1)^k dt expanded
    through the kernel coefficients.  m(0) = 1 and m(n) = 0 for |n| beyond the
    kernel degree, so the operator outputs a polynomial of axis order <= l.
    """
    k = kern.k
    deg = kern.degree
    n = np.abs(np.asarray(freqs, dtype=np.int64))
    out = np.zeros(n.shape, dtype=np.float64)
    for v in range(0, k + 1):
        c_idx = n * v
        c_val = np.where(c_idx <= deg, kern.coeffs[np.minimum(c_idx, deg)], 0.0)
        out += ((-1.0) ** (k - v)) * math.comb(k, v) * 2.0 * math.pi * c_val
    return 1.0 - ((-1.0) ** k) * out


def direct_approximant(f: TrigPoly, l, k=1) -> TrigPoly:
    """Tensor smoothing approximant of axis orders l_j built from order-k_j kernels.

    Coefficientwise: a_n -> a_n * prod_j m_j(n_j).  The residual f - A(f)
    equals the iterated kernel average of the mixed difference of f, which is
    what makes the modulus bound of the direct theorem computable.
    """
    if np.isscalar(l):
        l = (l,) * f.dim
    l = tuple(int(v) for v in l)
    if len(l) != f.dim or any(v < 0 for v in l):
        raise InvalidParams(f"approximant orders must be >= 0 per axis, got {l}")
    if np.isscalar(k):
        k = (k,) * f.dim
    k = tuple(int(v) for v in k)
    if len(k) != f.dim or any(v < 1 for v in k):
        raise InvalidParams(f"difference orders must be >= 1 per axis, got {k}")
    mult = axis_product([
        smoothing_multiplier(jackson_kernel(lj, kj), f.freqs(axis))
        for axis, (lj, kj) in enumerate(zip(l, k))
    ])
    return f.apply_multiplier(mult, real=f.real if f.real else None)


def kernel_residual_norm(f: TrigPoly, l, lp: LorentzParams, k=1, shape=None) -> float:
    """|| f - direct_approximant(f, l, k) ||_{p,tau}: the computable upper envelope
    for the best angle approximation at cutoff l."""
    return lorentz_norm(f - direct_approximant(f, l, k), lp, shape)


def angle_surrogate(f: TrigPoly, l, lp: LorentzParams, shape=None) -> float:
    """Two-sided surrogate || f - U_l(f) ||_{p,tau} for the best angle approximation."""
    return lorentz_norm(angle_residual(f, l), lp, shape)
