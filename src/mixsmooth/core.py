"""Trigonometric polynomials on the m-torus and shared parameter bundles.

Functions are finite Fourier sums f(y) = sum_k a_k exp(i <k, y>) with
frequency vectors k in the box prod_j [-n_j, n_j].  Throughout the package
the torus is parameterized by the unit cube: samples are taken at
y = 2*pi*x with x on the uniform grid {i/N}, so the sampling measure has
total mass one and discrete p-norms carry no 2*pi factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "InvalidParams",
    "GridTooCoarse",
    "LorentzParams",
    "SmoothParams",
    "TrigPoly",
    "validate_params",
    "evaluate_on_grid",
    "evaluate_coeff_batch",
    "axis_product",
    "default_grid_shape",
    "cosine",
    "tensor",
]

# Degrees above this bound are rejected unless explicitly allowed; grid work
# grows like prod(2 n_j + 1) * log and silently huge inputs are usually bugs.
DEGREE_GUARD = 128


class InvalidParams(ValueError):
    """Raised when a parameter bundle violates its admissible range."""


class GridTooCoarse(ValueError):
    """Raised when a sampling grid cannot resolve the polynomial (aliasing)."""


def _as_int_tuple(value, dim: int, name: str) -> tuple[int, ...]:
    if np.isscalar(value):
        value = (value,) * dim
    out = tuple(int(v) for v in value)
    if len(out) != dim:
        raise InvalidParams(f"{name} must have one entry per axis, got {out}")
    return out


def _as_float_tuple(value, dim: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        value = (value,) * dim
    out = tuple(float(v) for v in value)
    if len(out) != dim:
        raise InvalidParams(f"{name} must have one entry per axis, got {out}")
    return out


def _store_hash(params, fields: tuple) -> None:
    # Parameter objects key every Workspace cache and the step-weight cache,
    # and equal objects are built afresh on every check, so each object
    # hashes its fields once, to the value the dataclass hash would give.
    object.__setattr__(params, "_hash", hash(fields))


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair (p, tau) of the Lorentz norm, 1 < p < inf, 1 <= tau < inf."""

    p: float
    tau: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise InvalidParams(f"p must lie in (1, inf), got {self.p}")
        if not (1.0 <= self.tau < math.inf):
            raise InvalidParams(f"tau must lie in [1, inf), got {self.tau}")
        _store_hash(self, (self.p, self.tau))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class SmoothParams:
    """Smoothness bundle: summation exponent theta, weight exponents b, orders k.

    theta is an extended real in (0, inf] (math.inf selects the sup form of
    every theta-sum).  b has one real entry per axis with b_j > -1/theta
    (b_j > 0 when theta is inf).  k has one integer entry per axis, k_j >= 1;
    it is the order of the axis-j difference.
    """

    theta: float
    b: tuple[float, ...]
    k: tuple[int, ...]

    def __init__(self, theta: float, b, k=1):
        object.__setattr__(self, "theta", float(theta))
        dim = 1 if np.isscalar(b) else len(tuple(b))
        object.__setattr__(self, "b", _as_float_tuple(b, dim, "b"))
        object.__setattr__(self, "k", _as_int_tuple(k, dim, "k"))
        self._validate()
        _store_hash(self, (self.theta, self.b, self.k))

    def __hash__(self):
        return self._hash

    def _validate(self):
        if not (0.0 < self.theta):
            raise InvalidParams(f"theta must lie in (0, inf], got {self.theta}")
        floor = 0.0 if math.isinf(self.theta) else -1.0 / self.theta
        for j, bj in enumerate(self.b):
            if not (bj > floor):
                raise InvalidParams(
                    f"b[{j}] = {bj} violates b > {floor} required by theta = {self.theta}"
                )
        for j, kj in enumerate(self.k):
            if kj < 1:
                raise InvalidParams(f"k[{j}] must be a positive integer, got {kj}")

    @property
    def dim(self) -> int:
        return len(self.b)


def validate_params(lp: LorentzParams, sp: SmoothParams, dim: int) -> None:
    """Check that a (LorentzParams, SmoothParams) pair is admissible for dim axes."""
    if not isinstance(lp, LorentzParams):
        raise InvalidParams("lp must be a LorentzParams")
    if not isinstance(sp, SmoothParams):
        raise InvalidParams("sp must be a SmoothParams")
    if sp.dim != dim:
        raise InvalidParams(f"smoothness bundle has {sp.dim} axes, function has {dim}")


class TrigPoly:
    """Immutable trigonometric polynomial on the m-torus.

    Parameters
    ----------
    dim : int
        Number of axes m >= 1.
    degree : int or sequence of int
        Declared per-axis degree box n_j >= 0; coefficients live on
        prod_j [-n_j, n_j].
    coeffs : ndarray, complex, shape (2 n_1 + 1, ..., 2 n_m + 1)
        Coefficient tensor, axis j indexed by k_j + n_j.
    real : bool, optional
        Declare the polynomial real-valued.  Hermitian symmetry
        a_{-k} == conj(a_k) is verified at construction.  Default: detect.
    allow_large : bool, optional
        Accept degrees above the performance guard (128 per axis).

    Attributes
    ----------
    factors : tuple of ndarray or None
        For a product of one-axis polynomials built by `tensor`, the one-axis
        coefficient vectors in axis order, with coeffs equal to
        axis_product(factors) bit for bit; the norms sample such a polynomial
        one axis at a time.  None for every other polynomial: the
        constructor, arithmetic, apply_multiplier and loads set no factors.
    """

    __slots__ = ("dim", "degree", "coeffs", "real", "factors")

    def __init__(self, dim, degree, coeffs, real=None, allow_large=False):
        dim = int(dim)
        if dim < 1:
            raise InvalidParams(f"dim must be >= 1, got {dim}")
        degree = _as_int_tuple(degree, dim, "degree")
        for n in degree:
            if n < 0:
                raise InvalidParams(f"degree entries must be >= 0, got {degree}")
            if n > DEGREE_GUARD and not allow_large:
                raise InvalidParams(
                    f"degree {n} exceeds the guard {DEGREE_GUARD}; "
                    "pass allow_large=True to override"
                )
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        want = tuple(2 * n + 1 for n in degree)
        if coeffs.shape != want:
            raise InvalidParams(f"coeffs shape {coeffs.shape} != {want} for degree {degree}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        if real is None:
            real = _is_hermitian(coeffs)
        elif real and not _is_hermitian(coeffs):
            raise InvalidParams("real=True but coefficients are not Hermitian-symmetric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "real", bool(real))
        object.__setattr__(self, "factors", None)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree=0) -> "TrigPoly":
        degree = _as_int_tuple(degree, dim, "degree")
        shape = tuple(2 * n + 1 for n in degree)
        return cls(dim, degree, np.zeros(shape, dtype=np.complex128), real=True)

    @classmethod
    def from_entries(
        cls, dim: int, degree, entries: Iterable, real=None, allow_large=False
    ) -> "TrigPoly":
        """Build from an iterable of (k, value) or (k, re, im) entries."""
        degree = _as_int_tuple(degree, dim, "degree")
        shape = tuple(2 * n + 1 for n in degree)
        coeffs = np.zeros(shape, dtype=np.complex128)
        for entry in entries:
            if len(entry) == 2:
                k, value = entry
                value = complex(value)
            else:
                k, re, im = entry
                value = complex(float(re), float(im))
            idx = tuple(int(kj) + n for kj, n in zip(k, degree))
            for kj, n in zip(k, degree):
                if abs(int(kj)) > n:
                    raise InvalidParams(f"frequency {tuple(k)} outside degree box {degree}")
            coeffs[idx] = value
        return cls(dim, degree, coeffs, real=real, allow_large=allow_large)

    # -- basic queries -----------------------------------------------------

    def freqs(self, axis: int) -> np.ndarray:
        """Frequency values along one axis, -n_j .. n_j."""
        n = self.degree[axis]
        return np.arange(-n, n + 1)

    def coeff(self, k: Sequence[int]) -> complex:
        idx = tuple(int(kj) + n for kj, n in zip(k, self.degree))
        return complex(self.coeffs[idx])

    def nonzero_entries(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        """Yield (k, a_k) over nonzero coefficients in lexicographic k order."""
        it = np.ndindex(self.coeffs.shape)
        for idx in it:
            value = self.coeffs[idx]
            if value != 0:
                k = tuple(i - n for i, n in zip(idx, self.degree))
                yield k, complex(value)

    def tight_degree(self) -> tuple[int, ...]:
        """Smallest degree box containing every nonzero coefficient."""
        nz = np.nonzero(self.coeffs)
        out = []
        for axis, n in enumerate(self.degree):
            if nz[0].size == 0:
                out.append(0)
            else:
                out.append(int(np.max(np.abs(nz[axis] - n))))
        return tuple(out)

    def is_ring_member(self) -> bool:
        """True when every axis-mean vanishes: a_k == 0 whenever some k_j == 0.

        For a Fourier sum, integrating out the j-th variable keeps exactly the
        coefficients with k_j == 0, so the zero-mean ring condition is a
        statement about coordinate hyperplanes of the spectrum.
        """
        return not self.ring_violation_axes()

    def ring_violation_axes(self) -> list[int]:
        """Axes (0-based) whose mean over the corresponding variable is nonzero."""
        bad = []
        for axis, n in enumerate(self.degree):
            plane = np.take(self.coeffs, n, axis=axis)
            if np.any(plane != 0):
                bad.append(axis)
        return bad

    # -- arithmetic --------------------------------------------------------

    def _with_coeffs(self, coeffs, real=None) -> "TrigPoly":
        return TrigPoly(self.dim, self.degree, coeffs, real=real, allow_large=True)

    def apply_multiplier(self, mult: np.ndarray, real=None) -> "TrigPoly":
        """Multiply the coefficient tensor elementwise (same degree box)."""
        return self._with_coeffs(self.coeffs * mult, real=real)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise InvalidParams("cannot add polynomials of different dim")
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        shape = tuple(2 * n + 1 for n in degree)
        coeffs = np.zeros(shape, dtype=np.complex128)
        _embed(coeffs, self.coeffs, self.degree, degree)
        _embed_add(coeffs, other.coeffs, other.degree, degree)
        return TrigPoly(self.dim, degree, coeffs, allow_large=True)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self.__add__((-1.0) * other)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._with_coeffs(-self.coeffs)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            [list(k), value.real, value.imag] for k, value in self.nonzero_entries()
        ]
        return {"dim": self.dim, "degree": list(self.degree), "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict, allow_large=False) -> "TrigPoly":
        try:
            dim = int(data["dim"])
            degree = data["degree"]
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise InvalidParams(f"malformed polynomial document: {exc}") from exc
        return cls.from_entries(dim, degree, entries, allow_large=allow_large)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str, allow_large=False) -> "TrigPoly":
        return cls.from_json_dict(json.loads(text), allow_large=allow_large)

    def __repr__(self):
        nnz = int(np.count_nonzero(self.coeffs))
        return f"TrigPoly(dim={self.dim}, degree={self.degree}, nnz={nnz}, real={self.real})"


def _hermitian_rows(coeff_batch: np.ndarray) -> np.ndarray:
    """Exact test a_{-k} == conj(a_k) of each row of a (B, ...) stack, shape (B,)."""
    flipped = coeff_batch[(slice(None),) + (slice(None, None, -1),) * (coeff_batch.ndim - 1)]
    equal = coeff_batch == np.conj(flipped)
    return equal.reshape(len(coeff_batch), int(np.prod(coeff_batch.shape[1:]))).all(axis=1)


def _is_hermitian(coeffs: np.ndarray) -> bool:
    """Exact test a_{-k} == conj(a_k) on every axis."""
    return bool(_hermitian_rows(coeffs[None])[0])


def _embed(target: np.ndarray, source: np.ndarray, sdeg, tdeg) -> None:
    sl = tuple(slice(t - s, t + s + 1) for s, t in zip(sdeg, tdeg))
    target[sl] = source


def _embed_add(target: np.ndarray, source: np.ndarray, sdeg, tdeg) -> None:
    sl = tuple(slice(t - s, t + s + 1) for s, t in zip(sdeg, tdeg))
    target[sl] += source


def cosine(freq: int, amplitude: float = 1.0) -> TrigPoly:
    """One-axis polynomial amplitude * cos(freq * y).

    freq = 0 gives the constant (not a zero-mean ring member; useful for
    negative tests of the mean-zero validation).
    """
    freq = int(freq)
    if freq < 0:
        raise InvalidParams("freq must be >= 0")
    half = amplitude / 2.0
    if freq == 0:
        return TrigPoly.from_entries(1, 0, [((0,), amplitude)], real=True)
    return TrigPoly.from_entries(
        1, freq, [((-freq,), half), ((freq,), half)], real=True, allow_large=freq > DEGREE_GUARD
    )


def tensor(*factors: TrigPoly) -> TrigPoly:
    """Tensor product of one-axis (or lower-dim) polynomials: f(x) = prod f_i(x_i).

    A factor that is itself a product of one-axis polynomials enters as its
    one-axis factors, so nested products flatten.  When every factor is
    one-axis or such a product, the result records the one-axis coefficient
    vectors in `factors`; its coeffs are their product in axis order, which
    is axis_product(factors) bit for bit.
    """
    if not factors:
        raise InvalidParams("tensor needs at least one factor")
    dim = sum(f.dim for f in factors)
    degree = tuple(n for f in factors for n in f.degree)
    pieces = [c for f in factors for c in (f.factors or (f.coeffs,))]
    coeffs = pieces[0]
    for piece in pieces[1:]:
        # broadcasting ufunc multiply, not tensordot: BLAS complex products
        # are Hermitian only to rounding, which would break the exact
        # symmetry check for real factors
        coeffs = coeffs[(...,) + (None,) * piece.ndim] * piece
    real = all(f.real for f in factors)
    out = TrigPoly(dim, degree, coeffs, real=real if real else None, allow_large=True)
    if all(piece.ndim == 1 for piece in pieces):
        object.__setattr__(out, "factors", tuple(pieces))
    return out


def _pow2_grid(degree, floor: int) -> tuple[int, ...]:
    """The one grid rule: per axis, the smallest power of two >= max(floor, 2 n_j + 1).

    2 n_j + 1 points make the sampling alias-free; powers of two are the
    fastest FFT sizes.
    """
    return tuple(1 << (max(floor, 2 * int(n) + 1) - 1).bit_length() for n in degree)


def default_grid_shape(dim: int, degree) -> tuple[int, ...]:
    """Default sampling resolution per axis.

    The grid rule of _pow2_grid, with a floor of 1024 points for one axis,
    256 for two and 64 for three or more.
    """
    return _pow2_grid(_as_int_tuple(degree, dim, "degree"), {1: 1024, 2: 256}.get(dim, 64))


def axis_product(factors) -> np.ndarray:
    """Tensor product of per-axis factors, multiplied in axis order.

    Factor j has shape (..., L_j): its last axis runs over axis j of the
    product and any leading axes broadcast as a batch.  One-axis factors give
    an array of shape (L_1, ..., L_m); row stacks of shape (B, L_j) give
    (B, L_1, ..., L_m), one tensor product per row.
    """
    dim = len(factors)
    out = None
    for axis, fac in enumerate(factors):
        fac = np.asarray(fac)
        spread = (1,) * axis + fac.shape[-1:] + (1,) * (dim - axis - 1)
        term = fac.reshape(fac.shape[:-1] + spread)
        out = term if out is None else out * term
    return out


def evaluate_on_grid(f: TrigPoly, shape=None) -> np.ndarray:
    """Sample f(2*pi*x) on the uniform grid x in prod_j {0, 1/N_j, ..., (N_j-1)/N_j}.

    Uses the inverse FFT of the coefficient tensor scattered to wrapped bins.
    Requires N_j >= 2 n_j + 1 on every axis (raises GridTooCoarse otherwise);
    at that resolution the embedding is alias-free and the samples are exact
    up to roundoff.  Real polynomials (f.real, the exact Hermitian test made
    at construction) are sampled with the half-spectrum real inverse FFT and
    return float64 samples; any other f returns complex128 samples.
    """
    return _ifft_box(f.coeffs[None, ...], f.degree, _grid(f, shape), real=f.real)[0]


def _grid(f: TrigPoly, shape) -> tuple[int, ...]:
    """The sampling grid of f: one N_j per axis, default_grid_shape when shape is None.

    shape may be a scalar or one entry per axis (else InvalidParams); the
    grid must pass _check_grid.
    """
    if shape is None:
        shape = default_grid_shape(f.dim, f.degree)
    shape = _as_int_tuple(shape, f.dim, "shape")
    _check_grid(f.degree, shape)
    return shape


def _check_grid(degree, shape) -> None:
    """The one resolution rule: raise GridTooCoarse unless N_j >= 2 n_j + 1 on every axis.

    At that resolution the frequencies -n_j..n_j fall in distinct FFT bins,
    so sampling is alias-free and the discrete Parseval identity
    mean |f|^2 = sum |a_k|^2 holds exactly.
    """
    for N, n in zip(shape, degree):
        if N < 2 * n + 1:
            raise GridTooCoarse(
                f"grid {shape} cannot resolve degree {degree}: need N_j >= 2*n_j+1"
            )


def _ifft_box(coeff_batch: np.ndarray, degree, shape, real: bool = False) -> np.ndarray:
    """Fourier sums of a stack of coefficient tensors scattered to wrapped bins.

    The inverse FFT runs unscaled (norm="forward"), so each row is the plain
    sum sum_k a_k exp(i <k, y>) at the grid points, with no 1/prod N factor
    to undo.

    With real=True every row must be Hermitian: only the last-axis
    frequencies 0..n_m are scattered, into a (n_m + 1)-wide half spectrum,
    and a real inverse FFT returns float64 samples.
    """
    _check_grid(degree, shape)
    wrap = [np.arange(-n, n + 1) % N for n, N in zip(degree, shape)]
    size = shape
    if real:
        n = degree[-1]
        coeff_batch = coeff_batch[..., n:]
        wrap[-1] = np.arange(n + 1)
        size = shape[:-1] + (n + 1,)
    spread = np.zeros((coeff_batch.shape[0],) + size, dtype=np.complex128)
    spread[(slice(None),) + np.ix_(*wrap)] = coeff_batch
    axes = tuple(range(1, len(shape) + 1))
    if real:
        return np.fft.irfftn(spread, s=shape, axes=axes, norm="forward")
    return np.fft.ifftn(spread, axes=axes, norm="forward")


def _batch_magnitudes(coeff_batch: np.ndarray, degree, shape, real: bool) -> np.ndarray:
    """|samples| of a batch on one FFT path, shape (B, prod N)."""
    values = _ifft_box(coeff_batch, degree, shape, real=real)
    # real samples are a fresh float64 array, so their magnitudes can overwrite them
    values = np.abs(values, out=values if real else None)
    return values.reshape(coeff_batch.shape[0], int(np.prod(shape)))


def evaluate_coeff_batch(degree, coeff_batch: np.ndarray, shape) -> np.ndarray:
    """Sample a stack of coefficient tensors; returns magnitudes, shape (B, prod N).

    coeff_batch has shape (B, 2 n_1 + 1, ..., 2 n_m + 1).  Each row is
    scattered to wrapped FFT bins and inverted in a batched transform, the
    workhorse behind difference-lattice sweeps and per-block evaluations.

    The FFT path is chosen per row, so a row has the same bits alone as in
    any batch.  An exactly Hermitian row (it equals the conjugate of itself
    flipped on every coefficient axis, compared with ==, no tolerance) is a
    real polynomial: only its last-axis frequencies 0..n_m are scattered and
    a real inverse FFT (irfftn) samples it.  Every row of difference factors
    or spectral masks of a real polynomial is of this kind.  Any other row,
    a complex polynomial's or one that rounding left a ulp off symmetric,
    takes the complex inverse FFT of the full box.  A batch whose rows all
    take one path is one transform; a mixed batch is two, whose magnitudes
    are scattered back in row order.  Both paths raise GridTooCoarse unless
    N_j >= 2 n_j + 1.
    """
    degree = tuple(int(n) for n in degree)
    shape = tuple(int(N) for N in shape)
    real = _hermitian_rows(coeff_batch)
    if real.all() or not real.any():
        return _batch_magnitudes(coeff_batch, degree, shape, bool(real.all()))
    out = np.empty((len(coeff_batch), int(np.prod(shape))))
    for path in (True, False):
        out[real == path] = _batch_magnitudes(coeff_batch[real == path], degree, shape, path)
    return out
