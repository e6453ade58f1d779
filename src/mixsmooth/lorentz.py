"""Lorentz (p, tau) norms of grid samples via the non-increasing rearrangement.

The underlying measure is the unit cube with mass one: a sample tensor of M
points represents a step function with M cells of measure 1/M.  For a step
function the distribution integral has the closed form

    ||f||_{p,tau} = { sum_i (f*_i)^tau [ ((i+1)/M)^{tau/p} - (i/M)^{tau/p} ] }^{1/tau}

with f* the absolute values sorted in non-increasing order, so no quadrature
is involved.  At tau = p the bracket telescopes to 1/M and the value is the
plain discrete L_p norm.

Batches of sample rows (batch_norms, multiplier_norms) are reduced in one
float64 buffer per chunk: the samples' absolute values are powered, negated
and sorted in place.  Every row sum is numpy's pairwise sum of that row
alone, so a norm has the same bits in any batch, chunking or BLAS thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidParams,
    LorentzParams,
    TrigPoly,
    axis_product,
    default_grid_shape,
    evaluate_coeff_batch,
    evaluate_on_grid,
)

__all__ = [
    "GridSample",
    "Rearrangement",
    "rearrange",
    "lorentz_norm",
    "lorentz_norm_sorted",
    "batch_norms",
    "multiplier_norms",
    "poly_norm",
    "norm_with_refinement",
]

# Bound on rows x grid points x 16 B per evaluate_coeff_batch call, which
# bounds peak memory.  A complex-path chunk holds complex128 samples (16 B per
# point); a real-path chunk holds float64 samples (8 B per point) plus an
# (n_m + 1)-wide complex half spectrum.  The abs, power and sort steps share
# one float64 copy.  Twice the rows per chunk ran verify slower, not faster.
_CHUNK_BYTES = 4_000_000


@dataclass(frozen=True)
class GridSample:
    """Samples of a function on the uniform unit-cube grid.

    values holds signed real samples (real polynomials) or magnitudes
    (anything else); the Lorentz norm only ever sees absolute values, so
    callers never pre-abs.
    """

    values: np.ndarray

    @classmethod
    def from_poly(cls, f: TrigPoly, shape=None) -> "GridSample":
        values = evaluate_on_grid(f, shape)
        if np.iscomplexobj(values):
            values = np.abs(values)
        return cls(values=values)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def cell_measure(self) -> float:
        return 1.0 / self.size


@dataclass(frozen=True)
class Rearrangement:
    """Non-increasing rearrangement of |samples| with its cell measure."""

    sorted_values: np.ndarray
    cell_measure: float


def rearrange(sample) -> Rearrangement:
    """Sort |values| in non-increasing order.

    Accepts a GridSample or a bare array.  The result is invariant under any
    permutation of the input, bit for bit: equal multisets sort identically.
    """
    values = sample.values if isinstance(sample, GridSample) else np.asarray(sample)
    flat = np.abs(values).ravel()
    if flat.size == 0:
        raise InvalidParams("cannot rearrange an empty sample set")
    out = np.sort(flat)[::-1].copy()
    return Rearrangement(sorted_values=out, cell_measure=1.0 / flat.size)


def _step_weights(size: int, lp: LorentzParams) -> np.ndarray:
    t = np.arange(size + 1, dtype=np.float64) / size
    return np.diff(t ** (lp.tau / lp.p))


def _weighted_row_sums(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row sums of arr * w, computed in arr (which is overwritten).

    np.add.reduce sums each contiguous row with numpy's pairwise summation,
    so a row's sum has the same bits in any batch and at any BLAS thread
    count; a BLAS dot product splits long rows across threads.
    """
    np.multiply(arr, w, out=arr)
    return np.add.reduce(arr, axis=-1)


def lorentz_norm_sorted(sorted_values: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """Norms from already-sorted magnitudes; batch-aware over leading axes.

    sorted_values may be (M,) or (..., M) with each row non-increasing.
    A row's norm does not depend on the batch it sits in or on the BLAS
    thread count, bit for bit: the power runs on contiguous rows and each
    row is summed on its own by _weighted_row_sums.
    """
    arr = np.ascontiguousarray(sorted_values, dtype=np.float64) ** lp.tau
    acc = _weighted_row_sums(arr, _step_weights(arr.shape[-1], lp))
    return acc ** (1.0 / lp.tau)


def batch_norms(values: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """Lorentz norms of a stack of unsorted sample rows, shape (B, M) -> (B,).

    The whole reduction runs in the one float64 copy that np.abs makes, so
    values is left as it was: |x| -> |x|^tau -> -|x|^tau -> ascending sort ->
    row sums of the products with the negated step weights.  Powering before
    sorting keeps the order because x -> x^tau is increasing; negation is
    exact, so the ascending sort of -|x|^tau is the non-increasing
    rearrangement of |x|^tau negated, and (-a)(-w) = a w makes every product
    and partial sum equal those of lorentz_norm_sorted on the rearranged rows.
    """
    arr = np.abs(np.asarray(values, dtype=np.float64))
    np.power(arr, lp.tau, out=arr)
    np.negative(arr, out=arr)
    arr.sort(axis=-1)
    acc = _weighted_row_sums(arr, np.negative(_step_weights(arr.shape[-1], lp)))
    return acc ** (1.0 / lp.tau)


def multiplier_norms(f: TrigPoly, factors, lp: LorentzParams, shape=None) -> np.ndarray:
    """Lorentz norms of a stack of tensor-multiplier images of f, shape (B,).

    factors holds one entry per axis: a 1-D factor shared by every row, or a
    (B, 2 n_j + 1) row stack.  Row b is f.coeffs * axis_product(factors)[b];
    the rows are evaluated on `shape` in chunks that bound the FFT memory.
    """
    if shape is None:
        shape = default_grid_shape(f.dim, f.degree)
    factors = [np.atleast_2d(fac) for fac in factors]
    (rows,) = np.broadcast_shapes(*(fac.shape[:-1] for fac in factors))
    factors = [np.broadcast_to(fac, (rows, fac.shape[-1])) for fac in factors]
    chunk = max(1, _CHUNK_BYTES // (16 * int(np.prod(shape))))
    out = np.empty(rows, dtype=np.float64)
    for start in range(0, rows, chunk):
        stop = min(rows, start + chunk)
        batch = f.coeffs * axis_product([fac[start:stop] for fac in factors])
        values = evaluate_coeff_batch(f.degree, batch, shape)
        out[start:stop] = batch_norms(values, lp)
    return out


def lorentz_norm(obj, lp: LorentzParams, shape=None) -> float:
    """Lorentz (p, tau) norm of a polynomial, sample set, or rearrangement.

    TrigPoly inputs are sampled on `shape` (default: the per-dim resolution
    from default_grid_shape, never below the alias-free bound).
    """
    if isinstance(obj, TrigPoly):
        obj = GridSample.from_poly(obj, shape)
    if isinstance(obj, GridSample) or isinstance(obj, np.ndarray):
        obj = rearrange(obj)
    if not isinstance(obj, Rearrangement):
        raise InvalidParams(f"cannot take a Lorentz norm of {type(obj).__name__}")
    return float(lorentz_norm_sorted(obj.sorted_values, lp))


def poly_norm(f: TrigPoly, lp: LorentzParams, shape=None) -> float:
    """Shorthand for lorentz_norm on a TrigPoly."""
    return lorentz_norm(f, lp, shape)


def norm_with_refinement(f: TrigPoly, lp: LorentzParams, shape=None) -> tuple[float, float]:
    """Norm at the working grid plus the relative change under grid doubling.

    Doubling every axis and seeing less than 0.5% change is the working
    convergence criterion for reported values; the caller decides what to do
    with a larger delta.
    """
    if shape is None:
        shape = default_grid_shape(f.dim, f.degree)
    elif np.isscalar(shape):
        shape = (int(shape),) * f.dim
    else:
        shape = tuple(int(s) for s in shape)
    coarse = lorentz_norm(f, lp, shape)
    fine = lorentz_norm(f, lp, tuple(2 * s for s in shape))
    if fine == 0.0:
        return fine, 0.0
    return fine, abs(fine - coarse) / fine
