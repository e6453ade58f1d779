"""Lorentz (p, tau) norms of grid samples via the non-increasing rearrangement.

The underlying measure is the unit cube with mass one: a sample tensor of M
points represents a step function with M cells of measure 1/M.  For a step
function the distribution integral has the closed form

    ||f||_{p,tau} = { sum_i (f*_i)^tau [ ((i+1)/M)^{tau/p} - (i/M)^{tau/p} ] }^{1/tau}

with f* the absolute values sorted in non-increasing order, so no quadrature
is involved.  At tau = p the bracket telescopes to 1/M and the value is the
plain discrete L_p norm.

Every norm goes through one pipeline.  Coefficient tensors are sampled by
evaluate_coeff_batch, which picks the real or complex FFT path per row: a
single polynomial as a one-row batch, a stack of tensor-multiplier images of
one polynomial (multiplier_norms, and the square functions of
spectral.tail_square_norms) by one chunk loop that bounds the samples held
at once.  That loop drops the all-zero rows of each chunk (difference steps
with some h_j = 0, cutoffs past the spectrum) before sampling them;
multiplier_norms gives them the norm +0.0, which is what batch_norms returns
for a zero row.  batch_norms reduces the rows in one float64 buffer per
chunk: the samples' absolute values are powered, negated and sorted in
place, and multiplied by the negated step weights, computed once per
(size, p, tau).  Every row sum is numpy's pairwise sum of that row alone, so
a norm has the same bits alone as in any batch, chunking or BLAS thread
count.  lorentz_norm_sorted is the closed form above on pre-sorted rows,
kept as the reference the tests compare with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    InvalidParams,
    LorentzParams,
    TrigPoly,
    _as_int_tuple,
    axis_product,
    default_grid_shape,
    evaluate_coeff_batch,
)

__all__ = [
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


def _step_weights(size: int, lp: LorentzParams) -> np.ndarray:
    t = np.arange(size + 1, dtype=np.float64) / size
    return np.diff(t ** (lp.tau / lp.p))


@lru_cache(maxsize=32)
def _negated_step_weights(size: int, lp: LorentzParams) -> np.ndarray:
    """-_step_weights(size, lp), computed once per key and read-only."""
    w = np.negative(_step_weights(size, lp))
    w.flags.writeable = False
    return w


def _weighted_row_sums(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row sums of arr * w, computed in arr (which is overwritten).

    np.add.reduce sums each contiguous row with numpy's pairwise summation,
    so a row's sum has the same bits in any batch and at any BLAS thread
    count; a BLAS dot product splits long rows across threads.
    """
    np.multiply(arr, w, out=arr)
    return np.add.reduce(arr, axis=-1)


def lorentz_norm_sorted(sorted_values: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """Reference formula: norms from already-sorted magnitudes, batch-aware.

    sorted_values may be (M,) or (..., M) with each row non-increasing.  The
    package reduces through batch_norms; this is the closed form the tests
    compare it with.  It equals batch_norms bit for bit on (B, M) input; on
    (M,) input the final 1/tau power is taken on a numpy scalar, which can
    differ in the last bit.
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
    Rows may be real or complex.
    """
    arr = np.abs(values).astype(np.float64, copy=False)
    np.power(arr, lp.tau, out=arr)
    np.negative(arr, out=arr)
    arr.sort(axis=-1)
    acc = _weighted_row_sums(arr, _negated_step_weights(arr.shape[-1], lp))
    return acc ** (1.0 / lp.tau)


def _sample_chunks(f: TrigPoly, stacks, shape):
    """Samples of a stack of tensor-multiplier images of f, one chunk at a time.

    stacks holds one (B, 2 n_j + 1) factor stack per axis; row b is
    f.coeffs * axis_product(stacks)[b].  Chunks of at most _CHUNK_BYTES of
    samples are formed in row order; each drops its all-zero rows, whose
    samples are exact zeros, and is skipped when none is left.  Yields
    (rows, values): the indices of the surviving rows and their magnitudes
    on `shape`, shape (len(rows), prod N), from one evaluate_coeff_batch
    call.
    """
    count = len(stacks[0])
    chunk = max(1, _CHUNK_BYTES // (16 * int(np.prod(shape))))
    for start in range(0, count, chunk):
        batch = f.coeffs * axis_product([fac[start : start + chunk] for fac in stacks])
        rows = np.flatnonzero(batch.reshape(len(batch), -1).any(axis=1))
        if rows.size:
            yield start + rows, evaluate_coeff_batch(f.degree, batch[rows], shape)


def multiplier_norms(f: TrigPoly, factors, lp: LorentzParams, shape=None) -> np.ndarray:
    """Lorentz norms of a stack of tensor-multiplier images of f, shape (B,).

    factors holds one entry per axis: a 1-D factor shared by every row, or a
    (B, 2 n_j + 1) row stack.  Row b is f.coeffs * axis_product(factors)[b];
    the rows are sampled on `shape` in chunks that bound the FFT memory, and
    each chunk is reduced by batch_norms as soon as it is sampled.  An
    all-zero row is not sampled; its norm is +0.0.
    """
    if shape is None:
        shape = default_grid_shape(f.dim, f.degree)
    factors = [np.atleast_2d(fac) for fac in factors]
    (count,) = np.broadcast_shapes(*(fac.shape[:-1] for fac in factors))
    stacks = [np.broadcast_to(fac, (count, fac.shape[-1])) for fac in factors]
    norms = np.zeros(count)
    for rows, values in _sample_chunks(f, stacks, shape):
        norms[rows] = batch_norms(values, lp)
    return norms


def lorentz_norm(obj, lp: LorentzParams, shape=None) -> float:
    """Lorentz (p, tau) norm of a polynomial or of an array of samples.

    A TrigPoly is sampled on `shape` (default: default_grid_shape, never
    below the alias-free bound) as a one-row evaluate_coeff_batch; an array
    of real or complex samples is taken as one row.  Either way batch_norms
    reduces the row, so a polynomial's norm has the same bits alone as in
    any batch.
    """
    if isinstance(obj, TrigPoly):
        if shape is None:
            shape = default_grid_shape(obj.dim, obj.degree)
        shape = _as_int_tuple(shape, obj.dim, "shape")
        values = evaluate_coeff_batch(obj.degree, obj.coeffs[None], shape)
    elif isinstance(obj, np.ndarray):
        values = obj.reshape(1, -1)
    else:
        raise InvalidParams(f"cannot take a Lorentz norm of {type(obj).__name__}")
    if values.size == 0:
        raise InvalidParams("cannot take a Lorentz norm of an empty sample set")
    return float(batch_norms(values, lp)[0])


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
    shape = _as_int_tuple(shape, f.dim, "shape")
    coarse = lorentz_norm(f, lp, shape)
    fine = lorentz_norm(f, lp, tuple(2 * s for s in shape))
    if fine == 0.0:
        return fine, 0.0
    return fine, abs(fine - coarse) / fine
