"""Lorentz (p, tau) norms of grid samples via the non-increasing rearrangement.

The underlying measure is the unit cube with mass one: a sample tensor of M
points represents a step function with M cells of measure 1/M.  For a step
function the distribution integral has the closed form

    ||f||_{p,tau} = { sum_i (f*_i)^tau [ ((i+1)/M)^{tau/p} - (i/M)^{tau/p} ] }^{1/tau}

with f* the absolute values sorted in non-increasing order, so no quadrature
is involved.  At tau = p the bracket telescopes to 1/M and the value is the
plain discrete L_p norm, which needs no sort; the per-axis path below uses
that, the m-dimensional path does not.

Norms are sampled on one of two paths and reduced by one.

- The m-dimensional path samples coefficient tensors with
  evaluate_coeff_batch, which picks the real or complex FFT path per row: a
  single polynomial as a one-row batch, and a stack of tensor-multiplier
  images of one polynomial (multiplier_norms, and the square functions of
  spectral.tail_square_norms) in one chunk loop that bounds the samples held
  at once.
- The per-axis path serves a product of one-axis polynomials, one whose
  TrigPoly.factors is set.  Every multiplier the package applies (mixed
  difference factors, dyadic block masks, cutoff residual masks) is a
  product of one-axis factors, so each row is a tensor product of one-axis
  rows f_j * factor_j.  Each axis is sampled by a 1-D evaluate_coeff_batch
  (the FFT path still chosen per row) and powered by tau.  The product of
  the per-axis powers rounds differently from the power of the
  m-dimensional samples, so the two paths agree to a few ulps, not bit for
  bit.  The input property f.factors chooses the path; there is no option.

On both paths a row that is all zero (a difference step with some h_j = 0, a
cutoff past the spectrum) is not sampled, and its norm is +0.0, which is what
the reduction returns for a zero row.  The m-dimensional path powers the
samples' absolute values by tau (batch_norms); then rows of |x|^tau are
negated and sorted in place and multiplied by the negated step weights,
computed once per (size, p, tau) (_reduce_powered).  The per-axis path
reduces the same way at tau != p, on the outer product of the powered rows
(axis_product) formed in the same chunks.  At tau = p it forms no outer
product: the L_p mean of a tensor product is the product of the per-axis
means (Fubini), so a row costs m one-axis sums (_outer_norms).  Dense rows
at tau = p keep the sort, because the closed form would round differently
from lorentz_norm_sorted, which batch_norms matches bit for bit at every
(p, tau) (test_batch_norms_equal_sorted_reference_bitwise).  Every row sum
is numpy's pairwise sum of that row alone, so on either path a norm has the
same bits alone as in any batch, chunking or BLAS thread count.
lorentz_norm_sorted is the closed form above on pre-sorted rows, kept as the
reference the tests compare with.
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
# A per-axis chunk takes the same number of rows, as one float64 outer product.
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
    values is left as it was: |x| -> |x|^tau, then _reduce_powered.  Rows
    may be real or complex.
    """
    arr = np.abs(values).astype(np.float64, copy=False)
    np.power(arr, lp.tau, out=arr)
    return _reduce_powered(arr, lp)


def _reduce_powered(arr: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """Norms of rows of |x|^tau, shape (B, M) -> (B,); arr is overwritten.

    -|x|^tau -> ascending sort -> row sums of the products with the negated
    step weights -> 1/tau power.  Powering before sorting keeps the order
    because x -> x^tau is increasing; negation is exact, so the ascending
    sort of -|x|^tau is the non-increasing rearrangement of |x|^tau negated,
    and (-a)(-w) = a w makes every product and partial sum equal those of
    lorentz_norm_sorted on the rearranged rows.
    """
    np.negative(arr, out=arr)
    arr.sort(axis=-1)
    acc = _weighted_row_sums(arr, _negated_step_weights(arr.shape[-1], lp))
    return acc ** (1.0 / lp.tau)


def _chunk_rows(shape) -> int:
    """Rows per chunk: at most _CHUNK_BYTES of complex128 samples on `shape`."""
    return max(1, _CHUNK_BYTES // (16 * int(np.prod(shape))))


def _axis_powers(n: int, coeff_rows: np.ndarray, N: int, power: float) -> np.ndarray:
    """|samples|^power of one-axis coefficient rows on N points, shape (B, N).

    coeff_rows has shape (B, 2 n + 1).  The nonzero rows are sampled in one
    evaluate_coeff_batch call; an all-zero row is not sampled and gives zeros.
    """
    out = np.zeros((len(coeff_rows), N))
    live = coeff_rows.any(axis=1)
    if live.any():
        out[live] = evaluate_coeff_batch((n,), coeff_rows[live], (N,))
    return np.power(out, power, out=out)


def _outer_norms(tables, lp: LorentzParams) -> np.ndarray:
    """Norms of rows given one axis at a time as |samples|^tau, shape (B,).

    tables[j] has shape (B, N_j); row b is the outer product of the
    tables[j][b].  At tau = p the norm is the L_p mean, and the mean of an
    outer product is the product of the per-axis means (Fubini), so no
    outer product is formed and nothing is sorted: each mean is the pairwise
    sum of one table row alone over N_j.  Otherwise the outer products are
    formed by axis_product in chunks of _chunk_rows rows and reduced by
    _reduce_powered, which may overwrite the tables.
    """
    if lp.tau == lp.p:
        mean = np.prod([np.add.reduce(t, axis=-1) / t.shape[1] for t in tables], axis=0)
        return mean ** (1.0 / lp.tau)
    count = len(tables[0])
    chunk = _chunk_rows([t.shape[1] for t in tables])
    norms = np.empty(count)
    for start in range(0, count, chunk):
        outer = axis_product([t[start : start + chunk] for t in tables])
        norms[start : start + chunk] = _reduce_powered(outer.reshape(len(outer), -1), lp)
    return norms


def _tensor_norms(degree, axis_rows, lp: LorentzParams, shape) -> np.ndarray:
    """Lorentz norms of tensor products of one-axis coefficient rows, shape (B,).

    axis_rows[j] has shape (B, 2 n_j + 1); row b is the tensor product of
    the axis_rows[j][b].  Since |prod_j g_j| = prod_j |g_j|, each axis is
    sampled on N_j points by a 1-D evaluate_coeff_batch and powered by tau;
    only the outer products that _outer_norms forms at tau != p span the
    whole grid.
    A row that is zero on some axis is not sampled; its norm is +0.0.
    """
    live = np.flatnonzero(np.logical_and.reduce([r.any(axis=1) for r in axis_rows]))
    norms = np.zeros(len(axis_rows[0]))
    if live.size:
        tables = [
            _axis_powers(n, r[live], N, lp.tau) for r, n, N in zip(axis_rows, degree, shape)
        ]
        norms[live] = _outer_norms(tables, lp)
    return norms


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
    chunk = _chunk_rows(shape)
    for start in range(0, count, chunk):
        batch = f.coeffs * axis_product([fac[start : start + chunk] for fac in stacks])
        rows = np.flatnonzero(batch.reshape(len(batch), -1).any(axis=1))
        if rows.size:
            yield start + rows, evaluate_coeff_batch(f.degree, batch[rows], shape)


def multiplier_norms(f: TrigPoly, factors, lp: LorentzParams, shape=None) -> np.ndarray:
    """Lorentz norms of a stack of tensor-multiplier images of f, shape (B,).

    factors holds one entry per axis: a 1-D factor shared by every row, or a
    (B, 2 n_j + 1) row stack.  Row b is f.coeffs * axis_product(factors)[b].
    When f.factors is set (a product of one-axis polynomials), row b is the
    tensor product of the one-axis rows f.factors[j] * factors[j][b], which
    are sampled one axis at a time (_tensor_norms).  Otherwise the rows are
    sampled on `shape` in chunks that bound the FFT memory, and each chunk
    is reduced by batch_norms as soon as it is sampled.  The two paths agree
    to a few ulps.  An all-zero row is not sampled; its norm is +0.0.
    """
    if shape is None:
        shape = default_grid_shape(f.dim, f.degree)
    factors = [np.atleast_2d(fac) for fac in factors]
    (count,) = np.broadcast_shapes(*(fac.shape[:-1] for fac in factors))
    stacks = [np.broadcast_to(fac, (count, fac.shape[-1])) for fac in factors]
    if f.factors is not None:
        axis_rows = [fac * stack for fac, stack in zip(f.factors, stacks)]
        return _tensor_norms(f.degree, axis_rows, lp, _as_int_tuple(shape, f.dim, "shape"))
    norms = np.zeros(count)
    for rows, values in _sample_chunks(f, stacks, shape):
        norms[rows] = batch_norms(values, lp)
    return norms


def lorentz_norm(obj, lp: LorentzParams, shape=None) -> float:
    """Lorentz (p, tau) norm of a polynomial or of an array of samples.

    A TrigPoly is sampled on `shape` (default: default_grid_shape, never
    below the alias-free bound) as a one-row evaluate_coeff_batch, or one
    axis at a time when obj.factors is set, as in multiplier_norms; an array
    of real or complex samples is taken as one row.  Either way the row is
    reduced as in batch_norms, so a polynomial's norm has the same bits alone
    as in any batch.
    """
    if isinstance(obj, TrigPoly):
        if shape is None:
            shape = default_grid_shape(obj.dim, obj.degree)
        shape = _as_int_tuple(shape, obj.dim, "shape")
        if obj.factors is not None:
            rows = [fac[None] for fac in obj.factors]
            return float(_tensor_norms(obj.degree, rows, lp, shape)[0])
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
