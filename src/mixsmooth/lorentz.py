"""Lorentz (p, tau) norms of grid samples via the non-increasing rearrangement.

The underlying measure is the unit cube with mass one: a sample tensor of M
points represents a step function with M cells of measure 1/M.  For a step
function the distribution integral has the closed form

    ||f||_{p,tau} = { sum_i (f*_i)^tau [ ((i+1)/M)^{tau/p} - (i/M)^{tau/p} ] }^{1/tau}

with f* the absolute values sorted in non-increasing order, so no quadrature
is involved.  At tau = p the bracket telescopes to 1/M and the value is the
plain discrete L_p norm, which needs no sort.

Norms are sampled on one of two paths and reduced by one, except at
p = tau = 2, where they are not sampled at all.

- The m-dimensional path samples coefficient tensors with
  evaluate_coeff_batch, which picks the real or complex FFT path per row: a
  stack of tensor-multiplier images of one polynomial (multiplier_norms, and
  the square functions of spectral.tail_square_norms) in one chunk loop that
  bounds the samples held at once.
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
every reduction returns for a zero row.  Every grid must resolve the degree
(N_j >= 2 n_j + 1, core._check_grid), or GridTooCoarse is raised, whether the
rows are sampled or not.  multiplier_norms is the one place that picks the
path and the reduction; lorentz_norm and poly_norm of a polynomial are its one
row with unit factors.  The reductions, by (p, tau):

- tau != p: the m-dimensional path powers the samples' absolute values by
  tau (batch_norms); then rows of |x|^tau are negated and sorted in place
  and multiplied by the negated step weights, computed once per (size, p,
  tau) (_reduce_powered).  The per-axis path reduces the same way, on the
  outer product of the powered rows (axis_product) formed in the same
  chunks.  Where that pays (a grid of at least _DISTINCT_MIN_SIZE points,
  and at most a quarter as many distinct products as cells), a tensor row
  sorts only the products of its per-axis distinct values and repeats each
  by its multiplicity (_sorted_distinct).  That is the full sort's array,
  so the norm has the full sort's bits.
- tau = p != 2: the norm is the plain L_p mean, and nothing is negated or
  sorted.  A dense row is reduced by (sum |x|^p / M)^(1/p) (_mean_norms).
  A tensor row forms no outer product: the mean of a tensor product is the
  product of the per-axis means (Fubini), so it costs m one-axis sums
  (_outer_norms).
- p = tau = 2: on an alias-free grid the mean of |f|^2 over the samples is
  sum |a_k|^2 exactly (discrete Parseval), so no row is sampled.  A dense
  row's norm is the square root of the sum of |f.coeffs|^2 times the
  product of its factors' |.|^2, formed in chunks of the coefficient box; a
  tensor row's is the square root of the product of its per-axis
  coefficient energies (_energies).

The dense tails of spectral.tail_square_norms reduce the same way: sorted
at tau != p, an L_p mean at tau = p != 2, and at p = tau = 2 read off the
block energies.  Only an array of samples keeps the sort at tau = p: it is
reduced by batch_norms, which matches lorentz_norm_sorted bit for bit at
every (p, tau) (test_batch_norms_equal_sorted_reference_bitwise); the mean
would round differently.  Every row sum is numpy's pairwise sum of that row
alone, never a BLAS dot, so on every path a norm has the same bits alone as
in any batch, chunking or BLAS thread count.
lorentz_norm_sorted is the closed form above on pre-sorted rows, kept as the
reference the tests compare with.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import InvalidParams, LorentzParams, TrigPoly, _grid, axis_product, evaluate_coeff_batch

__all__ = [
    "lorentz_norm",
    "lorentz_norm_sorted",
    "batch_norms",
    "multiplier_norms",
    "poly_norm",
    "norm_with_refinement",
]

# Bound on rows x grid points x 16 B per evaluate_coeff_batch call.  It bounds
# one chunk's samples, not the chunk's memory: the coefficient batch, its
# batch[rows] copy and the FFT buffers come on top, and under tracemalloc a
# dense chunk held 2-4x this.  A complex-path chunk holds complex128 samples
# (16 B per point); a real-path chunk holds float64 samples (8 B per point)
# plus an (n_m + 1)-wide complex half spectrum.  The abs, power and sort steps
# share one float64 copy.  Twice the rows per chunk ran verify slower.
# A per-axis chunk takes the same number of rows, as one float64 outer product.
# A tensor row that sorts its distinct products is not chunked: it is expanded
# and reduced alone, in one float64 row of prod N plus its distinct products.
# At p = tau = 2 a chunk is rows x coefficient-box points x 16 B instead: the
# float64 products of |f.coeffs|^2 with the rows' |factors|^2 fill half of it.
# The sampled dense tails of spectral.tail_square_norms hold one chunk on top
# of their two slabs of prod_{j >= 2} smax_j rows x prod N float64.
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

    -|x|^tau -> ascending sort -> _reduce_sorted.  Powering before sorting
    keeps the order because x -> x^tau is increasing; negation is exact, so
    the ascending sort of -|x|^tau is the non-increasing rearrangement of
    |x|^tau negated.
    """
    np.negative(arr, out=arr)
    arr.sort(axis=-1)
    return _reduce_sorted(arr, lp)


def _reduce_sorted(arr: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """Norms of rows of -|x|^tau sorted ascending, shape (B, M) -> (B,); arr is overwritten.

    Row sums of the products with the negated step weights -> 1/tau power:
    (-a)(-w) = a w makes every product and partial sum equal those of
    lorentz_norm_sorted on the rearranged rows.
    """
    acc = _weighted_row_sums(arr, _negated_step_weights(arr.shape[-1], lp))
    return acc ** (1.0 / lp.tau)


def _mean_norms(values: np.ndarray, lp: LorentzParams) -> np.ndarray:
    """L_p norms of rows of magnitudes at tau = p, shape (B, M) -> (B,).

    (sum |x|^p / M)^(1/p), the pairwise sum of each row alone: at tau = p
    the step weights telescope to 1/M, so the order of the samples does not
    matter and nothing is negated or sorted.  values is overwritten.
    """
    np.power(values, lp.p, out=values)
    return (np.add.reduce(values, axis=-1) / values.shape[-1]) ** (1.0 / lp.p)


def _energies(f: TrigPoly, stacks) -> np.ndarray:
    """Squared L_2 norms of the rows f.coeffs * axis_product(stacks)[b], shape (B,).

    On a grid with N_j >= 2 n_j + 1 the mean of |f|^2 over the samples is
    the sum of |a_k|^2 (discrete Parseval), so nothing is sampled: row b's
    energy is the pairwise sum of |f.coeffs|^2 * axis_product(|stacks[j][b]|^2),
    formed in chunks of _chunk_rows rows of the coefficient box.  When
    f.factors is set the energy of a tensor product is the product of the
    per-axis energies, so each axis is one pairwise sum of
    |f.factors[j]|^2 * |stacks[j][b]|^2.  Either way each row is summed
    alone, so its bits do not depend on the batch, the chunking or the BLAS
    thread count.
    """
    squares = [np.square(np.abs(s), dtype=np.float64) for s in stacks]
    if f.factors is not None:
        energies = [
            np.add.reduce(np.square(np.abs(fac)) * sq, axis=-1)
            for fac, sq in zip(f.factors, squares)
        ]
        return np.prod(energies, axis=0)
    weights = np.square(np.abs(f.coeffs))
    count = len(squares[0])
    chunk = _chunk_rows(f.coeffs.shape)
    energy = np.empty(count)
    for start in range(0, count, chunk):
        terms = weights * axis_product([sq[start : start + chunk] for sq in squares])
        energy[start : start + chunk] = np.add.reduce(terms.reshape(len(terms), -1), axis=-1)
    return energy


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
    sum of one table row alone over N_j.  Otherwise the per-axis distinct
    values and counts are found once per call (_distinct_axes).  A row with
    few distinct products sorts only those, expands them by multiplicity
    (_sorted_distinct) into one row of prod N_j cells and is reduced alone
    by _reduce_sorted.  The other rows' outer products are formed by
    axis_product in chunks of _chunk_rows rows and reduced by
    _reduce_powered.  Both paths give a row the same sorted array, so the
    same bits.  The tables are left as they were.
    """
    if lp.tau == lp.p:
        mean = np.prod([np.add.reduce(t, axis=-1) / t.shape[1] for t in tables], axis=0)
        return mean ** (1.0 / lp.tau)
    shape = [t.shape[1] for t in tables]
    size = math.prod(shape)
    full, few = _distinct_axes(tables, size)
    norms = np.empty(len(tables[0]))
    for b, axes in few.items():
        norms[b] = _reduce_sorted(_sorted_distinct(axes)[None], lp)[0]
    chunk = _chunk_rows(shape)
    for start in range(0, len(full), chunk):
        rows = full[start : start + chunk]
        outer = axis_product([t[rows] for t in tables])
        norms[rows] = _reduce_powered(outer.reshape(len(rows), -1), lp)
    return norms


# Smallest outer product whose rows may sort their distinct products instead.
# Below it, or where the distinct products exceed a quarter of the cells, the
# per-row bookkeeping costs more than the full sort saves.
_DISTINCT_MIN_SIZE = 2**14


def _distinct_axes(tables, size: int):
    """Split the rows of _outer_norms: (full, few).

    few maps each row b that sorts its distinct products to its
    [(values, counts) per axis]: the distinct entries of tables[j][b] in
    ascending order and their multiplicities.  A row is in few only if
    size >= _DISTINCT_MIN_SIZE and its K = prod_j len(values_j) distinct
    products are at most size / 4; full holds the other rows' indices, in
    order, which take the full sort.
    """
    count = len(tables[0])
    if size < _DISTINCT_MIN_SIZE:
        return np.arange(count), {}
    runs = []
    for t in tables:
        s = np.sort(t, axis=1)
        first = np.ones(s.shape, dtype=bool)
        np.not_equal(s[:, 1:], s[:, :-1], out=first[:, 1:])
        runs.append((s, first))
    sparse = 4 * np.prod([first.sum(axis=1) for _, first in runs], axis=0) <= size
    few = {}
    for b in np.flatnonzero(sparse):
        axes = []
        for s, first in runs:
            starts = np.flatnonzero(first[b])
            axes.append((s[b, starts], np.diff(starts, append=s.shape[1])))
        few[b] = axes
    return np.flatnonzero(~sparse), few


def _sorted_distinct(axes) -> np.ndarray:
    """Ascending sort of a tensor row's negated outer product, from _distinct_axes.

    The products of the distinct values are formed by axis_product, so each
    has the bits of every cell of the full outer product with those values;
    they are negated, sorted and repeated by the products of their counts.
    A multiset has one sorted array, and every entry is >= +0.0 and not NaN,
    so every zero is -0.0 after negation: this is the full sort, bit for bit.
    """
    products = axis_product([values for values, _ in axes]).ravel()
    np.negative(products, out=products)
    order = np.argsort(products)
    counts = axis_product([c for _, c in axes]).ravel()
    return np.repeat(products[order], counts[order])


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
    (B, 2 n_j + 1) row stack.  Row b is f.coeffs * axis_product(factors)[b],
    taken as samples on `shape` (core._grid).  The path and the reduction
    are picked here, by the rules of the module docstring: at p = tau = 2
    the norms are read off the coefficients (_energies); otherwise a
    product of one-axis polynomials is sampled one axis at a time
    (_tensor_norms), and any other f on `shape` in chunks, each reduced as
    soon as it is sampled (_mean_norms at tau = p, else batch_norms).
    """
    shape = _grid(f, shape)
    factors = [np.atleast_2d(fac) for fac in factors]
    (count,) = np.broadcast_shapes(*(fac.shape[:-1] for fac in factors))
    stacks = [np.broadcast_to(fac, (count, fac.shape[-1])) for fac in factors]
    if lp.p == lp.tau == 2.0:
        return np.sqrt(_energies(f, stacks))
    if f.factors is not None:
        axis_rows = [fac * stack for fac, stack in zip(f.factors, stacks)]
        return _tensor_norms(f.degree, axis_rows, lp, shape)
    reduce = _mean_norms if lp.tau == lp.p else batch_norms
    norms = np.zeros(count)
    for rows, values in _sample_chunks(f, stacks, shape):
        norms[rows] = reduce(values, lp)
    return norms


def lorentz_norm(obj, lp: LorentzParams, shape=None) -> float:
    """Lorentz (p, tau) norm of a polynomial or of an array of samples.

    A TrigPoly is the one row of multiplier_norms with unit factors, on
    `shape` (default: default_grid_shape, never below the alias-free bound),
    so it takes that row's path, reduction and bits.  An array of real or
    complex samples is taken as one row and reduced by batch_norms, sort
    included, at every (p, tau).
    """
    if isinstance(obj, TrigPoly):
        ones = [np.ones(2 * n + 1) for n in obj.degree]
        return float(multiplier_norms(obj, ones, lp, shape)[0])
    if not isinstance(obj, np.ndarray):
        raise InvalidParams(f"cannot take a Lorentz norm of {type(obj).__name__}")
    if obj.size == 0:
        raise InvalidParams("cannot take a Lorentz norm of an empty sample set")
    return float(batch_norms(obj.reshape(1, -1), lp)[0])


def poly_norm(f: TrigPoly, lp: LorentzParams, shape=None) -> float:
    """Shorthand for lorentz_norm on a TrigPoly."""
    return lorentz_norm(f, lp, shape)


def norm_with_refinement(f: TrigPoly, lp: LorentzParams, shape=None) -> tuple[float, float]:
    """Norm at the working grid plus the relative change under grid doubling.

    Doubling every axis and seeing less than 0.5% change is the working
    convergence criterion for reported values; the caller decides what to do
    with a larger delta.  At p = tau = 2 both norms are read off the same
    coefficients (discrete Parseval holds on every alias-free grid), so the
    delta is exactly 0.0.
    """
    shape = _grid(f, shape)
    coarse = lorentz_norm(f, lp, shape)
    fine = lorentz_norm(f, lp, tuple(2 * s for s in shape))
    if fine == 0.0:
        return fine, 0.0
    return fine, abs(fine - coarse) / fine
