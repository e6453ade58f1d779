"""Dyadic spectral blocks, rectangular partial sums, and the angle operator.

The axis-j frequency k falls in dyadic block s >= 1 when 2^(s-1) <= |k| < 2^s;
index 0 is reserved for k = 0 and its block is empty by convention, so a
zero-mean ring member decomposes exactly into blocks with every s_j >= 1.

The angle operator with cutoff vector l keeps every coefficient whose
frequency is small (|k_j| <= l_j) on at least one axis; its residual spectrum
is the open corner {|k_j| > l_j for all j}.  In two variables this reduces to
the inclusion-exclusion identity U = S_(l1,inf) + S_(inf,l2) - S_(l1,l2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidParams, LorentzParams, TrigPoly, _grid, axis_product
from .lorentz import (
    _axis_powers,
    _energies,
    _mean_norms,
    _outer_norms,
    _reduce_powered,
    _sample_chunks,
    multiplier_norms,
)

__all__ = [
    "BlockIndex",
    "BlockDecomposition",
    "block_of_frequency",
    "delta_block",
    "decompose",
    "max_block_index",
    "partial_sum",
    "angle_operator",
    "angle_residual",
    "angle_residual_norms",
    "block_norms",
    "lp_tail_norm",
    "tail_square_norms",
]


@dataclass(frozen=True)
class BlockIndex:
    """Per-axis dyadic block indices, each s_j >= 0."""

    s: tuple[int, ...]

    def __init__(self, s):
        if np.isscalar(s):
            s = (s,)
        s = tuple(int(v) for v in s)
        if any(v < 0 for v in s):
            raise InvalidParams(f"block indices must be >= 0, got {s}")
        object.__setattr__(self, "s", s)

    def __iter__(self):
        return iter(self.s)

    def __len__(self):
        return len(self.s)


def _index_tuple(s, dim: int) -> tuple[int, ...]:
    if isinstance(s, BlockIndex):
        s = s.s
    elif np.isscalar(s):
        s = (int(s),) * dim
    s = tuple(int(v) for v in s)
    if len(s) != dim:
        raise InvalidParams(f"block index {s} does not match dim {dim}")
    if any(v < 0 for v in s):
        raise InvalidParams(f"block indices must be >= 0, got {s}")
    return s


def block_of_frequency(k: int) -> int:
    """Dyadic block index of a single frequency: 0 for k = 0, else floor(log2|k|)+1."""
    k = abs(int(k))
    if k == 0:
        return 0
    return k.bit_length()


def _axis_block_indices(freqs: np.ndarray) -> np.ndarray:
    """Vectorized block_of_frequency over an integer frequency axis."""
    a = np.abs(freqs).astype(np.int64)
    out = np.zeros(a.shape, dtype=np.int64)
    pos = a > 0
    # frexp exponent of an exact small integer is floor(log2) + 1
    out[pos] = np.frexp(a[pos].astype(np.float64))[1]
    return out


def _axis_block_mask(freqs: np.ndarray, s: int) -> np.ndarray:
    if s == 0:
        return np.zeros(freqs.shape, dtype=bool)
    lo, hi = 2 ** (s - 1), 2**s
    a = np.abs(freqs)
    return (a >= lo) & (a < hi)


def delta_block(f: TrigPoly, s) -> TrigPoly:
    """Spectral restriction of f to the dyadic block rho(s).

    Any s_j = 0 yields the zero polynomial (the index-0 block is empty).
    Restriction copies coefficients, so summing the blocks of a ring member
    reproduces it exactly, coefficient by coefficient.
    """
    s = _index_tuple(s, f.dim)
    masks = [_axis_block_mask(f.freqs(axis), sj) for axis, sj in enumerate(s)]
    return f.apply_multiplier(axis_product(masks), real=f.real if f.real else None)


def max_block_index(f: TrigPoly) -> tuple[int, ...]:
    """Per-axis largest block index that can carry a coefficient of f."""
    return tuple(block_of_frequency(n) for n in f.tight_degree())


def _nonzero_rows(f: TrigPoly, tables) -> tuple[np.ndarray, list[np.ndarray]]:
    """Mask combinations that select a nonzero coefficient of f.

    tables[j] holds candidate axis-j masks as rows.  Returns the (B, dim)
    row positions of every combination whose tensor-product mask meets the
    spectrum, in lexicographic order, and the per-axis (B, 2 n_j + 1) mask
    stacks of those combinations.
    """
    pos = [
        p for p in np.ndindex(*[len(t) for t in tables])
        if np.any(f.coeffs[np.ix_(*[t[i] for t, i in zip(tables, p)])])
    ]
    pos = np.array(pos, dtype=np.intp).reshape(-1, f.dim)
    return pos, [t[pos[:, axis]] for axis, t in enumerate(tables)]


def _block_tables(f: TrigPoly) -> list[np.ndarray]:
    """Per-axis block masks for s_j = 1..smax_j (row s_j - 1)."""
    return [
        _axis_block_indices(f.freqs(axis)) == np.arange(1, m + 1)[:, None]
        for axis, m in enumerate(max_block_index(f))
    ]


@dataclass(frozen=True)
class BlockDecomposition:
    """All nonzero dyadic blocks of a polynomial, keyed by their index tuple."""

    base_degree: tuple[int, ...]
    blocks: dict[tuple[int, ...], TrigPoly] = field(default_factory=dict)

    def reconstruct(self) -> TrigPoly:
        total = None
        for key in sorted(self.blocks):
            total = self.blocks[key] if total is None else total + self.blocks[key]
        if total is None:
            raise InvalidParams("decomposition holds no blocks")
        return total


def decompose(f: TrigPoly) -> BlockDecomposition:
    """Split f into its nonzero dyadic blocks (ring members decompose exactly)."""
    pos, _ = _nonzero_rows(f, _block_tables(f))
    blocks = {tuple(int(v) for v in p + 1): delta_block(f, p + 1) for p in pos}
    return BlockDecomposition(base_degree=f.degree, blocks=blocks)


def _cutoff_tuple(l, dim: int) -> tuple[float, ...]:
    if np.isscalar(l):
        l = (l,) * dim
    out = []
    for v in l:
        v = float(v)
        if math.isnan(v) or (not math.isinf(v) and (v < 0 or v != int(v))):
            raise InvalidParams(f"cutoffs must be nonnegative integers or inf, got {l}")
        out.append(v)
    if len(out) != dim:
        raise InvalidParams(f"cutoff {l} does not match dim {dim}")
    return tuple(out)


def partial_sum(f: TrigPoly, l) -> TrigPoly:
    """Rectangular partial sum S_l: keep |k_j| <= l_j; l_j = inf keeps the axis whole."""
    l = _cutoff_tuple(l, f.dim)
    masks = [np.abs(f.freqs(axis)) <= lj for axis, lj in enumerate(l)]
    return f.apply_multiplier(axis_product(masks))


def _residual_masks(f: TrigPoly, cutoffs) -> list[np.ndarray]:
    """Per-axis masks |k_j| > l_j; cutoffs of shape (..., dim) give (..., 2 n_j + 1)."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    return [np.abs(f.freqs(axis)) > cutoffs[..., axis, None] for axis in range(f.dim)]


def angle_operator(f: TrigPoly, l) -> TrigPoly:
    """Angle-approximation operator U_l: drop only the corner |k_j| > l_j for all j.

    Equivalently the union over nonempty axis subsets e of the groups that are
    small on e and large elsewhere; the complement-of-corner form is exact and
    a subset-enumeration oracle in the tests pins the equivalence.
    """
    l = _cutoff_tuple(l, f.dim)
    return f.apply_multiplier(~axis_product(_residual_masks(f, l)))


def angle_residual(f: TrigPoly, l) -> TrigPoly:
    """f - U_l(f) as an exact spectral restriction (no subtraction roundoff)."""
    l = _cutoff_tuple(l, f.dim)
    return f.apply_multiplier(axis_product(_residual_masks(f, l)))


def angle_residual_norms(f: TrigPoly, cutoffs, lp: LorentzParams, shape=None) -> np.ndarray:
    """Lorentz norms of f - U_l(f) for a list of cutoff vectors, batched."""
    cutoffs = np.array([_cutoff_tuple(l, f.dim) for l in cutoffs]).reshape(-1, f.dim)
    return multiplier_norms(f, _residual_masks(f, cutoffs), lp, shape)


def block_norms(f: TrigPoly, lp: LorentzParams, shape=None) -> dict[tuple[int, ...], float]:
    """Lorentz norms of every nonzero dyadic block, batched, keyed by index tuple."""
    pos, masks = _nonzero_rows(f, _block_tables(f))
    norms = multiplier_norms(f, masks, lp, shape)
    return {tuple(int(v) for v in s): float(n) for s, n in zip(pos + 1, norms)}


def tail_square_norms(f: TrigPoly, lp: LorentzParams, shape=None) -> np.ndarray:
    """Norms of the dyadic square-function tails for every start index at once.

    Entry [nu_1 - 1, ..., nu_m - 1] is

        || ( sum_{s_j >= nu_j for all j} |delta_s(f)(x)|^2 )^(1/2) ||_{p,tau}

    for nu_j in 1..smax_j.  A dense f (no factors) is reduced by (p, tau):

    - p = tau = 2: the blocks are disjoint in frequency, so by discrete
      Parseval the tail at nu is the square root of the sum of the energies
      of the blocks s >= nu.  Each nonzero block's coefficient energy
      (lorentz._energies) is placed on the smax lattice and summed as a
      reversed cumsum on every axis; nothing is sampled.
    - Otherwise every nonzero block is sampled once, in the chunks of
      lorentz._sample_chunks, in reverse lexicographic order, so the blocks
      arrive one first-axis slab at a time from s_1 = smax_1 down.  Their
      squares are added to one running suffix sum over that axis; once a
      slab is complete, a copy of the sum takes its suffix sums over the
      other axes and is square-rooted and reduced: at tau = p by the plain
      L_p mean, with no sort (lorentz._mean_norms), and at tau != p sorted,
      as batch_norms would.  Every element gets the additions of a reversed
      cumsum on every axis, in the same order, and each row is reduced
      alone, so the tails have the bits of the whole lattice of squares
      reduced the same way, while two slabs (prod_{j >= 2} smax_j rows of
      prod N float64) and one chunk are held: bounded, but not small at
      m = 3, where a dense deg-32 input holds about 1.2 GB.

    When f.factors is set (f = f_1 x ... x f_m), the blocks factor too, and

        sum_{s >= nu} |delta_s(f)|^2 = prod_j T_j(nu_j),
        T_j(nu_j) = sum_{s_j >= nu_j} |delta_{s_j}(f_j)|^2,

    so m one-axis suffix tables replace the lattice of squares (_tensor_tails)
    and the values agree with the dense paths to a few ulps.  shape may be a
    scalar or one N_j per axis; a grid with N_j < 2 n_j + 1 raises
    GridTooCoarse on both paths.
    """
    shape = _grid(f, shape)
    smax = max_block_index(f)
    if any(v == 0 for v in smax):
        raise InvalidParams("tail norms need a nonzero spectrum on every axis")
    if f.factors is not None:
        return _tensor_tails(f, smax, lp, shape)
    pos, masks = _nonzero_rows(f, _block_tables(f))
    if lp.p == lp.tau == 2.0:
        energy = np.zeros(smax)
        energy[tuple(pos.T)] = _energies(f, masks)
        _suffix_sums(energy, range(f.dim))
        return np.sqrt(energy)
    width = math.prod(smax[1:])
    # reverse lexicographic order, so slab s_1 = smax_1 arrives first; empty
    # blocks sample to exact zeros, so only nonzero ones are evaluated
    slab_of, offset = np.divmod(np.ravel_multi_index(pos[::-1].T, smax), width)
    squares = (
        row
        for _, values in _sample_chunks(f, [m[::-1] for m in masks], shape)
        for row in np.square(values, out=values)
    )
    running = np.zeros((width, math.prod(shape)))
    tail = np.empty_like(running)
    norms = np.empty((smax[0], width))
    k = 0
    for i in range(smax[0] - 1, -1, -1):
        while k < len(slab_of) and slab_of[k] == i:
            running[offset[k]] += next(squares)
            k += 1
        np.copyto(tail, running)
        _suffix_sums(tail.reshape(smax[1:] + (-1,)), range(f.dim - 1))
        np.sqrt(tail, out=tail)
        if lp.tau == lp.p:
            norms[i] = _mean_norms(tail, lp)
        else:
            # batch_norms' abs is the identity on square roots, so it is skipped
            norms[i] = _reduce_powered(np.power(tail, lp.tau, out=tail), lp)
    return norms.reshape(smax)


def _suffix_sums(arr: np.ndarray, axes) -> None:
    """Suffix sums of arr in place over each of `axes`, in turn.

    These are the additions of a reversed cumsum on each axis, in the same
    order, with the operands swapped (IEEE addition commutes), so arr ends
    with the bits of np.flip(np.cumsum(np.flip(arr, axis), axis), axis).
    """
    for axis in axes:
        view = np.moveaxis(arr, axis, 0)
        for j in range(view.shape[0] - 2, -1, -1):
            view[j] += view[j + 1]


def _tensor_tails(f: TrigPoly, smax, lp: LorentzParams, shape) -> np.ndarray:
    """tail_square_norms of a product of one-axis polynomials, from per-axis tables.

    Axis j holds T_j(nu_j)^(tau/2) for nu_j = 1..smax_j on its N_j points, so
    the outer product of the rows at nu is the square-function tail at nu
    powered by tau, which _outer_norms reduces.
    """
    tables = []
    for fac, masks, n, N in zip(f.factors, _block_tables(f), f.degree, shape):
        sums = _axis_powers(n, fac * masks, N, 2.0)
        _suffix_sums(sums, (0,))
        tables.append(np.power(sums, lp.tau / 2.0, out=sums))
    pos = np.indices(smax).reshape(f.dim, -1)
    return _outer_norms([t[p] for t, p in zip(tables, pos)], lp).reshape(smax)


def lp_tail_norm(f: TrigPoly, nu, lp: LorentzParams, shape=None) -> float:
    """Single square-function tail norm with start index nu (each nu_j >= 1)."""
    nu = _index_tuple(nu, f.dim)
    if any(v < 1 for v in nu):
        raise InvalidParams(f"tail start indices must be >= 1, got {nu}")
    if any(v > m for v, m in zip(nu, max_block_index(f))):
        # every block of f has s_j <= smax_j, so none reaches this start index
        return 0.0
    sig = tail_square_norms(f, lp, shape)
    return float(sig[tuple(v - 1 for v in nu)])
