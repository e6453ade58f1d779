"""Dyadic block structure, partial sums, and corner complements."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsmooth import lorentz, spectral
from mixsmooth.core import (
    GridTooCoarse,
    InvalidParams,
    LorentzParams,
    TrigPoly,
    cosine,
    evaluate_on_grid,
    tensor,
)
from mixsmooth.lorentz import batch_norms, poly_norm
from mixsmooth.spectral import (
    angle_operator,
    angle_residual,
    angle_residual_norms,
    block_norms,
    block_of_frequency,
    decompose,
    delta_block,
    lp_tail_norm,
    max_block_index,
    partial_sum,
    tail_square_norms,
)
from mixsmooth.verify import generate_corpus

from test_core import random_poly
from test_lorentz import (
    assert_within_ulps,
    count_outer_products,
    factorless,
    record_batches,
    record_samples,
)

L2 = LorentzParams(2.0, 2.0)
P3 = LorentzParams(3.0, 3.0)


def ring_poly(rng, dim, degree):
    """Random member of the class: no mass on any k_j = 0 hyperplane."""
    f = random_poly(rng, dim, degree)
    coeffs = f.coeffs.copy()
    for axis, n in enumerate(f.degree):
        idx = [slice(None)] * dim
        idx[axis] = n
        coeffs[tuple(idx)] = 0.0
    return TrigPoly(dim, f.degree, coeffs)


# --- oracles ------------------------------------------------------------------


def block_by_search(k):
    """Smallest s >= 1 with |k| < 2**s, by linear search."""
    if k == 0:
        raise ValueError("zero frequency sits in no block")
    s = 1
    while abs(k) >= 2**s:
        s += 1
    return s


def angle_by_filter(f, l):
    """Keep a coefficient iff some axis stays within its cutoff."""
    g = np.zeros(f.coeffs.shape, dtype=complex)
    for k, c in f.nonzero_entries():
        if any(abs(kj) <= lj for kj, lj in zip(k, l)):
            idx = tuple(kj + n for kj, n in zip(k, f.degree))
            g[idx] = c
    return TrigPoly(f.dim, f.degree, g, real=False)


# --- block index -------------------------------------------------------------


def test_block_of_frequency_small_cases():
    for k in list(range(1, 40)) + [63, 64, 100]:
        assert block_of_frequency(k) == block_by_search(k)
        assert block_of_frequency(-k) == block_by_search(k)


def test_block_boundaries():
    assert block_of_frequency(1) == 1
    assert block_of_frequency(2) == 2
    assert block_of_frequency(3) == 2
    assert block_of_frequency(4) == 3
    assert block_of_frequency(8) == 4


# --- decomposition -------------------------------------------------------------


def test_blocks_have_disjoint_dyadic_support():
    f = random_poly(np.random.default_rng(3), 1, 13)
    for s, piece in decompose(f).blocks.items():
        for k, _ in piece.nonzero_entries():
            assert tuple(block_of_frequency(kj) for kj in k) == s


def test_reconstruction_is_exact():
    rng = np.random.default_rng(4)
    for f in (ring_poly(rng, 1, 9), ring_poly(rng, 2, 5)):
        g = decompose(f).reconstruct()
        assert g.degree == f.degree
        assert np.array_equal(g.coeffs, f.coeffs)


def test_parseval_over_blocks():
    f = ring_poly(np.random.default_rng(8), 2, 7)
    total = sum(poly_norm(piece, L2) ** 2 for piece in decompose(f).blocks.values())
    assert total == pytest.approx(poly_norm(f, L2) ** 2, rel=1e-8)


def test_delta_block_extracts_one_shell():
    f = cosine(1) + cosine(3) + cosine(5)
    assert sorted(k for (k,), _ in delta_block(f, (1,)).nonzero_entries()) == [-1, 1]
    assert sorted(k for (k,), _ in delta_block(f, (2,)).nonzero_entries()) == [-3, 3]
    assert sorted(k for (k,), _ in delta_block(f, (3,)).nonzero_entries()) == [-5, 5]
    assert max_block_index(f) == (3,)


# --- partial sums and corner complement -----------------------------------------


def test_partial_sum_keeps_the_box():
    f = random_poly(np.random.default_rng(11), 1, 10)
    g = partial_sum(f, (4,))
    for (k,), _ in g.nonzero_entries():
        assert abs(k) <= 4
    # idempotent, and the full box returns the function unchanged
    assert np.array_equal(partial_sum(g, (4,)).coeffs, g.coeffs)
    assert np.array_equal(partial_sum(f, f.tight_degree()).coeffs, f.coeffs)


def test_angle_operator_matches_filter_oracle_2d():
    f = tensor(random_poly(np.random.default_rng(12), 1, 6), random_poly(np.random.default_rng(13), 1, 5))
    for l in ((1, 1), (2, 4), (0, 3)):
        got = angle_operator(f, l)
        want = angle_by_filter(f, l)
        assert dict(got.nonzero_entries()) == pytest.approx(dict(want.nonzero_entries()))


def test_angle_inclusion_exclusion_2d():
    # two overlapping half-plane partial sums minus their intersection
    f = tensor(random_poly(np.random.default_rng(14), 1, 6), random_poly(np.random.default_rng(15), 1, 6))
    n1, n2 = f.degree
    for l1, l2 in ((1, 1), (2, 3), (0, 5)):
        lhs = angle_operator(f, (l1, l2))
        rhs = (
            partial_sum(f, (l1, n2))
            + partial_sum(f, (n1, l2))
            - partial_sum(f, (l1, l2))
        )
        assert lhs.degree == rhs.degree or dict(lhs.nonzero_entries()) == dict(rhs.nonzero_entries())
        for k, c in lhs.nonzero_entries():
            assert rhs.coeff(k) == c
        for k, c in rhs.nonzero_entries():
            assert lhs.coeff(k) == c


def test_residual_complements_the_operator():
    f = tensor(cosine(2), cosine(2))
    kept = angle_operator(f, (1, 1))
    rest = angle_residual(f, (1, 1))
    assert list(kept.nonzero_entries()) == []
    assert poly_norm(rest, L2) == pytest.approx(0.5, abs=1e-12)
    g = kept + rest
    assert g.coeff((2, 2)) == f.coeff((2, 2))


def test_angle_residual_norms_match_singles():
    f = random_poly(np.random.default_rng(16), 1, 12)
    cutoffs = [(1,), (3,), (7,)]
    batched = angle_residual_norms(f, cutoffs, L2)
    singles = [poly_norm(angle_residual(f, l), L2) for l in cutoffs]
    assert np.allclose(batched, singles, rtol=1e-12, atol=1e-15)


# --- tails -------------------------------------------------------------


def test_tail_square_norm_hand_value():
    f = cosine(1) + cosine(3)
    assert lp_tail_norm(f, 1, L2) == pytest.approx(1.0, abs=1e-10)
    assert lp_tail_norm(f, 2, L2) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
    assert lp_tail_norm(f, 3, L2) == pytest.approx(0.0, abs=1e-15)


def test_tail_square_norms_grid_is_monotone():
    f = ring_poly(np.random.default_rng(17), 1, 14)
    t = tail_square_norms(f, L2)
    assert t.ndim == 1
    assert all(t[i] >= t[i + 1] - 1e-15 for i in range(len(t) - 1))
    assert t[0] == pytest.approx(poly_norm(f, L2), rel=1e-8)


def test_tail_square_norms_2d_shape():
    f = tensor(cosine(3), cosine(5))
    t = tail_square_norms(f, L2)
    assert t.shape == (2, 3)  # block indices run to bit_length of each degree
    assert t[0, 0] == pytest.approx(0.5, rel=1e-10)


def test_tail_square_norms_chunking_keeps_norms_bitwise(monkeypatch):
    f = ring_poly(np.random.default_rng(41), 2, 7)
    lp = LorentzParams(3.0, 1.5)
    shape = (16, 16)
    blocks = len(decompose(f).blocks)
    samples = record_samples(monkeypatch)
    whole = tail_square_norms(f, lp, shape)
    assert [len(s) for s in samples] == [blocks]
    chunk = 4  # rows per evaluate_coeff_batch call
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", chunk * 16 * 16 * 16)
    chunked = tail_square_norms(f, lp, shape)
    sizes = [len(s) for s in samples[1:]]
    assert len(sizes) >= 3 and max(sizes) <= chunk and sum(sizes) == blocks
    assert np.array_equal(np.concatenate(samples[1:]), samples[0])
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("shape", [(32, 16), (32, 16, 8)])
def test_tensor_tails_agree_with_the_lattice_path(monkeypatch, shape):
    # axis 0 has no coefficient in block 2 (|k| in 2..3), so its block-2 row
    # is zero, and axis 1 is not Hermitian
    rng = np.random.default_rng(61)
    gappy = cosine(1) + cosine(5) * 0.25
    skew = random_poly(rng, 1, 4, real=False)
    parts = [gappy, skew, ring_poly(rng, 1, 3)][: len(shape)]
    f = tensor(*parts)
    assert f.factors is not None and not f.real
    batches = record_batches(monkeypatch)
    for lp in (LorentzParams(3.0, 1.5), L2):
        got = tail_square_norms(f, lp, shape)
        assert {d for d, _ in batches} == {(n,) for n in f.degree}
        assert all(np.any(row) for _, batch in batches for row in batch)
        assert_within_ulps(got, tail_square_norms(factorless(f), lp, shape))
        # blocks 2 and 3 of axis 0 hold the same tail: block 2 is empty
        assert np.array_equal(got[1], got[2])
        batches.clear()


@pytest.mark.parametrize("shape", [(32, 16), (32, 16, 8)])
def test_tensor_tails_at_tau_equal_p_form_no_outer_product(monkeypatch, shape):
    rng = np.random.default_rng(62)
    parts = [ring_poly(rng, 1, 7), random_poly(rng, 1, 4, real=False), ring_poly(rng, 1, 3)]
    f = tensor(*parts[: len(shape)])
    calls = count_outer_products(monkeypatch)
    for lp in (L2, LorentzParams(3.0, 3.0)):
        tail_square_norms(f, lp, shape)
    assert calls == {"axis_product": 0, "_reduce_powered": 0}
    tail_square_norms(f, LorentzParams(3.0, 1.5), shape)
    assert calls["axis_product"] > 0 and calls["_reduce_powered"] > 0


def test_tail_rejects_empty_axis():
    with pytest.raises(InvalidParams):
        tail_square_norms(TrigPoly.zero(2), L2)


def test_block_norms_values():
    f = cosine(1) + cosine(2) * 0.5
    norms = block_norms(f, L2)
    assert set(norms) == {(1,), (2,)}
    assert norms[(1,)] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    assert norms[(2,)] == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), cut=st.integers(min_value=0, max_value=9))
def test_partial_plus_complement_is_identity(seed, cut):
    f = random_poly(np.random.default_rng(seed), 1, 9)
    g = partial_sum(f, (cut,)) + angle_residual(f, (cut,))
    for k, c in f.nonzero_entries():
        assert g.coeff(k) == pytest.approx(c, rel=1e-14, abs=1e-15)


def tail_lattice(f, shape):
    """Tails from each block sampled alone and a reversed cumsum on every axis.

    One row of prod N square-function samples per start index nu, in
    lexicographic order of nu.
    """
    smax = max_block_index(f)
    squares = np.zeros(smax + (int(np.prod(shape)),))
    for s, block in decompose(f).blocks.items():
        samples = np.abs(evaluate_on_grid(block, shape)).ravel()
        squares[tuple(v - 1 for v in s)] = np.square(samples)
    for axis in range(len(smax)):
        squares = np.flip(np.cumsum(np.flip(squares, axis=axis), axis=axis), axis=axis)
    return np.sqrt(squares.reshape(-1, squares.shape[-1]))


def tail_oracle(f, lp, shape):
    """The lattice tails, sorted and reduced by batch_norms."""
    return batch_norms(tail_lattice(f, shape), lp).reshape(max_block_index(f))


def mean_tail_oracle(f, lp, shape):
    """tau = p: the plain L_p mean of each lattice tail, with no sort."""
    assert lp.tau == lp.p
    rows = tail_lattice(f, shape)
    means = np.add.reduce(np.power(rows, lp.p), axis=-1) / rows.shape[-1]
    return (means ** (1.0 / lp.p)).reshape(max_block_index(f))


def energy_tail_oracle(f, lp, shape):
    """p = tau = 2: square roots of the reversed cumsum of the blocks' energies.

    Only decompose(f)'s coefficients are read; nothing is sampled, so the
    grid shape does not enter.
    """
    assert lp.p == lp.tau == 2.0
    energy = np.zeros(max_block_index(f))
    for s, block in decompose(f).blocks.items():
        energy[tuple(v - 1 for v in s)] = np.add.reduce(np.square(np.abs(block.coeffs)).ravel())
    for axis in range(f.dim):
        energy = np.flip(np.cumsum(np.flip(energy, axis=axis), axis=axis), axis=axis)
    return np.sqrt(energy)


# (lp, the oracle that reduces the lattice tails as tail_square_norms does)
TAIL_REDUCTIONS = [
    (LorentzParams(3.0, 1.5), tail_oracle),
    (L2, energy_tail_oracle),
    (P3, mean_tail_oracle),
]
ORACLE_CASES = [(1, 14, (32,)), (2, (7, 5), (16, 16)), (2, 9, (32, 32)), (3, (5, 3, 4), (16, 8, 16))]


@pytest.mark.parametrize("dim, degree, shape", ORACLE_CASES)
def test_tail_square_norms_equal_reversed_cumsum_oracle(dim, degree, shape):
    f = ring_poly(np.random.default_rng(43 + dim), dim, degree)
    lp = LorentzParams(3.0, 1.5)
    assert np.array_equal(tail_square_norms(f, lp, shape), tail_oracle(f, lp, shape))


@pytest.mark.parametrize("dim, degree, shape", ORACLE_CASES)
def test_tail_square_norms_at_tau_equal_p_equal_their_oracles(dim, degree, shape):
    f = ring_poly(np.random.default_rng(43 + dim), dim, degree)
    for lp, oracle in TAIL_REDUCTIONS[1:]:
        got = tail_square_norms(f, lp, shape)
        assert np.array_equal(got, oracle(f, lp, shape))
        assert_within_ulps(got, tail_oracle(f, lp, shape))


def gappy_poly(dim):
    """Dense real input whose axis-0 slabs s_1 = 1 and 3 hold no block.

    Axis 0 has degree 24, so smax_1 = 5.  At m >= 2 the frequencies |k_1| >= 16
    sit only where every other k_j = 0, outside every block, so the top slab
    is empty too, while it still sets smax_1.
    """
    f = random_poly(np.random.default_rng(71 + dim), dim, (24, 5, 3)[:dim])
    k = np.meshgrid(*[np.abs(f.freqs(axis)) for axis in range(dim)], indexing="ij")
    block = np.frexp(k[0].astype(float))[1]
    others = np.logical_or.reduce(k[1:])  # np.False_ at m = 1
    keep = (block != 1) & (block != 3) & ((block != 5) | ~others)
    return TrigPoly(dim, f.degree, f.coeffs * keep)


GAPPY_SHAPES = {1: (64,), 2: (64, 16), 3: (64, 16, 8)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_square_norms_with_empty_slabs_equal_the_oracle(dim):
    f, shape = gappy_poly(dim), GAPPY_SHAPES[dim]
    assert max_block_index(f)[0] == 5
    for lp, oracle in TAIL_REDUCTIONS:
        got = tail_square_norms(f, lp, shape)
        assert np.array_equal(got, oracle(f, lp, shape))
        assert_within_ulps(got, tail_oracle(f, lp, shape))
        # an empty slab adds nothing: its tails are those of the slab above
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[2], got[3])
        assert np.all(got[:4] > 0.0)
        # at m >= 2 the top slab holds no block, at m = 1 it does
        assert np.all(got[4] == 0.0) == (dim > 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_tails_at_tau_equal_p_sample_nothing_at_l2_and_sort_nothing(monkeypatch, dim):
    f, shape = gappy_poly(dim), GAPPY_SHAPES[dim]
    batches = record_batches(monkeypatch)
    calls = count_outer_products(monkeypatch)
    # the slab path calls spectral's own binding of _reduce_powered
    monkeypatch.setattr(spectral, "_reduce_powered", lorentz._reduce_powered)
    tail_square_norms(f, L2, shape)
    assert batches == []
    tail_square_norms(f, P3, shape)
    assert batches and calls["_reduce_powered"] == 0
    tail_square_norms(f, LorentzParams(3.0, 1.5), shape)
    assert calls["_reduce_powered"] > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_square_norms_sample_every_block_once(monkeypatch, dim):
    f, shape = gappy_poly(dim), GAPPY_SHAPES[dim]
    blocks = [b.coeffs for b in decompose(f).blocks.values()]
    # two rows per chunk, so chunks cross slab boundaries
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 2 * 16 * math.prod(shape))
    batches = record_batches(monkeypatch)
    tail_square_norms(f, LorentzParams(3.0, 1.5), shape)
    rows = [row for _, batch in batches for row in batch]
    assert len(batches) > 1 and len(rows) == len(blocks)
    for coeffs in blocks:
        assert sum(np.array_equal(row, coeffs) for row in rows) == 1


@pytest.mark.parametrize(
    "dim, degree, shape", [(2, 31, (128, 128)), (3, (31, 3, 3), (64, 16, 16))]
)
def test_tail_square_norms_hold_two_slabs_not_the_lattice(monkeypatch, dim, degree, shape):
    f = ring_poly(np.random.default_rng(73), dim, degree)
    smax = max_block_index(f)
    size = math.prod(shape)
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 16 * size)  # one row per chunk
    lp = LorentzParams(3.0, 1.5)
    tail_square_norms(f, lp, shape)  # caches the step weights
    tracemalloc.start()
    try:
        tail_square_norms(f, lp, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice = math.prod(smax) * size * 8
    slab = math.prod(smax[1:]) * size * 8
    # two slabs, plus one chunk's coefficient batch, FFT buffers and samples,
    # which stay within a few _CHUNK_BYTES
    assert peak <= 2 * slab + 3 * lorentz._CHUNK_BYTES < lattice


def test_tail_square_norms_check_the_grid_on_both_paths():
    corpus = {cf.fid: cf.poly for cf in generate_corpus(7, 2, 8)}
    dense, product = corpus["random_decay/0"], corpus["tensor/0"]
    assert dense.factors is None and product.factors is not None
    lp = LorentzParams(3.0, 1.5)
    for f in (dense, product):
        assert np.array_equal(tail_square_norms(f, lp, 32), tail_square_norms(f, lp, (32, 32)))
        for shape in ((32,), (32, 32, 32)):
            with pytest.raises(InvalidParams):
                tail_square_norms(f, lp, shape)
        with pytest.raises(GridTooCoarse, match=r"grid \(8, 32\) cannot resolve degree"):
            tail_square_norms(f, lp, (8, 32))
