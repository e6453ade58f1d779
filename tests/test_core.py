"""Coefficient container, algebra, and grid evaluation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsmooth import core, lorentz
from mixsmooth.core import (
    DEGREE_GUARD,
    GridTooCoarse,
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    _ifft_box,
    _pow2_grid,
    axis_product,
    cosine,
    default_grid_shape,
    evaluate_coeff_batch,
    evaluate_on_grid,
    tensor,
)
from mixsmooth.smoothness import _difference_factors, derivative
from mixsmooth.spectral import _block_tables, _nonzero_rows, _residual_masks


# --- oracle -----------------------------------------------------------------
# Direct DFT summation, no FFT: f(x) = sum_k a_k exp(2 pi i <k, x>) evaluated
# point by point on the unit-measure grid x_j = i_j / N_j.


def direct_eval(f: TrigPoly, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=np.complex128)
    grids = np.meshgrid(
        *[np.arange(n) / n for n in shape], indexing="ij"
    )
    for k, re, im in _entries(f):
        phase = np.zeros(shape)
        for j, kj in enumerate(k):
            phase = phase + kj * grids[j]
        out += (re + 1j * im) * np.exp(2j * np.pi * phase)
    return out


def _entries(f: TrigPoly):
    for k, a in f.nonzero_entries():
        yield k, a.real, a.imag


def random_poly(rng, dim, degree, real=True):
    degree = tuple(int(n) for n in np.broadcast_to(degree, (dim,)))
    shape = tuple(2 * n + 1 for n in degree)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if real:
        flipped = np.conj(coeffs[tuple(slice(None, None, -1) for _ in range(dim))])
        coeffs = 0.5 * (coeffs + flipped)
    return TrigPoly(dim, degree, coeffs)


# --- parameter validation ----------------------------------------------------


def test_lorentz_params_bounds():
    LorentzParams(2.0, 1.0)
    with pytest.raises(InvalidParams):
        LorentzParams(1.0, 1.0)
    with pytest.raises(InvalidParams):
        LorentzParams(2.0, 0.5)
    with pytest.raises(InvalidParams):
        LorentzParams(2.0, math.inf)


def test_smooth_params_broadcast_and_floor():
    sp = SmoothParams(2.0, -0.25, 1)
    assert sp.b == (-0.25,) and sp.k == (1,)
    sp = SmoothParams(1.0, (0.0, 1.0), (1, 2))
    assert sp.b == (0.0, 1.0) and sp.k == (1, 2)
    with pytest.raises(InvalidParams):
        SmoothParams(2.0, -0.5, 1)  # b must exceed -1/theta
    with pytest.raises(InvalidParams):
        SmoothParams(math.inf, 0.0, 1)  # sup form needs b > 0
    with pytest.raises(InvalidParams):
        SmoothParams(1.0, 0.0, 0)  # difference order >= 1


def test_parameter_hash_is_stored_and_equal_objects_share_cache_entries():
    lp, fresh = LorentzParams(3, 1.5), LorentzParams(3.0, 1.5)
    sp = SmoothParams(1.0, (0.0, 0.5), 1)
    same = SmoothParams(1, [0.0, 0.5], (1, 1))
    assert lp == fresh and lp is not fresh and hash(lp) == hash(fresh)
    assert sp == same and hash(sp) == hash(same)
    # the value the generated dataclass hash gives, and unchanged repr
    assert hash(lp) == hash((3.0, 1.5))
    assert hash(sp) == hash((1.0, (0.0, 0.5), (1, 1)))
    assert repr(fresh) == "LorentzParams(p=3.0, tau=1.5)"
    assert repr(same) == "SmoothParams(theta=1.0, b=(0.0, 0.5), k=(1, 1))"
    # hashed once, at construction: a field forced afterwards leaves it
    forced = LorentzParams(3.0, 1.5)
    object.__setattr__(forced, "p", 4.0)
    assert hash(forced) == hash(lp)
    assert {lp: 1, sp: 2}[fresh] == 1 and {lp: 1, sp: 2}[same] == 2
    # equal objects hit the same entry of the step-weight cache
    weights = lorentz._negated_step_weights
    weights.cache_clear()
    values = np.random.default_rng(5).standard_normal((2, 64))
    assert np.array_equal(lorentz.batch_norms(values, lp), lorentz.batch_norms(values, fresh))
    info = weights.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
    weights.cache_clear()


# --- container basics ---------------------------------------------------------


def test_coefficients_are_read_only():
    f = cosine(3)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_degree_guard():
    coeffs = np.zeros(2 * (DEGREE_GUARD + 1) + 1, dtype=complex)
    with pytest.raises(InvalidParams):
        TrigPoly(1, DEGREE_GUARD + 1, coeffs)
    f = TrigPoly(1, DEGREE_GUARD + 1, coeffs, allow_large=True)
    assert f.degree == (DEGREE_GUARD + 1,)
    # sparse constructors opt in on their own
    assert cosine(DEGREE_GUARD + 1).degree == (DEGREE_GUARD + 1,)


def test_hermitian_detection_and_enforcement():
    assert cosine(2).real
    coeffs = np.zeros(5, dtype=complex)
    coeffs[3] = 1.0  # a_1 without matching a_{-1}
    assert not TrigPoly(1, 2, coeffs).real
    with pytest.raises(InvalidParams):
        TrigPoly(1, 2, coeffs, real=True)


def test_ring_membership_flags_zero_frequencies():
    f = cosine(0)
    assert not f.is_ring_member()
    assert f.ring_violation_axes() == [0]
    g = tensor(cosine(1), cosine(0))
    assert g.ring_violation_axes() == [1]
    assert cosine(4).is_ring_member()
    assert TrigPoly.zero(2).is_ring_member()


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(3)
    f = random_poly(rng, 2, 3, real=False)
    g = TrigPoly.loads(f.dumps())
    assert g.dim == f.dim and g.degree == f.degree
    assert np.array_equal(g.coeffs, f.coeffs)
    # and the dict form survives a JSON text cycle
    h = TrigPoly.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert np.array_equal(h.coeffs, f.coeffs)


def test_addition_embeds_into_max_degree_box():
    f = cosine(2)
    g = cosine(5)
    s = f + g
    assert s.degree == (5,)
    assert s.coeff((2,)) == pytest.approx(0.5)
    assert s.coeff((5,)) == pytest.approx(0.5)
    d = s - g
    assert d.degree == (5,)
    assert np.allclose(d.coeff((2,)), 0.5) and abs(d.coeff((5,))) == 0.0


def test_apply_multiplier_scales_each_coefficient():
    f = cosine(3)
    mult = 2.0 * f.freqs(0).astype(float) ** 2
    g = f.apply_multiplier(mult)
    assert g.coeff((3,)) == pytest.approx(9.0)
    assert g.coeff((-3,)) == pytest.approx(9.0)
    assert g.coeff((1,)) == 0.0


def test_axis_product_of_masks_equals_tensordot_outer_product():
    rng = np.random.default_rng(14)
    masks = [rng.random(n) < 0.5 for n in (5, 3, 7)]
    want = np.tensordot(np.tensordot(masks[0], masks[1], axes=0), masks[2], axes=0)
    got = axis_product(masks)
    assert got.dtype == bool
    assert np.array_equal(got, want)


def test_axis_product_row_stacks_match_single_products():
    rng = np.random.default_rng(15)
    rows = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    shared = rng.standard_normal(3)
    got = axis_product([rows, shared])
    assert got.shape == (4, 5, 3)
    for b in range(4):
        assert np.array_equal(got[b], axis_product([rows[b], shared]))
        assert np.array_equal(got[b], rows[b][:, None] * shared[None, :])


# --- evaluation ----------------------------------------------------------------


def test_evaluation_matches_direct_dft_1d():
    rng = np.random.default_rng(11)
    f = random_poly(rng, 1, 6)
    shape = (32,)
    got = evaluate_on_grid(f, shape)
    want = direct_eval(f, shape)
    assert np.max(np.abs(got - want.real)) <= 1e-10
    assert np.max(np.abs(want.imag)) <= 1e-10


def test_evaluation_matches_direct_dft_2d_complex():
    rng = np.random.default_rng(12)
    f = random_poly(rng, 2, 2, real=False)
    shape = (8, 16)
    got = evaluate_on_grid(f, shape)
    want = direct_eval(f, shape)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize(
    "degree, shape",
    [
        ((6,), (16,)),
        ((8,), (17,)),
        ((3, 4), (16, 16)),
        ((8, 8), (17, 17)),
        ((5, 9), (31, 19)),
        ((2, 1, 2), (8, 4, 8)),
        ((3, 2, 0), (7, 5, 3)),
    ],
)
def test_real_polynomials_are_sampled_on_the_real_path(monkeypatch, degree, shape):
    rng = np.random.default_rng(60 + sum(degree) + sum(shape))
    f = random_poly(rng, len(degree), degree)
    g = random_poly(rng, len(degree), degree, real=False)
    paths = record_paths(monkeypatch)
    got = evaluate_on_grid(f, shape)
    want = _ifft_box(f.coeffs[None], f.degree, shape)[0]
    assert got.dtype == np.float64 and got.shape == shape
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want.real)) <= 1e-12 * scale
    samples = evaluate_on_grid(g, shape)
    assert samples.dtype == np.complex128
    assert np.array_equal(samples, _ifft_box(g.coeffs[None], g.degree, shape)[0])
    assert paths == [True, False]


# --- batched evaluation: real-input and complex paths -------------------------
# The reference is the complex transform _ifft_box takes for any batch.


def record_paths(monkeypatch):
    """Patch core._ifft_box to log the `real` flag of every batched transform."""
    paths = []

    def recording(coeff_batch, degree, shape, real=False):
        paths.append(real)
        return _ifft_box(coeff_batch, degree, shape, real=real)

    monkeypatch.setattr(core, "_ifft_box", recording)
    return paths


def complex_reference(batch, degree, shape):
    return np.abs(_ifft_box(batch, degree, shape)).reshape(len(batch), int(np.prod(shape)))


def multiplier_batches(rng, f):
    """Difference-factor, dyadic-block and angle-residual batches of f."""
    h = rng.uniform(0.0, 2.0 * np.pi, size=(5, f.dim))
    k = (2,) + (1,) * (f.dim - 1)
    cutoffs = rng.integers(0, max(f.degree) + 1, size=(3, f.dim))
    _, blocks = _nonzero_rows(f, _block_tables(f))
    return [
        f.coeffs * axis_product(_difference_factors(f, h, k)),
        f.coeffs * axis_product(blocks),
        f.coeffs * axis_product(_residual_masks(f, cutoffs)),
    ]


@pytest.mark.parametrize(
    "degree, shape",
    [
        ((6,), (32,)),
        ((6,), (17,)),
        ((0,), (4,)),
        ((3, 4), (16, 16)),
        ((8, 8), (17, 17)),
        ((5, 9), (31, 19)),
        ((4, 0), (16, 8)),
        ((2, 1, 2), (8, 4, 8)),
        ((3, 2, 0), (7, 5, 3)),
    ],
)
def test_real_path_matches_complex_transform(monkeypatch, degree, shape):
    rng = np.random.default_rng(40 + sum(degree) + sum(shape))
    f = random_poly(rng, len(degree), degree)
    batches = multiplier_batches(rng, f)
    paths = record_paths(monkeypatch)
    for batch in batches:
        got = evaluate_coeff_batch(f.degree, batch, shape)
        want = complex_reference(batch, f.degree, shape)
        assert got.shape == want.shape == (len(batch), int(np.prod(shape)))
        scale = float(np.max(want, initial=0.0)) or 1.0
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    assert paths == [True] * len(batches)


def scaled_transform(batch, degree, shape, real):
    """Default-normalised inverse FFT of the wrapped spread, scaled back by prod N."""
    wrap = [np.arange(-n, n + 1) % N for n, N in zip(degree, shape)]
    size = shape
    if real:
        batch = batch[..., degree[-1]:]
        wrap[-1] = np.arange(degree[-1] + 1)
        size = shape[:-1] + (degree[-1] + 1,)
    spread = np.zeros((len(batch),) + size, dtype=np.complex128)
    spread[(slice(None),) + np.ix_(*wrap)] = batch
    axes = tuple(range(1, len(shape) + 1))
    if real:
        values = np.fft.irfftn(spread, s=shape, axes=axes)
    else:
        values = np.fft.ifftn(spread, axes=axes)
    return values * float(np.prod(shape))


@pytest.mark.parametrize(
    "degree, shape, exact",
    [
        ((3, 4), (16, 16), True),
        ((7, 5), (32, 32), True),
        ((2, 1, 2), (8, 4, 8), True),
        ((8, 8), (17, 17), False),
        ((5, 9), (31, 19), False),
        ((3, 2, 0), (7, 5, 3), False),
    ],
)
def test_unscaled_transform_equals_scaled_default(degree, shape, exact):
    # norm="forward" skips the 1/prod N scaling that the old code undid by
    # multiplying with prod N; both are exact on power-of-two grids
    rng = np.random.default_rng(50 + sum(degree) + sum(shape))
    f = random_poly(rng, len(degree), degree)
    g = random_poly(rng, len(degree), degree, real=False)
    hermitian = multiplier_batches(rng, f)[0]
    cases = [(hermitian, True), (hermitian, False), (g.coeffs[None], False)]
    for batch, real in cases:
        got = _ifft_box(batch, f.degree, shape, real=real)
        want = scaled_transform(batch, f.degree, shape, real)
        assert got.dtype == want.dtype and got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def record_row_paths(monkeypatch):
    """Patch core._ifft_box to log (real flag, coefficient row) of every row it transforms."""
    rows = []

    def recording(coeff_batch, degree, shape, real=False):
        rows.extend((real, row.copy()) for row in coeff_batch)
        return _ifft_box(coeff_batch, degree, shape, real=real)

    monkeypatch.setattr(core, "_ifft_box", recording)
    return rows


def test_non_hermitian_batches_take_the_complex_path(monkeypatch):
    rng = np.random.default_rng(31)
    f = random_poly(rng, 2, 3)
    g = random_poly(rng, 2, 3, real=False)
    h = rng.uniform(0.0, 2.0 * np.pi, size=(4, 2))
    hermitian = f.coeffs * axis_product(_difference_factors(f, h, (1, 1)))
    one_ulp = hermitian.copy()
    v = one_ulp[1, 0, 2]
    one_ulp[1, 0, 2] = complex(np.nextafter(v.real, np.inf), v.imag)
    complex_dc = hermitian.copy()
    complex_dc[2, 3, 3] += 0.5j
    batches = [
        hermitian,
        g.coeffs * axis_product(_difference_factors(g, h, (1, 1))),
        one_ulp,
        complex_dc,
    ]
    shape = (16, 16)
    log = record_row_paths(monkeypatch)
    paths = []
    for batch in batches:
        log.clear()
        got = evaluate_coeff_batch(f.degree, batch, shape)
        want = complex_reference(batch, f.degree, shape)
        scale = float(np.max(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert len(log) == len(batch)
        paths.append([next(real for real, seen in log if np.array_equal(seen, row)) for row in batch])
    # the path is chosen per row: only the one-ulp-off row and the complex-DC
    # row leave the real path of their Hermitian neighbours
    assert paths == [
        [True] * 4,
        [False] * 4,
        [True, False, True, True],
        [True, True, False, True],
    ]


def test_hermitian_row_samples_do_not_depend_on_batch_neighbours():
    rng = np.random.default_rng(33)
    f = random_poly(rng, 2, 3)
    g = random_poly(rng, 2, 3, real=False)
    h = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
    hermitian = f.coeffs * axis_product(_difference_factors(f, h, (1, 1)))
    other = g.coeffs * axis_product(_difference_factors(g, h, (1, 1)))
    for shape in ((16, 16), (17, 9)):
        alone = evaluate_coeff_batch(f.degree, hermitian, shape)
        others = evaluate_coeff_batch(f.degree, other, shape)
        for b in range(len(hermitian)):
            mixed = np.stack([other[b], hermitian[b], other[(b + 1) % 3]])
            got = evaluate_coeff_batch(f.degree, mixed, shape)
            assert np.array_equal(got[1], alone[b])
            assert np.array_equal(got[0], others[b])
            assert np.array_equal(got[2], others[(b + 1) % 3])


def test_coeff_batch_empty_and_too_coarse():
    empty = np.zeros((0, 5, 7), dtype=np.complex128)
    assert evaluate_coeff_batch((2, 3), empty, (8, 8)).shape == (0, 64)
    f = random_poly(np.random.default_rng(32), 2, (2, 3))
    assert core._hermitian_rows(f.coeffs[None]).all()
    with pytest.raises(GridTooCoarse):
        evaluate_coeff_batch(f.degree, f.coeffs[None], (8, 6))  # axis 1 needs >= 7


def test_grid_too_coarse_raises():
    f = cosine(8)
    with pytest.raises(GridTooCoarse):
        evaluate_on_grid(f, (16,))  # needs >= 17 points


def test_default_grid_shape_is_alias_free_power_of_two():
    for dim in (1, 2, 3):
        for degree in (1, 30, 100):
            shape = default_grid_shape(dim, degree)
            assert len(shape) == dim
            for n in shape:
                assert n >= 2 * degree + 1
                assert n & (n - 1) == 0


def test_grid_rule_floors():
    # one rule: smallest power of two >= max(floor, 2 n_j + 1) per axis
    assert _pow2_grid((0, 7, 8, 500), 16) == (16, 16, 32, 1024)
    assert default_grid_shape(1, 600) == (2048,)
    assert default_grid_shape(2, (3, 200)) == (256, 512)
    assert default_grid_shape(3, (0, 31, 32)) == (64, 64, 128)


def test_cosine_values():
    f = cosine(2, amplitude=3.0)
    vals = evaluate_on_grid(f, (64,))
    x = np.arange(64) / 64
    assert np.allclose(vals, 3.0 * np.cos(2 * np.pi * 2 * x), atol=1e-12)


def test_tensor_product_values():
    f = tensor(cosine(1), cosine(2))
    vals = evaluate_on_grid(f, (16, 16))
    x = np.arange(16) / 16
    want = np.outer(np.cos(2 * np.pi * x), np.cos(2 * np.pi * 2 * x))
    assert np.allclose(vals, want, atol=1e-12)


def tensor_member(rng, degrees, complex_axis=None):
    """Product of random one-axis polynomials; axis complex_axis is not Hermitian."""
    parts = [random_poly(rng, 1, n, real=axis != complex_axis) for axis, n in enumerate(degrees)]
    return tensor(*parts), parts


def test_tensor_records_its_one_axis_factors():
    rng = np.random.default_rng(31)
    f, parts = tensor_member(rng, (3, 2, 4), complex_axis=1)
    assert len(f.factors) == 3
    for fac, part in zip(f.factors, parts):
        assert np.array_equal(fac, part.coeffs) and not fac.flags.writeable
    assert np.array_equal(f.coeffs, axis_product(f.factors))
    a, b, c = parts
    for nested in (tensor(tensor(a, b), c), tensor(a, tensor(b, c)), tensor(a, tensor(b), c)):
        assert all(np.array_equal(x, y) for x, y in zip(nested.factors, f.factors))
        # bit for bit, also where the grouping puts later axes first
        assert np.array_equal(nested.coeffs.view(np.float64), f.coeffs.view(np.float64))
    assert a.factors is None and tensor(a).factors == (a.coeffs,)
    # a factor with no one-axis factors leaves the product without them
    dense = random_poly(rng, 2, 2)
    assert dense.factors is None and tensor(dense, a).factors is None


def test_arithmetic_and_serialization_drop_the_factors():
    f, _ = tensor_member(np.random.default_rng(32), (2, 3))
    assert f.factors is not None
    dropped = [
        f + f, f - f, 2.0 * f, f * 0.5, -f,
        f.apply_multiplier(np.ones(f.coeffs.shape)),
        derivative(f, 1),
        TrigPoly.loads(f.dumps()),
        TrigPoly(f.dim, f.degree, f.coeffs),
    ]
    assert all(g.factors is None for g in dropped)


# --- algebra properties ---------------------------------------------------------

small_polys = st.integers(min_value=0, max_value=3).flatmap(
    lambda seed: st.just(random_poly(np.random.default_rng(seed), 1, 4))
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), scale=st.floats(-4, 4))
def test_addition_commutes_and_scalar_mul_is_linear(seed, scale):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 1, 3)
    g = random_poly(rng, 1, 5)
    assert np.array_equal((f + g).coeffs, (g + f).coeffs)
    h = f * scale
    assert np.allclose(h.coeffs, f.coeffs * scale, atol=0.0)
    assert np.allclose((-f).coeffs, -f.coeffs, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tensor_degree_and_entry_count(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 1, 2)
    g = random_poly(rng, 1, 3)
    t = tensor(f, g)
    assert t.dim == 2 and t.degree == (2, 3)
    assert t.coeff((1, -2)) == pytest.approx(f.coeff((1,)) * g.coeff((-2,)))
