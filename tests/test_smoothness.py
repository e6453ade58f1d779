"""Mixed differences, the modulus lattice, and the log-weighted seminorm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsmooth import smoothness
from mixsmooth.core import (
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    cosine,
    evaluate_on_grid,
    tensor,
)
from mixsmooth.lorentz import poly_norm
from mixsmooth.seqnorms import norm_bold_B
from mixsmooth.smoothness import (
    TailNotConverged,
    derivative,
    difference_norms,
    log_modulus_seminorm,
    mixed_difference,
    mixed_modulus,
    modulus_grid,
)

from test_core import random_poly
from test_spectral import ring_poly

L2 = LorentzParams(2.0, 2.0)


# --- oracles ------------------------------------------------------------------
# the step h = 2*pi*j/N shifts the sampling grid by exactly j cells, so the
# difference of samples can be formed by np.roll with no interpolation error


def rolled_difference(values, shifts, k, axes):
    out = np.asarray(values, dtype=complex)
    for axis, (j, kk) in zip(axes, zip(shifts, k)):
        for _ in range(kk):
            out = np.roll(out, -j, axis=axis) - out
    return out


def test_difference_matches_roll_oracle_1d():
    f = random_poly(np.random.default_rng(21), 1, 6)
    N = 64
    vals = evaluate_on_grid(f, (N,))
    for j, k in ((1, 1), (3, 1), (5, 2), (11, 3)):
        h = 2.0 * math.pi * j / N
        g = mixed_difference(f, (h,), (k,))
        got = evaluate_on_grid(g, (N,))
        want = rolled_difference(vals, (j,), (k,), axes=(0,))
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_difference_matches_roll_oracle_2d():
    f = ring_poly(np.random.default_rng(22), 2, 4)
    N = 32
    vals = evaluate_on_grid(f, (N, N))
    h = (2.0 * math.pi * 3 / N, 2.0 * math.pi * 7 / N)
    g = mixed_difference(f, h, (2, 1))
    got = evaluate_on_grid(g, (N, N))
    want = rolled_difference(vals, (3, 7), (2, 1), axes=(0, 1))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_first_difference_of_cosine_closed_form():
    # multiplier magnitude |e^{ih} - 1| = 2 sin(h/2)
    for h in (0.3, 1.0, 2.5):
        g = mixed_difference(cosine(1), (h,), (1,))
        want = 2.0 * math.sin(h / 2.0) / math.sqrt(2.0)
        assert poly_norm(g, L2) == pytest.approx(want, rel=1e-12)


def test_higher_difference_powers_of_multiplier():
    for k in (1, 2, 3):
        g = mixed_difference(cosine(1), (0.7,), (k,))
        want = (2.0 * math.sin(0.35)) ** k / math.sqrt(2.0)
        assert poly_norm(g, L2) == pytest.approx(want, rel=1e-12)


# --- modulus ------------------------------------------------------------------


def test_modulus_of_cosine_closed_form():
    # sup over h <= t of 2 sin(h/2) sits at the endpoint while t <= pi
    for t in (0.25, 0.9, 2.0, math.pi):
        got = mixed_modulus(cosine(1), (t,), (1,), L2)
        assert got == pytest.approx(math.sqrt(2.0) * math.sin(t / 2.0), rel=1e-8)


def test_modulus_tensor_factorization_at_p2():
    f = tensor(cosine(1), cosine(1))
    for t1, t2 in ((0.5, 1.5), (2.0, 0.3)):
        got = mixed_modulus(f, (t1, t2), (1, 1), L2)
        want = 2.0 * math.sin(t1 / 2.0) * math.sin(t2 / 2.0)
        assert got == pytest.approx(want, rel=1e-8)


def test_modulus_monotone_in_t():
    f = ring_poly(np.random.default_rng(23), 1, 9)
    ts = [0.1, 0.4, 0.9, 1.7, 3.0]
    vals = [mixed_modulus(f, (t,), (1,), L2) for t in ts]
    assert all(a <= b * (1.0 + 1e-9) for a, b in zip(vals, vals[1:]))


def test_modulus_subadditive_on_shared_lattice():
    # both summands and the sum measured over one common set of steps
    rng = np.random.default_rng(24)
    f = ring_poly(rng, 1, 7)
    g = ring_poly(rng, 1, 7)
    lp = LorentzParams(3.0, 1.5)
    for t in (0.5, 1.5):
        h_list = [(h,) for h in np.linspace(0.0, t, 17)[1:]]
        nf = difference_norms(f, h_list, (1,), lp)
        ng = difference_norms(g, h_list, (1,), lp)
        nsum = difference_norms(f + g, h_list, (1,), lp)
        assert nsum.max() <= nf.max() + ng.max() + 1e-9


def test_modulus_bounded_by_derivative():
    # omega_k(f, t) <= t^k * ||f^(k)|| at p = tau = 2
    f = ring_poly(np.random.default_rng(25), 1, 8)
    d1 = poly_norm(derivative(f, (1,)), L2)
    for t in (0.5, 0.1, 0.02):
        got = mixed_modulus(f, (t,), (1,), L2)
        assert got <= t * d1 * (1.0 + 1e-6)


def test_derivative_closed_form():
    for n in (1, 3, 8):
        g = derivative(cosine(n), (1,))
        assert poly_norm(g, L2) == pytest.approx(n / math.sqrt(2.0), rel=1e-12)
    # second derivative brings down n^2
    g = derivative(cosine(3), (2,))
    assert poly_norm(g, L2) == pytest.approx(9.0 / math.sqrt(2.0), rel=1e-12)


def test_derivative_of_tensor_is_separable():
    f = tensor(cosine(2), cosine(5))
    g = derivative(f, (1, 1))
    assert poly_norm(g, L2) == pytest.approx(10.0 * 0.5, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_modulus_vanishes_with_t(seed):
    f = ring_poly(np.random.default_rng(seed), 1, 5)
    small = mixed_modulus(f, (1e-4,), (1,), L2)
    assert small <= 1e-3 * max(poly_norm(f, L2), 1.0)


# --- modulus lattice cache --------------------------------------------------
# reference: the per-cell table.  Every cell nu evaluates its own lattice
# product (h_grid points per axis while t * n > 1, else the endpoint t), and a
# suffix maximum over nu' >= nu then folds in every finer cell.


def per_cell_modulus_table(f, k, lp, nu_max, h_grid=17, shape=None):
    n_tight = f.tight_degree()
    raw = np.empty(nu_max)
    for pos in np.ndindex(*nu_max):
        axes = []
        for n, level in zip(n_tight, pos):
            t = 2.0 ** (-level)
            if t * max(n, 1) > 1.0 and h_grid > 1:
                axes.append(np.linspace(0.0, t, h_grid))
            else:
                axes.append(np.array([t]))
        grids = np.meshgrid(*axes, indexing="ij")
        steps = np.stack([g.ravel() for g in grids], axis=-1)
        raw[pos] = np.max(difference_norms(f, steps, k, lp, shape))
    for axis in range(raw.ndim):
        raw = np.flip(np.maximum.accumulate(np.flip(raw, axis), axis=axis), axis)
    return raw


LP_MIXED = LorentzParams(3.0, 1.5)


@pytest.mark.parametrize(
    "case",
    [
        # deg 9: levels 1-4 keep 17 points, 5-6 collapse to {t}
        dict(f=("ring", 1, 9, 31), k=(1,), nu_max=(6,), h_grid=17, shape=(32,)),
        dict(f=("ring", 1, 9, 32), k=(3,), nu_max=(7,), h_grid=2, shape=(32,)),
        # |sin(3 t)| peaks near t = 1/2, so finer cells raise coarser ones
        dict(f=("cos", 1, 6, 0), k=(1,), nu_max=(5,), h_grid=2, shape=(16,)),
        dict(f=("zero", 1, 4, 0), k=(1,), nu_max=(4,), h_grid=17, shape=(16,)),
        dict(f=("ring", 2, 4, 33), k=(2, 1), nu_max=(5, 3), h_grid=17, shape=(16, 16)),
        dict(f=("ring", 2, 3, 34), k=(1, 1), nu_max=(3, 6), h_grid=2, shape=(16, 16)),
        dict(f=("cos", 2, 6, 0), k=(1, 2), nu_max=(4, 3), h_grid=2, shape=(16, 16)),
        dict(f=("zero", 2, 3, 0), k=(2, 1), nu_max=(3, 2), h_grid=17, shape=(16, 16)),
        dict(f=("ring", 3, 2, 35), k=(1, 2, 1), nu_max=(3, 2, 4), h_grid=5, shape=(8, 8, 8)),
    ],
    ids=["m1", "m1-h2", "m1-cos", "m1-zero", "m2-k21", "m2-h2", "m2-cos", "m2-zero", "m3"],
)
def test_modulus_grid_equals_per_cell_table_bitwise(case):
    kind, dim, degree, seed = case["f"]
    if kind == "zero":
        f = TrigPoly.zero(dim, degree)
    elif kind == "cos":
        f = tensor(*[cosine(degree)] * dim)
    else:
        f = ring_poly(np.random.default_rng(seed), dim, degree)
    args = (f, case["k"], LP_MIXED, case["nu_max"])
    grid = modulus_grid(*args, h_grid=case["h_grid"], shape=case["shape"])
    want = per_cell_modulus_table(*args, h_grid=case["h_grid"], shape=case["shape"])
    assert grid.values.shape == case["nu_max"]
    assert grid.values.flags.c_contiguous
    assert np.array_equal(grid.values, want)
    if kind == "zero":
        assert np.all(grid.values == 0.0)


def test_modulus_grid_makes_one_difference_batch(monkeypatch):
    f = ring_poly(np.random.default_rng(36), 2, 4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return difference_norms(*args, **kwargs)

    monkeypatch.setattr(smoothness, "difference_norms", counting)
    modulus_grid(f, (1, 1), L2, nu_max=(5, 4), shape=(16, 16))
    assert len(calls) == 1
    modulus_grid(f, (2, 1), LP_MIXED, nu_max=(3, 6), h_grid=5, shape=(16, 16))
    assert len(calls) == 2


def test_grid_from_rows_of_other_batches_is_bitwise_equal():
    # a table folded from norms evaluated in other batches (a larger box's
    # lattice, shuffled) equals modulus_grid: a row's norm has the same bits
    # in any batch, which is what lets a cache serve lattice rows
    f = ring_poly(np.random.default_rng(37), 2, 4)
    k, shape = (1, 2), (16, 16)
    rng = np.random.default_rng(38)
    big = smoothness._lattice_points(
        [smoothness._axis_union(2.0 ** -np.arange(7.0), n, 5)[0] for n in f.tight_degree()]
    )
    order = rng.permutation(len(big))
    table = dict(zip(map(bytes, big[order]), difference_norms(f, big[order], k, LP_MIXED, shape)))

    def served(pts):
        return np.array([table[bytes(row)] for row in pts])

    for nu_max in ((7, 7), (4, 6), (2, 2)):
        want = modulus_grid(f, k, LP_MIXED, nu_max, h_grid=5, shape=shape)
        got = smoothness._fold_grid(f, k, LP_MIXED, nu_max, 5, served)
        assert np.array_equal(got.values, want.values)


def test_seminorm_regrows_past_a_small_grid_like_a_fresh_build():
    # a precomputed grid smaller than the automatic box is not used; each
    # larger box is tabulated at its own size, as without a grid
    f = ring_poly(np.random.default_rng(39), 1, 8)
    sp = SmoothParams(1.0, 1.0)
    fresh = log_modulus_seminorm(f, sp, LP_MIXED, h_grid=9, shape=(32,))
    small = modulus_grid(f, sp.k, LP_MIXED, (3,), h_grid=9, shape=(32,))
    reused = log_modulus_seminorm(f, sp, LP_MIXED, h_grid=9, shape=(32,), grid=small)
    assert fresh.nu_max[0] > 7  # grew past its starting box
    assert (reused.value, reused.tail_bound, reused.nu_max) == (
        fresh.value, fresh.tail_bound, fresh.nu_max
    )


def test_modulus_grid_structure():
    f = ring_poly(np.random.default_rng(26), 1, 9)
    grid = modulus_grid(f, (1,), L2, nu_max=(4,))
    assert grid.values.shape == tuple(len(tv) for tv in grid.t_values)
    # nested per-level unions make the stored table exactly monotone
    v = grid.values
    assert np.all(v[:-1] >= v[1:] - 0.0)
    # table agrees with the direct computation at its own nodes, indexed by
    # the dyadic level nu (t = t_values[nu - 1])
    for nu in (1, 2, 4):
        t = grid.t_values[0][nu - 1]
        direct = mixed_modulus(f, (t,), (1,), L2, refine=False)
        assert grid.value_at((nu,)) >= direct - 1e-12


def test_modulus_grid_2d_monotone_both_axes():
    f = ring_poly(np.random.default_rng(27), 2, 5)
    grid = modulus_grid(f, (1, 1), L2, nu_max=(3, 3))
    v = grid.values
    assert np.all(v[:-1, :] >= v[1:, :])
    assert np.all(v[:, :-1] >= v[:, 1:])


def test_malformed_nu_max_raises_invalid_params():
    # a one-entry level vector on a 2-D function is a configuration error
    f = tensor(cosine(3), cosine(2))
    with pytest.raises(InvalidParams, match="nu_max"):
        modulus_grid(f, 1, L2, (3,))
    with pytest.raises(InvalidParams, match="nu_max"):
        log_modulus_seminorm(f, SmoothParams(1.0, (0.0, 0.0)), L2, nu_max=(3,))
    grid = modulus_grid(f, 1, L2, (3, 3), h_grid=5)
    with pytest.raises(InvalidParams, match="nu"):
        grid.value_at((1,))
    assert grid.value_at((1, 2)) == grid.values[0, 1]
    # a level below 1 is rejected also when a precomputed grid is passed
    for bad in (0, -1):
        with pytest.raises(InvalidParams, match="nu_max"):
            log_modulus_seminorm(f, SmoothParams(1.0, (0.0, 0.0)), L2, nu_max=bad, grid=grid)


# --- log-weighted seminorm ------------------------------------------------


def test_seminorm_zero_function_is_zero():
    sp = SmoothParams(1.0, 0.0)
    res = log_modulus_seminorm(TrigPoly.zero(1), sp, L2, nu_max=(3,))
    assert res.value == 0.0


def test_seminorm_tail_not_converged_for_tiny_cutoff():
    sp = SmoothParams(1.0, 0.5)
    with pytest.raises(TailNotConverged):
        log_modulus_seminorm(cosine(32), sp, L2, nu_max=(1,))


def test_seminorm_auto_cutoff_converges():
    sp = SmoothParams(1.0, 0.5)
    res = log_modulus_seminorm(cosine(4) + cosine(1), sp, L2)
    assert res.value > 0.0
    assert res.tail_bound <= 0.01 * res.value


def test_seminorm_reuses_precomputed_grid_exactly():
    f = ring_poly(np.random.default_rng(28), 1, 6)
    sp = SmoothParams(2.0, 0.25)
    fresh = log_modulus_seminorm(f, sp, L2, nu_max=(6,))
    grid = modulus_grid(f, sp.k, L2, nu_max=(6,))
    reused = log_modulus_seminorm(f, sp, L2, nu_max=(6,), grid=grid)
    assert reused.value == fresh.value
    assert reused.tail_bound == fresh.tail_bound
    # a grid built at another (p, tau), k or h_grid is refused, not sliced
    for other in (
        modulus_grid(f, sp.k, LP_MIXED, (6,)),
        modulus_grid(f, 2, L2, (6,)),
        modulus_grid(f, sp.k, L2, (6,), h_grid=3),
    ):
        with pytest.raises(InvalidParams, match="grid built at"):
            log_modulus_seminorm(f, sp, L2, nu_max=(6,), grid=other)
        with pytest.raises(InvalidParams, match="grid built at"):
            norm_bold_B(f, L2, sp, nu_max=(6,), grid=other)


def test_seminorm_scales_linearly():
    f = ring_poly(np.random.default_rng(29), 1, 6)
    sp = SmoothParams(2.0, 0.25)
    a = log_modulus_seminorm(f, sp, L2, nu_max=(6,))
    b = log_modulus_seminorm(f * 3.0, sp, L2, nu_max=(6,))
    assert b.value == pytest.approx(3.0 * a.value, rel=1e-10)
