"""Two-index norm of sampled grids and of polynomials, single and batched."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
    axis_product,
    cosine,
    evaluate_coeff_batch,
    evaluate_on_grid,
    tensor,
)
from mixsmooth.lorentz import (
    batch_norms,
    lorentz_norm,
    lorentz_norm_sorted,
    multiplier_norms,
    norm_with_refinement,
    poly_norm,
)
from mixsmooth.smoothness import _difference_factors, derivative
from mixsmooth.spectral import (
    _block_tables,
    _nonzero_rows,
    _residual_masks,
    block_norms,
    tail_square_norms,
)
from mixsmooth.verify import generate_corpus

from test_core import random_poly, record_paths, tensor_member


# --- oracles ------------------------------------------------------------------
# (1) insertion sort, no library calls, for the rearrangement;
# (2) the norm as an explicit sum over rearrangement steps;
# (3) plain discrete L_p quadrature for the tau = p case.


def insertion_sort_desc(values):
    out = list(values)
    for i in range(1, len(out)):
        v = out[i]
        j = i - 1
        while j >= 0 and out[j] < v:
            out[j + 1] = out[j]
            j -= 1
        out[j + 1] = v
    return out


def norm_by_sum(values, p, tau):
    star = insertion_sort_desc([abs(v) for v in values])
    M = len(star)
    total = 0.0
    for i, v in enumerate(star):
        hi = ((i + 1) / M) ** (tau / p)
        lo = (i / M) ** (tau / p)
        total += (v**tau) * (hi - lo)
    return total ** (1.0 / tau)


def lp_quadrature(values, p):
    a = np.abs(np.asarray(values, dtype=float))
    return float(np.mean(a**p) ** (1.0 / p))


# --- rearrangement ---------------------------------------------------------------


def test_rearrangement_matches_insertion_sort():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(40)
    for p, tau in [(3.0, 1.5), (2.0, 2.0), (1.5, 4.0)]:
        lp = LorentzParams(p, tau)
        # one-row input: lorentz_norm_sorted takes the final power on an
        # array, as batch_norms does
        want = lorentz_norm_sorted(np.array([insertion_sort_desc(np.abs(vals))]), lp)[0]
        assert lorentz_norm(vals, lp) == want


def test_rearrangement_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(64)
    perm = rng.permutation(64)
    lp = LorentzParams(3.0, 1.5)
    assert lorentz_norm(vals, lp) == lorentz_norm(vals[perm], lp)
    assert lorentz_norm(vals.reshape(8, 8), lp) == lorentz_norm(vals, lp)


def test_norm_rejects_empty_samples_and_other_types():
    lp = LorentzParams(2.0, 2.0)
    with pytest.raises(InvalidParams):
        lorentz_norm(np.array([]), lp)
    with pytest.raises(InvalidParams):
        lorentz_norm(np.zeros((3, 0)), lp)
    with pytest.raises(InvalidParams):
        lorentz_norm([1.0, 2.0], lp)


def test_norm_of_complex_samples_uses_their_moduli():
    f = TrigPoly.from_entries(2, (2, 1), [((1, 1), 1.0), ((-2, 0), 0.5j)])
    assert not f.real
    lp = LorentzParams(3.0, 1.5)
    samples = evaluate_on_grid(f, (8, 4))
    assert np.iscomplexobj(samples)
    assert lorentz_norm(samples, lp) == lorentz_norm(np.abs(samples), lp)
    assert lorentz_norm(samples, lp) == pytest.approx(poly_norm(f, lp, (8, 4)), rel=1e-13)


def test_polynomial_norm_equals_its_row_in_a_batch_bitwise():
    # the final 1/tau power of a single norm is taken on an array, as in a
    # batch; on a numpy scalar it differs in the last bit on some inputs,
    # e.g. the first case here
    lp = LorentzParams(3.0, 1.5)
    tensor1 = [cf.poly for cf in generate_corpus(7, 2, 8) if cf.fid == "tensor/1"][0]
    rng = np.random.default_rng(14)
    cases = [
        (tensor1, (16, 32)),
        (random_poly(rng, 2, 3), (16, 16)),
        (random_poly(rng, 2, 3, real=False), (16, 8)),
        (cosine(5), (64,)),
    ]
    for f, shape in cases:
        alphas = [(1,) * f.dim, (0,) * f.dim, (2,) * f.dim, (1,) + (0,) * (f.dim - 1)]
        members = [derivative(f, a) for a in alphas]
        batch = np.stack([g.coeffs for g in members])
        norms = batch_norms(evaluate_coeff_batch(f.degree, batch, shape), lp)
        for g, want in zip(members, norms):
            assert lorentz_norm(g, lp, shape) == want
            assert poly_norm(g, lp, shape) == want


# --- norm: closed forms and oracle agreement ----------------------------------


def test_step_sample_hand_value():
    # one cell at height 2 out of four cells, p=2, tau=1:
    # (1/2) * 2 * [(1/4)^(1/2) - 0] * 2 = 1  (all mass in the first step)
    lp = LorentzParams(2.0, 1.0)
    assert lorentz_norm(np.array([2.0, 0.0, 0.0, 0.0]), lp) == pytest.approx(1.0, abs=1e-12)


def test_cosine_l2_norm_is_inverse_sqrt2():
    lp = LorentzParams(2.0, 2.0)
    assert poly_norm(cosine(1), lp) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    # the L_2 norm of a tensor product is the product of the one-axis norms;
    # frozen values of the per-axis path
    assert poly_norm(tensor(cosine(2), cosine(3)), lp) == 0.5
    three = poly_norm(tensor(cosine(1), cosine(2), cosine(3)), lp)
    assert abs(np.float64(three).view(np.int64) - np.float64(2**-1.5).view(np.int64)) <= 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=1.1, max_value=8.0),
)
def test_tau_equals_p_matches_plain_quadrature(seed, p):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(48)
    lp = LorentzParams(p, p)
    got = lorentz_norm(np.abs(vals), lp)
    want = lp_quadrature(vals, p)
    assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=1.1, max_value=6.0),
    tau=st.floats(min_value=1.0, max_value=6.0),
)
def test_norm_matches_stepwise_sum_oracle(seed, p, tau):
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal(24))
    got = lorentz_norm(vals, LorentzParams(p, tau))
    assert got == pytest.approx(norm_by_sum(vals, p, tau), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_positive_homogeneity(seed, scale):
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal(32))
    lp = LorentzParams(2.5, 1.5)
    assert lorentz_norm(vals * scale, lp) == pytest.approx(
        scale * lorentz_norm(vals, lp), rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=1.2, max_value=6.0),
    tau1=st.floats(min_value=1.0, max_value=8.0),
    tau2=st.floats(min_value=1.0, max_value=8.0),
)
def test_tau_monotonicity_with_constant_one(seed, p, tau1, tau2):
    # the smaller second index gives the larger norm, with constant exactly 1
    if tau2 > tau1:
        tau1, tau2 = tau2, tau1
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal(40))
    hi = lorentz_norm(vals, LorentzParams(p, tau2))
    lo = lorentz_norm(vals, LorentzParams(p, tau1))
    assert lo <= hi * (1.0 + 1e-12)


def test_batch_norms_agree_with_singles():
    rng = np.random.default_rng(9)
    block = rng.standard_normal((5, 30))
    lp = LorentzParams(3.0, 1.5)
    got = batch_norms(block, lp)
    want = [lorentz_norm(np.abs(row), lp) for row in block]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    # a row's norm does not depend on the batch it sits in
    for i, row in enumerate(block):
        assert np.array_equal(batch_norms(block[i : i + 1], lp), got[i : i + 1])


def batch_norm_rows(rng):
    """Random signed rows, rows with ties and exact zeros, and an all-zero row."""
    random = rng.standard_normal((3, 64))
    ties = np.round(rng.standard_normal((3, 64)))  # few distinct levels, many zeros
    ties[:, ::5] = 0.0
    ties[1, ::7] = -0.0
    return np.concatenate([random, ties, np.zeros((1, 64))])


@pytest.mark.parametrize("p, tau", [(3.0, 1.5), (2.0, 2.0), (3.0, 3.0), (1.5, 1.0), (2.5, 4.0)])
def test_batch_norms_equal_sorted_reference_bitwise(p, tau):
    rows = batch_norm_rows(np.random.default_rng(int(10 * (p + tau))))
    lp = LorentzParams(p, tau)
    want = lorentz_norm_sorted(np.sort(np.abs(rows), axis=-1)[:, ::-1], lp)
    got = batch_norms(rows, lp)
    assert np.array_equal(got, want)
    assert got[-1] == 0.0


def test_batch_norms_leave_input_unchanged():
    rows = batch_norm_rows(np.random.default_rng(13))
    before = rows.copy()
    batch_norms(rows, LorentzParams(3.0, 1.5))
    assert rows.tobytes() == before.tobytes()
    rearranged = np.ascontiguousarray(np.sort(np.abs(rows), axis=-1)[:, ::-1])
    before = rearranged.copy()
    lorentz_norm_sorted(rearranged, LorentzParams(3.0, 1.5))
    assert rearranged.tobytes() == before.tobytes()


BLAS_THREADS_SCRIPT = """
import numpy as np
from mixsmooth.core import LorentzParams
from mixsmooth.lorentz import batch_norms
rows = np.random.default_rng(0).standard_normal((3, 65536))
print(batch_norms(rows, LorentzParams(3.0, 1.5)).tobytes().hex())
"""


def test_batch_norms_do_not_depend_on_blas_threads():
    # OpenBLAS splits dot products of rows above 10,000 points across its
    # threads; the row sums must not go through it
    src = str(Path(lorentz.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        out.append(run.stdout)
    assert out[0] == out[1]


def test_lorentz_norm_accepts_polynomials_and_samples():
    f = tensor(cosine(2), cosine(3))
    lp = LorentzParams(2.0, 2.0)
    direct = poly_norm(f, lp)
    assert lorentz_norm(f, lp) == pytest.approx(direct, rel=1e-14)
    assert direct == pytest.approx(0.5, abs=1e-12)  # product of two 1/sqrt(2)


def test_norm_with_refinement_reports_small_delta():
    f = cosine(5)
    value, delta = norm_with_refinement(f, LorentzParams(2.0, 2.0))
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert delta <= 1e-12


def test_sorted_norm_rejects_nothing_but_handles_zero():
    lp = LorentzParams(2.0, 1.0)
    assert lorentz_norm_sorted(np.zeros(8), lp) == 0.0
    assert lorentz_norm(TrigPoly.zero(1), lp) == 0.0


# --- tensor-multiplier pipeline -------------------------------------------------


def _multiplier_case(rng, f, rows=7):
    """Complex row stack on axis 0, a shared real factor on axis 1."""
    n0, n1 = f.coeffs.shape
    stack = rng.standard_normal((rows, n0)) + 1j * rng.standard_normal((rows, n0))
    return [stack, rng.standard_normal(n1)]


def record_samples(monkeypatch):
    """Patch lorentz.evaluate_coeff_batch to keep the samples of every chunk."""
    evaluate = lorentz.evaluate_coeff_batch
    samples = []

    def recording(degree, batch, grid):
        samples.append(evaluate(degree, batch, grid))
        return samples[-1]

    monkeypatch.setattr(lorentz, "evaluate_coeff_batch", recording)
    return samples


@pytest.mark.parametrize("zero", [False, True])
def test_multiplier_norms_match_single_polynomial_norms(zero):
    rng = np.random.default_rng(21)
    f = TrigPoly.zero(2, (3, 2)) if zero else random_poly(rng, 2, 3)
    factors = _multiplier_case(rng, f)
    lp = LorentzParams(3.0, 1.5)
    shape = (16, 16)
    got = multiplier_norms(f, factors, lp, shape)
    mults = axis_product(factors)
    want = [poly_norm(f.apply_multiplier(m), lp, shape) for m in mults]
    assert got.shape == (len(mults),)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if zero:
        assert np.all(got == 0.0)


def test_multiplier_norms_chunking_keeps_samples_bitwise(monkeypatch):
    rng = np.random.default_rng(22)
    f = random_poly(rng, 2, 3)
    factors = _multiplier_case(rng, f)
    lp = LorentzParams(3.0, 1.5)
    shape = (16, 16)
    samples = record_samples(monkeypatch)
    whole = multiplier_norms(f, factors, lp, shape)
    assert [len(s) for s in samples] == [7]
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 2 * 16 * 16 * 16)
    chunked = multiplier_norms(f, factors, lp, shape)
    assert [len(s) for s in samples[1:]] == [2, 2, 2, 1]
    assert np.array_equal(np.concatenate(samples[1:]), samples[0])
    assert np.array_equal(chunked, whole)


def test_hermitian_multiplier_chunking_keeps_samples_and_norms_bitwise(monkeypatch):
    # conjugate-symmetric rows on axis 0 and an even factor on axis 1 keep
    # every batch of the real f Hermitian, so the real-input transform runs
    rng = np.random.default_rng(23)
    f = random_poly(rng, 2, 3)
    stack, shared = _multiplier_case(rng, f)
    stack = stack + np.conj(stack[:, ::-1])
    shared = shared + shared[::-1]
    lp = LorentzParams(3.0, 1.5)
    shape = (16, 16)
    samples = record_samples(monkeypatch)
    paths = record_paths(monkeypatch)
    whole = multiplier_norms(f, [stack, shared], lp, shape)
    assert [len(s) for s in samples] == [7]
    singles = [multiplier_norms(f, [stack[b : b + 1], shared], lp, shape) for b in range(7)]
    for b, single in enumerate(singles):
        assert np.array_equal(samples[1 + b], samples[0][b : b + 1])
        assert np.array_equal(single, whole[b : b + 1])
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 2 * 16 * 16 * 16)
    chunked = multiplier_norms(f, [stack, shared], lp, shape)
    assert [len(s) for s in samples[8:]] == [2, 2, 2, 1]
    assert np.array_equal(np.concatenate(samples[8:]), samples[0])
    assert np.array_equal(chunked, whole)
    assert paths == [True] * 12


def test_all_zero_rows_are_not_sampled_and_norm_to_plus_zero(monkeypatch):
    # difference steps with some h_j = 0 make (e^{i n 0} - 1)^k = 0, and
    # cutoffs at or past the tight degree leave no residual spectrum
    rng = np.random.default_rng(24)
    f = random_poly(rng, 2, (3, 4))
    lp = LorentzParams(3.0, 1.5)
    shape = (16, 16)
    h = rng.uniform(0.1, 2.0 * np.pi, size=(9, 2))
    h[[1, 2, 3, 6], 0] = 0.0
    h[[3, 7], 1] = 0.0
    cutoffs = np.array([[0, 0], [3, 1], [5, 9], [1, 2], [np.inf, 0], [2, 4]])
    cases = [
        (_difference_factors(f, h, (1, 2)), {1, 2, 3, 6, 7}),
        (_residual_masks(f, cutoffs), {1, 2, 4, 5}),
    ]
    for factors, zero_rows in cases:
        mults = axis_product(factors)
        want = [poly_norm(f.apply_multiplier(m), lp, shape) for m in mults]
        for chunk_rows in (None, 2):
            if chunk_rows:
                monkeypatch.setattr(lorentz, "_CHUNK_BYTES", chunk_rows * 16 * 16 * 16)
            batches = []
            evaluate = lorentz.evaluate_coeff_batch

            def recording(degree, batch, grid):
                batches.append(batch.copy())
                return evaluate(degree, batch, grid)

            monkeypatch.setattr(lorentz, "evaluate_coeff_batch", recording)
            got = multiplier_norms(f, factors, lp, shape)
            monkeypatch.undo()
            assert np.array_equal(got, want)
            assert {b for b, m in enumerate(mults) if not np.any(f.coeffs * m)} == zero_rows
            for b in zero_rows:
                assert got[b] == 0.0 and not np.signbit(got[b])
            sampled = np.concatenate(batches)
            assert len(sampled) == len(mults) - len(zero_rows)
            assert all(np.any(row) for row in sampled)
            if chunk_rows:
                # a chunk whose rows are all zero is skipped
                kept = {b // chunk_rows for b in range(len(mults)) if b not in zero_rows}
                assert len(batches) == len(kept)


# --- tensor members, one axis at a time --------------------------------------

# Sampling axis by axis forms |g_1|^tau * ... * |g_m|^tau in place of
# |g_1 * ... * g_m|^tau from an m-dimensional transform: the same norms up to
# rounding, which this bound on the distance in float64 steps states.
MAX_ULPS = 8


def assert_within_ulps(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.all(got >= 0.0) and np.all(want >= 0.0)
    assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= MAX_ULPS)


def factorless(f):
    """The same coefficients without factors: the m-dimensional path."""
    return TrigPoly(f.dim, f.degree, f.coeffs)


def record_batches(monkeypatch):
    """Patch lorentz.evaluate_coeff_batch to keep (degree, batch) of every call."""
    evaluate = lorentz.evaluate_coeff_batch
    batches = []

    def recording(degree, batch, grid):
        batches.append((tuple(degree), batch.copy()))
        return evaluate(degree, batch, grid)

    monkeypatch.setattr(lorentz, "evaluate_coeff_batch", recording)
    return batches


TENSOR_CASES = [((5, 3), (16, 16)), ((3, 2, 4), (16, 8, 16))]


@pytest.mark.parametrize("degrees, shape", TENSOR_CASES)
@pytest.mark.parametrize("complex_axis", [None, 1])
def test_tensor_members_agree_with_the_dense_path(monkeypatch, degrees, shape, complex_axis):
    rng = np.random.default_rng(51 + len(degrees))
    f, _ = tensor_member(rng, degrees, complex_axis)
    dense = factorless(f)
    dim = f.dim
    h = rng.uniform(0.1, 2.0 * np.pi, size=(9, dim))
    h[[1, 4], 0] = 0.0  # zero difference factors on axis 0
    cutoffs = np.array([[0] * dim, [1] * dim, [2, np.inf] + [0] * (dim - 2), [9] * dim])
    _, blocks = _nonzero_rows(f, _block_tables(f))
    stacks = {
        "blocks": blocks,
        "residuals": _residual_masks(f, cutoffs),  # cutoff 9 leaves no residual
        "differences": _difference_factors(f, h, (1, 2) + (1,) * (dim - 2)),
    }
    batches = record_batches(monkeypatch)
    for p, tau in [(3.0, 1.5), (2.0, 2.0), (3.0, 3.0), (1.5, 4.0)]:
        lp = LorentzParams(p, tau)
        for name, factors in stacks.items():
            got = multiplier_norms(f, factors, lp, shape)
            want = multiplier_norms(dense, factors, lp, shape)
            assert_within_ulps(got, want)
            assert np.array_equal(got == 0.0, want == 0.0) and not np.any(np.signbit(got))
        assert_within_ulps(poly_norm(f, lp, shape), poly_norm(dense, lp, shape))
    zero = multiplier_norms(f, stacks["differences"], LorentzParams(3.0, 1.5), shape)
    assert np.all(zero[[1, 4]] == 0.0) and np.all(zero[[0, 2, 3]] > 0.0)
    # the tensor member was sampled by one-axis transforms only, and no
    # transform on either path got an all-zero row
    assert {len(d) for d, _ in batches} == {1, dim}
    assert all(np.any(row) for _, batch in batches for row in batch)


@pytest.mark.parametrize(
    "lp", [LorentzParams(3.0, 1.5), LorentzParams(3.0, 3.0)], ids=["p3-tau1.5", "p3-tau3"]
)
def test_tensor_member_chunking_keeps_powered_rows_bitwise(monkeypatch, lp):
    rng = np.random.default_rng(52)
    f, _ = tensor_member(rng, (3, 3), complex_axis=0)
    factors = _multiplier_case(rng, f)
    shape = (16, 16)
    # at tau = p the rows reduce by per-axis means, with no powered outer product
    powered = lp.tau != lp.p
    reduce, rows = lorentz._reduce_powered, []

    def recording(arr, lp):
        rows.append(arr.copy())
        return reduce(arr, lp)

    monkeypatch.setattr(lorentz, "_reduce_powered", recording)
    whole = multiplier_norms(f, factors, lp, shape)
    assert [len(r) for r in rows] == ([7] if powered else [])
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 2 * 16 * 16 * 16)
    chunked = multiplier_norms(f, factors, lp, shape)
    assert [len(r) for r in rows[1:]] == ([2, 2, 2, 1] if powered else [])
    if powered:
        assert np.array_equal(np.concatenate(rows[1:]), rows[0])
    assert np.array_equal(chunked, whole)
    # and each row alone
    alone = [multiplier_norms(f, [row[None], factors[1]], lp, shape)[0] for row in factors[0]]
    assert np.array_equal(alone, whole)


def count_outer_products(monkeypatch):
    """Patch lorentz.axis_product and lorentz._reduce_powered to count their calls."""
    calls = {"axis_product": 0, "_reduce_powered": 0}

    def counting(name):
        inner = getattr(lorentz, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(lorentz, name, wrapper)

    for name in calls:
        counting(name)
    return calls


@pytest.mark.parametrize("degrees, shape", TENSOR_CASES)
def test_tensor_members_at_tau_equal_p_form_no_outer_product(monkeypatch, degrees, shape):
    rng = np.random.default_rng(53 + len(degrees))
    f, _ = tensor_member(rng, degrees, complex_axis=1)
    h = rng.uniform(0.1, 2.0 * np.pi, size=(5, f.dim))
    factors = _difference_factors(f, h, (1,) * f.dim)
    _, blocks = _nonzero_rows(f, _block_tables(f))
    calls = count_outer_products(monkeypatch)
    for lp in (LorentzParams(2.0, 2.0), LorentzParams(3.0, 3.0)):
        multiplier_norms(f, factors, lp, shape)
        multiplier_norms(f, blocks, lp, shape)
        poly_norm(f, lp, shape)
    assert calls == {"axis_product": 0, "_reduce_powered": 0}
    # the counters do count: tau != p forms and sorts the outer products
    multiplier_norms(f, factors, LorentzParams(3.0, 1.5), shape)
    assert calls["axis_product"] > 0 and calls["_reduce_powered"] > 0


# --- tensor rows that sort their distinct products ---------------------------
# On a large grid a tensor row whose per-axis samples repeat sorts only the
# products of its distinct values and repeats each by its multiplicity; the
# sorted row, and so the norm, has the bits of the full sort.


def full_sort_norms(tables, lp):
    """The reference: every row's whole outer product, negated and sorted."""
    outer = axis_product([t.copy() for t in tables])  # at m = 1 it is the table itself
    return lorentz._reduce_powered(outer.reshape(len(outer), -1), lp)


def record_outer_paths(monkeypatch):
    """Count the tensor rows reduced by the full sort and by their distinct products."""
    rows = {"full": 0, "distinct": 0}
    reduce, expand = lorentz._reduce_powered, lorentz._sorted_distinct

    def full(arr, lp):
        rows["full"] += len(arr)
        return reduce(arr, lp)

    def distinct(axes):
        rows["distinct"] += 1
        return expand(axes)

    monkeypatch.setattr(lorentz, "_reduce_powered", full)
    monkeypatch.setattr(lorentz, "_sorted_distinct", distinct)
    return rows


@pytest.mark.parametrize("shape", [(2**14,), (128, 128), (32, 32, 16)], ids=["m1", "m2", "m3"])
def test_tensor_rows_sort_distinct_products_with_the_full_sort_bits(monkeypatch, shape):
    rng = np.random.default_rng(54 + len(shape))
    lp = LorentzParams(3.0, 1.5)
    size = math.prod(shape)
    # rows 0-3 repeat five values per axis, row 2 is all zero on the last
    # axis, and rows 4-5 are all distinct, so they keep the full sort
    tables = [
        np.concatenate([rng.choice(rng.uniform(0.0, 2.0, 5), (4, N)), rng.uniform(size=(2, N))])
        for N in shape
    ]
    tables[-1][2] = 0.0
    want = full_sort_norms(tables, lp)
    rows = record_outer_paths(monkeypatch)
    whole = lorentz._outer_norms([t.copy() for t in tables], lp)
    assert rows == {"full": 2, "distinct": 4}
    assert whole.tobytes() == want.tobytes()
    assert whole[2] == 0.0
    # one row per chunk, and each row alone
    monkeypatch.setattr(lorentz, "_CHUNK_BYTES", 16 * size)
    chunked = lorentz._outer_norms([t.copy() for t in tables], lp)
    alone = [lorentz._outer_norms([t[b : b + 1].copy() for t in tables], lp) for b in range(6)]
    assert rows == {"full": 6, "distinct": 12}
    assert chunked.tobytes() == whole.tobytes() == np.concatenate(alone).tobytes()


def check_outer_norms(monkeypatch):
    """Patch every binding of _outer_norms to compare each result with full_sort_norms."""
    outer = lorentz._outer_norms

    def checked(tables, lp):
        want = full_sort_norms(tables, lp)
        got = outer(tables, lp)
        assert got.tobytes() == want.tobytes()
        return got

    monkeypatch.setattr(lorentz, "_outer_norms", checked)
    monkeypatch.setattr(spectral, "_outer_norms", checked)


def test_deg32_corpus_tensor_members_keep_the_full_sort_bits(monkeypatch):
    # the difference images, blocks (multiplier_norms of the block masks) and
    # tails of lacunary and single-block members repeat their one-axis
    # samples on 256 points; on 16^2 every row keeps the full sort
    corpus = {cf.fid: cf.poly for cf in generate_corpus(7, 2, 32)}
    lp = LorentzParams(3.0, 1.5)
    rng = np.random.default_rng(57)
    check_outer_norms(monkeypatch)
    rows = record_outer_paths(monkeypatch)
    cases = [("lacunary/0", (256, 256)), ("single_block/2", (256, 256)), ("single_block/1", (16, 16))]
    for fid, shape in cases:
        f = corpus[fid]
        assert f.factors is not None
        h = rng.uniform(0.05, 1.0, size=(4, 2))
        multiplier_norms(f, _difference_factors(f, h, (1, 1)), lp, shape)
        block_norms(f, lp, shape)
        tail_square_norms(f, lp, shape)
        if shape == (16, 16):
            assert rows["distinct"] == 0 and rows["full"] > 0
        else:
            assert rows["distinct"] > 0
        rows.update(full=0, distinct=0)


def test_negated_step_weights_are_cached_read_only(monkeypatch):
    step_weights = lorentz._step_weights
    calls = []

    def counting(size, lp):
        calls.append((size, lp.p, lp.tau))
        return step_weights(size, lp)

    monkeypatch.setattr(lorentz, "_step_weights", counting)
    lorentz._negated_step_weights.cache_clear()
    rng = np.random.default_rng(25)
    rows = {size: rng.standard_normal((3, size)) for size in (64, 256)}
    pairs = [LorentzParams(3.0, 1.5), LorentzParams(2.0, 2.0), LorentzParams(3, 1.5)]
    for _ in range(3):
        for lp in pairs:
            for size, values in rows.items():
                batch_norms(values, lp)
    assert sorted(calls) == sorted({(s, lp.p, lp.tau) for s in rows for lp in pairs})
    assert len(calls) == 4
    for size in rows:
        for lp in pairs:
            w = lorentz._negated_step_weights(size, lp)
            assert not w.flags.writeable
            assert np.array_equal(w, -step_weights(size, lp))
    assert lorentz._negated_step_weights.cache_info().maxsize is not None
    lorentz._negated_step_weights.cache_clear()


# --- closed forms at tau = p ------------------------------------------------------

# At tau = p the norm is a plain L_p mean: dense rows are reduced by their
# mean with no sort, and at p = tau = 2 every row is read off its coefficients
# (discrete Parseval), with no transform.  Both round differently from the
# sampled and sorted reduction, by a few ulps.

TAU_EQUAL_P = [LorentzParams(2.0, 2.0), LorentzParams(3.0, 3.0), LorentzParams(1.5, 1.5)]
L2 = LorentzParams(2.0, 2.0)


def sampled_and_sorted(f, factors, lp, shape):
    """Rows f.coeffs * axis_product(factors) sampled on shape and sorted by batch_norms."""
    rows = f.coeffs * axis_product([np.atleast_2d(fac) for fac in factors])
    return batch_norms(evaluate_coeff_batch(f.degree, rows, shape), lp)


def closed_form_cases():
    """(name, f, shape): dense real and complex members, m = 2 and 3 tensor members."""
    rng = np.random.default_rng(61)
    m2, _ = tensor_member(rng, (5, 3), complex_axis=1)
    m3, _ = tensor_member(rng, (3, 2, 4), complex_axis=0)
    return [
        ("dense-real", random_poly(rng, 2, (4, 3)), (16, 8)),
        ("dense-complex", random_poly(rng, 2, (3, 4), real=False), (8, 16)),
        ("tensor-m2", m2, (16, 16)),
        ("tensor-m3", m3, (16, 8, 16)),
    ]


CLOSED_FORM_CASES = closed_form_cases()
CLOSED_FORM_IDS = [name for name, _, _ in CLOSED_FORM_CASES]


def multiplier_stacks(f):
    """Difference, block and residual stacks of f, each with all-zero rows."""
    rng = np.random.default_rng(62 + f.dim)
    dim = f.dim
    h = rng.uniform(0.1, 2.0 * np.pi, size=(7, dim))
    h[[1, 4], 0] = 0.0
    cutoffs = np.array([[0] * dim, [1] * dim, [2, np.inf] + [0] * (dim - 2), [9] * dim])
    _, blocks = _nonzero_rows(f, _block_tables(f))
    blocks = [np.concatenate([b, np.zeros_like(b[:1])]) for b in blocks]  # an empty mask
    return {
        "differences": (_difference_factors(f, h, (1,) * dim), {1, 4}),
        "blocks": (blocks, {len(blocks[0]) - 1}),
        # a cutoff of inf or 9 leaves no residual
        "residuals": (_residual_masks(f, cutoffs), {2, 3}),
    }


@pytest.mark.parametrize("name, f, shape", CLOSED_FORM_CASES, ids=CLOSED_FORM_IDS)
@pytest.mark.parametrize("lp", TAU_EQUAL_P, ids=["p2", "p3", "p1.5"])
def test_tau_equal_p_agrees_with_sampled_and_sorted_norms(name, f, shape, lp):
    for stack, (factors, zero_rows) in multiplier_stacks(f).items():
        got = multiplier_norms(f, factors, lp, shape)
        assert_within_ulps(got, sampled_and_sorted(f, factors, lp, shape))
        assert {b for b in range(len(got)) if got[b] == 0.0} == zero_rows, stack
        assert not np.any(np.signbit(got))
    ones = [np.ones(2 * n + 1) for n in f.degree]
    assert_within_ulps(poly_norm(f, lp, shape), sampled_and_sorted(f, ones, lp, shape)[0])


def count_calls(monkeypatch, *names):
    """Patch the named lorentz functions to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(lorentz, name)

        def wrapper(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(lorentz, name, wrapper)
    return calls


@pytest.mark.parametrize("name, f, shape", CLOSED_FORM_CASES, ids=CLOSED_FORM_IDS)
def test_l2_norms_sample_nothing_and_dense_tau_equal_p_sorts_nothing(monkeypatch, name, f, shape):
    stacks = [factors for factors, _ in multiplier_stacks(f).values()]
    calls = count_calls(monkeypatch, "evaluate_coeff_batch", "_reduce_powered")
    for factors in stacks:
        multiplier_norms(f, factors, L2, shape)
    poly_norm(f, L2, shape)
    norm_with_refinement(f, L2, shape)
    assert calls["evaluate_coeff_batch"] == 0
    if f.factors is None:
        for factors in stacks:
            multiplier_norms(f, factors, LorentzParams(3.0, 3.0), shape)
        poly_norm(f, LorentzParams(3.0, 3.0), shape)
        assert calls["_reduce_powered"] == 0 and calls["evaluate_coeff_batch"] > 0
    # the counters do count: tau != p samples and sorts
    multiplier_norms(f, stacks[0], LorentzParams(3.0, 1.5), shape)
    assert calls["evaluate_coeff_batch"] > 0 and calls["_reduce_powered"] > 0


@pytest.mark.parametrize("name, f, shape", CLOSED_FORM_CASES, ids=CLOSED_FORM_IDS)
def test_l2_rows_keep_their_bits_alone_in_a_batch_and_in_chunks(monkeypatch, name, f, shape):
    for factors, _ in multiplier_stacks(f).values():
        whole = multiplier_norms(f, factors, L2, shape)
        count = len(whole)
        rows = [np.broadcast_to(np.atleast_2d(fac), (count, fac.shape[-1])) for fac in factors]
        alone = [multiplier_norms(f, [r[b] for r in rows], L2, shape)[0] for b in range(count)]
        assert np.array_equal(alone, whole)
        with monkeypatch.context() as patch:
            box = int(np.prod(f.coeffs.shape))
            patch.setattr(lorentz, "_CHUNK_BYTES", 2 * 16 * box)
            assert lorentz._chunk_rows(f.coeffs.shape) == 2
            assert np.array_equal(multiplier_norms(f, factors, L2, shape), whole)
    # a polynomial's norm is the norm of its row with unit factors
    ones = [np.ones(2 * n + 1) for n in f.degree]
    for lp in (L2, LorentzParams(3.0, 3.0)):
        assert poly_norm(f, lp, shape) == multiplier_norms(f, ones, lp, shape)[0]


@pytest.mark.parametrize("name, f, shape", CLOSED_FORM_CASES, ids=CLOSED_FORM_IDS)
def test_l2_norm_with_refinement_has_zero_delta(name, f, shape):
    value, delta = norm_with_refinement(f, L2, shape)
    assert delta == 0.0
    assert value == poly_norm(f, L2, shape)


@pytest.mark.parametrize("name, f, shape", CLOSED_FORM_CASES, ids=CLOSED_FORM_IDS)
def test_every_path_rejects_a_too_coarse_grid_with_one_message(name, f, shape):
    coarse = (2 * f.degree[0],) + shape[1:]  # axis 0 needs 2 n_0 + 1 points
    want = f"grid {coarse} cannot resolve degree {f.degree}: need N_j >= 2*n_j+1"
    with pytest.raises(GridTooCoarse) as sampled:
        evaluate_coeff_batch(f.degree, f.coeffs[None], coarse)
    assert str(sampled.value) == want
    factors, _ = multiplier_stacks(f)["differences"]
    zero = [np.zeros_like(np.atleast_2d(fac)) for fac in factors]  # samples nothing
    for lp in TAU_EQUAL_P + [LorentzParams(3.0, 1.5)]:
        # every caller of core._grid, on every (p, tau) path
        calls = {
            "poly_norm": lambda grid: poly_norm(f, lp, grid),
            "multiplier_norms": lambda grid: multiplier_norms(f, factors, lp, grid),
            "multiplier_norms zero rows": lambda grid: multiplier_norms(f, zero, lp, grid),
            "tail_square_norms": lambda grid: tail_square_norms(f, lp, grid),
            "norm_with_refinement": lambda grid: norm_with_refinement(f, lp, grid),
            "evaluate_on_grid": lambda grid: evaluate_on_grid(f, grid),
        }
        for caller, call in calls.items():
            with pytest.raises(GridTooCoarse) as exc:
                call(coarse)
            assert str(exc.value) == want, caller
            # one entry short of one per axis
            with pytest.raises(InvalidParams, match="shape must have one entry per axis"):
                call(shape[:-1])
