"""Weighted sequence norms, theorem functionals, and the embedding table."""

import math

import numpy as np
import pytest

from mixsmooth.core import InvalidParams, LorentzParams, SmoothParams, TrigPoly, cosine, tensor
from mixsmooth.lorentz import poly_norm
from mixsmooth.seqnorms import (
    ConditionReport,
    embedding_exponents,
    norm_bold_B,
    seq_norm_B,
    theorem1_rhs,
    theorem2_rhs,
    theorem3_norm,
    theorem5_condition,
    theta_sum,
)

from test_spectral import ring_poly

L2 = LorentzParams(2.0, 2.0)
SQ2 = math.sqrt(2.0)


# --- analytic oracle for the convergence test -------------------------------
# the power-form sum converges iff every axis exponent A_j plus the coupling
# exponent B stays below -1; the dyadic form iff every C_j + B stays below 0


def power_sum_converges(b1, b2, tau1, tau2, theta1, theta2):
    if math.isinf(theta1):
        scale = theta2
    else:
        eta = theta1 / theta2
        scale = theta2 * eta / (eta - 1.0)
    A = [(v2 - v1) * scale for v1, v2 in zip(b1, b2)]
    B = (1.0 / tau2 - 1.0 / tau1) * scale
    return all(a + B < -1.0 for a in A)


def dyadic_sum_converges(b1, b2, tau1, tau2, theta1, theta2):
    if math.isinf(theta1):
        scale, inv_t1 = theta2, 0.0
    else:
        eta = theta1 / theta2
        scale, inv_t1 = theta2 * eta / (eta - 1.0), 1.0 / theta1
    C = [(v2 - v1 - inv_t1 + 1.0 / theta2) * scale for v1, v2 in zip(b1, b2)]
    B = (1.0 / tau2 - 1.0 / tau1) * scale
    return all(c + B < 0.0 for c in C)


# --- theta_sum -----------------------------------------------------------


def test_theta_sum_modes():
    assert theta_sum([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-14)
    assert theta_sum([3.0, 4.0], 1.0) == pytest.approx(7.0, rel=1e-14)
    assert theta_sum([3.0, 4.0], math.inf) == 4.0
    assert theta_sum([], 2.0) == 0.0
    assert theta_sum([], math.inf) == 0.0


# --- block sequence norm ------------------------------------------------------


def test_seq_norm_single_tensor_block():
    # cos(3x)cos(3y) sits in block (2,2); weight (2+1)(2+1) = 9, norm 1/2
    f = tensor(cosine(3), cosine(3))
    sp = SmoothParams(1.0, (1.0, 1.0))
    assert seq_norm_B(f, L2, sp) == pytest.approx(4.5, rel=1e-12)


def test_seq_norm_single_frequency_1d():
    sp = SmoothParams(1.0, 1.0)
    assert seq_norm_B(cosine(3), L2, sp) == pytest.approx(3.0 / SQ2, rel=1e-12)


def test_seq_norm_sup_mode():
    # sup over weighted blocks ((s+1)^{1/2} / sqrt2): block 2 wins with sqrt(3/2)
    f = cosine(1) + cosine(3)
    sp = SmoothParams(math.inf, 0.5)
    assert seq_norm_B(f, L2, sp) == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_seq_norm_extra_geometric_weights():
    # block 2 carries 2^(2 r) on top of the polynomial weight
    sp = SmoothParams(1.0, 0.0)
    got = seq_norm_B(cosine(3), L2, sp, r_weights=(1.0,))
    assert got == pytest.approx(4.0 / SQ2, rel=1e-12)
    with pytest.raises(InvalidParams):
        seq_norm_B(cosine(3), L2, sp, r_weights=(1.0, 2.0))


def test_seq_norm_zero():
    assert seq_norm_B(TrigPoly.zero(1), L2, SmoothParams(1.0, 0.5)) == 0.0


# --- theorem right-hand sides ------------------------------------------------


def test_theorem1_rhs_hand_value():
    # cutoffs 0, 1, 2 leave the whole of cos(3x); cutoff 4 removes it
    sp = SmoothParams(1.0, 0.0)
    assert theorem1_rhs(cosine(3), L2, sp) == pytest.approx(3.0 / SQ2, rel=1e-10)


def test_theorem1_rhs_weighted():
    sp = SmoothParams(1.0, 1.0)
    # weights (nu + 1) = 1, 2, 3 on the three surviving cutoffs
    assert theorem1_rhs(cosine(3), L2, sp) == pytest.approx(6.0 / SQ2, rel=1e-10)


def test_theorem2_rhs_hand_value():
    # norm + tails starting at nu = 1 and nu = 2, each the full norm
    sp = SmoothParams(1.0, 0.0)
    assert theorem2_rhs(cosine(3), L2, sp) == pytest.approx(3.0 / SQ2, rel=1e-10)


def test_theorem2_rhs_monotone_in_b():
    f = ring_poly(np.random.default_rng(41), 1, 9)
    vals = [theorem2_rhs(f, L2, SmoothParams(1.0, b)) for b in (-0.25, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_theorem3_norm_hand_values():
    # freq 3 -> block 2 -> group l=1 on either side; group weight 2^(b + 1/theta)
    lp = L2
    f = cosine(3)
    lower0 = theorem3_norm(f, lp, SmoothParams(2.0, 0.0), "lower")
    assert lower0 == pytest.approx(1.0 / SQ2 + 1.0, rel=1e-10)
    lower5 = theorem3_norm(f, lp, SmoothParams(2.0, 0.5), "lower")
    assert lower5 == pytest.approx(3.0 / SQ2, rel=1e-10)
    # both sides agree when group 0 is empty
    upper0 = theorem3_norm(f, lp, SmoothParams(2.0, 0.0), "upper")
    assert upper0 == pytest.approx(lower0, rel=1e-12)


def test_theorem3_sides_differ_on_block_one():
    # freq 1 -> block 1 -> group 0, visible only from the upper origin
    f = cosine(1)
    sp = SmoothParams(2.0, 0.0)
    assert theorem3_norm(f, L2, sp, "lower") == pytest.approx(1.0 / SQ2, rel=1e-12)
    assert theorem3_norm(f, L2, sp, "upper") == pytest.approx(SQ2, rel=1e-12)
    with pytest.raises(InvalidParams):
        theorem3_norm(f, L2, sp, "middle")


def test_group_partition_is_exhaustive():
    from mixsmooth.seqnorms import _group_bounds

    claimed = {}
    for l in range(0, 11):
        lo, hi = _group_bounds(l)
        for s in range(lo, hi + 1):
            assert s not in claimed, f"block {s} claimed twice"
            claimed[s] = l
    assert set(claimed) == set(range(1, 2**10 + 1))


def test_bold_norm_is_norm_plus_seminorm():
    f = cosine(2)
    sp = SmoothParams(1.0, 0.0)
    total = norm_bold_B(f, L2, sp)
    assert total >= poly_norm(f, L2)


# --- embedding exponent table ---------------------------------------------


def test_exponents_low_tau_branch():
    ee = embedding_exponents(LorentzParams(3.0, 1.5), SmoothParams(1.0, 0.0))
    assert ee.covered and ee.beta == 1.5 and ee.gamma == 2.0
    assert ee.v == (1.0,)  # b + 1/min(1.5, 1)
    assert ee.u == (0.5,)  # b + 1/max(2, 1)


def test_exponents_high_tau_branch():
    ee = embedding_exponents(LorentzParams(3.0, 4.0), SmoothParams(1.0, 0.0))
    assert ee.covered and ee.beta == 2.0 and ee.gamma == 4.0


def test_exponents_uncovered_pair():
    ee = embedding_exponents(LorentzParams(1.5, 4.0), SmoothParams(1.0, 0.0))
    assert not ee.covered
    assert "1.5" in ee.reason and "4" in ee.reason
    assert ee.beta is None


def test_exponents_sup_theta():
    ee = embedding_exponents(LorentzParams(3.0, 1.5), SmoothParams(math.inf, 1.0))
    assert ee.covered
    assert ee.v == (1.0 + 1.0 / 1.5,)
    assert ee.u == (1.0,)  # max(gamma, inf) contributes nothing


# --- convergence test ------------------------------------------------------


ORACLE_CASES = [
    # (b1, b2, tau1, tau2, theta1, theta2)
    ((1.0,), (0.0,), 3.0, 1.5, 4.0, 2.0),     # strong decay: converges
    ((0.5,), (0.4,), 2.0, 1.8, 3.0, 1.5),     # weak decay: diverges
    ((1.5, 1.5), (0.0, 0.0), 3.0, 1.5, 4.0, 2.0),
    ((0.2, 0.2), (0.1, 0.1), 2.0, 1.9, 3.0, 2.0),
    ((2.0,), (0.0,), 2.0, 2.0, math.inf, 1.0),  # sup-index source
    ((0.3,), (0.25,), 4.0, 1.2, 2.5, 1.25),
    ((0.78,), (0.0,), 3.0, 1.5, 4.0, 2.0),    # slowly decaying terms
]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_certificate_agrees_with_analytic_oracle_power(case):
    b1, b2, tau1, tau2, theta1, theta2 = case
    want = power_sum_converges(b1, b2, tau1, tau2, theta1, theta2)
    rep = theorem5_condition(b1, b2, tau1, tau2, theta1, theta2)
    assert rep.converges == want


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_certificate_agrees_with_analytic_oracle_dyadic(case):
    b1, b2, tau1, tau2, theta1, theta2 = case
    want = dyadic_sum_converges(b1, b2, tau1, tau2, theta1, theta2)
    rep = theorem5_condition(b1, b2, tau1, tau2, theta1, theta2, dyadic=True)
    assert rep.converges == want


def test_certificate_validates_parameter_order():
    with pytest.raises(InvalidParams):
        theorem5_condition((0.0,), (0.0,), 1.5, 3.0, 4.0, 2.0)  # tau2 > tau1
    with pytest.raises(InvalidParams):
        theorem5_condition((0.0,), (0.0,), 3.0, 1.5, 2.0, 4.0)  # theta2 > theta1
    with pytest.raises(InvalidParams):
        theorem5_condition((0.0, 0.0), (0.0,), 3.0, 1.5, 4.0, 2.0)


def test_report_fields_carry_worst_exponent():
    # theta (4, 2): eta' = 2, scale 4; B = (1/1.5 - 1/3) 4 = 4/3
    rep = theorem5_condition((1.5,), (0.0,), 3.0, 1.5, 4.0, 2.0)
    assert isinstance(rep, ConditionReport)
    assert rep.worst_exponent == pytest.approx(-6.0 + 4.0 / 3.0, abs=1e-12)
    dyad = theorem5_condition((1.5,), (0.0,), 3.0, 1.5, 4.0, 2.0, dyadic=True)
    assert dyad.worst_exponent == pytest.approx(-5.0 + 4.0 / 3.0, abs=1e-12)
    # the slower axis decides
    two = theorem5_condition((1.5, 0.5), (0.0, 0.0), 3.0, 1.5, 4.0, 2.0)
    assert two.worst_exponent == pytest.approx(-2.0 + 4.0 / 3.0, abs=1e-12)
    assert not two.converges


# theta (4, 2) gives scale 4, so shifting b1 by 0.0025 moves every exponent by
# 0.01; the dyadic exponent sits exactly 1 above the power one
BOUNDARY_CASES = [
    # (b1, tau1, tau2, power worst exponent)
    ((0.2525,), 2.0, 2.0, -1.01),
    ((0.2475,), 2.0, 2.0, -0.99),
    ((7.0 / 12.0 + 0.0025,), 3.0, 1.5, -1.01),
    ((7.0 / 12.0 - 0.0025,), 3.0, 1.5, -0.99),
    ((0.2525, 0.2475), 2.0, 2.0, -0.99),
    ((0.2525, 0.2525), 2.0, 2.0, -1.01),
]


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_condition_boundaries_either_side(case):
    b1, tau1, tau2, worst = case
    b2 = (0.0,) * len(b1)
    power = theorem5_condition(b1, b2, tau1, tau2, 4.0, 2.0)
    dyad = theorem5_condition(b1, b2, tau1, tau2, 4.0, 2.0, dyadic=True)
    assert power.worst_exponent == pytest.approx(worst, abs=1e-12)
    assert dyad.worst_exponent == pytest.approx(worst + 1.0, abs=1e-12)
    assert power.converges == (worst < -1.0)
    assert power.converges == power_sum_converges(b1, b2, tau1, tau2, 4.0, 2.0)
    assert dyad.converges == (worst < -1.0)
    assert dyad.converges == dyadic_sum_converges(b1, b2, tau1, tau2, 4.0, 2.0)
