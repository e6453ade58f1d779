"""Weighted sequence norms over dyadic blocks and the theorem-facing functionals.

Everything here reduces a polynomial to scalar sequences (block norms, angle
surrogates at dyadic cutoffs, square-function tails) and combines them with
polynomial weights prod (s_j + 1)^(b_j) through a common theta-sum

    {sum w_s^theta x_s^theta}^(1/theta)        (theta = inf: sup of w_s x_s).

The embedding exponent table and the exact convergence test for the comparison
sums of the embedding theorems (every axis exponent plus the coupling exponent
below -1, or below 0 in dyadic form) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    axis_product,
    validate_params,
)
from .lorentz import multiplier_norms, poly_norm
from .smoothness import ModulusGrid, log_modulus_seminorm
from .spectral import (
    _axis_block_indices,
    _nonzero_rows,
    angle_residual_norms,
    block_norms,
    max_block_index,
    tail_square_norms,
)

__all__ = [
    "UncoveredParams",
    "EmbeddingExponents",
    "ConditionReport",
    "theta_sum",
    "seq_norm_B",
    "norm_bold_B",
    "theorem1_rhs",
    "theorem2_rhs",
    "theorem3_norm",
    "embedding_exponents",
    "theorem5_condition",
]


class UncoveredParams(ValueError):
    """The (p, tau) pair falls outside the proven exponent table."""


def theta_sum(values, theta: float) -> float:
    """{sum v^theta}^(1/theta) over nonnegative weighted values; sup when theta = inf."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    if math.isinf(theta):
        return float(np.max(arr))
    return float(np.sum(arr**theta) ** (1.0 / theta))


def _weighted_theta_sum(terms, sp: SmoothParams, axis_weight, extra=None) -> float:
    # theta-sum of w(i) x over (index vector i, value x) terms, where w(i) is
    # prod_j axis_weight(i_j, b_j), multiplied in axis order, times extra(i)
    weighted = []
    for idx, val in terms:
        w = 1.0
        for ij, bj in zip(idx, sp.b):
            w *= axis_weight(ij, bj)
        if extra is not None:
            w *= extra(idx)
        weighted.append(w * float(val))
    return theta_sum(weighted, sp.theta)


def _log_weight(i: int, b: float) -> float:
    # the axis factor (i + 1)^b of the block and cutoff weights
    return (i + 1.0) ** b


def seq_norm_B(
    f: TrigPoly, lp: LorentzParams, sp: SmoothParams, r_weights=None, shape=None
) -> float:
    """Weighted block-norm sequence norm

        { sum_s prod_j (s_j + 1)^(b_j theta) ||delta_s(f)||^theta }^(1/theta),

    optionally carrying extra geometric weights 2^(<s, r>) per block.
    """
    validate_params(lp, sp, f.dim)
    if r_weights is not None:
        r_weights = tuple(float(v) for v in r_weights)
        if len(r_weights) != f.dim:
            raise InvalidParams(f"r_weights {r_weights} does not match dim {f.dim}")
    return _weighted_block_sum(block_norms(f, lp, shape), sp, r_weights)


def _weighted_block_sum(norms: dict, sp: SmoothParams, r_weights=None) -> float:
    # theta-sum of a {block index: block norm} dict under the seq_norm_B weights
    extra = None if r_weights is None else (
        lambda s: 2.0 ** sum(sj * rj for sj, rj in zip(s, r_weights))
    )
    return _weighted_theta_sum(sorted(norms.items()), sp, _log_weight, extra)


def norm_bold_B(
    f: TrigPoly,
    lp: LorentzParams,
    sp: SmoothParams,
    nu_max=None,
    h_grid: int = 17,
    shape=None,
    grid: ModulusGrid | None = None,
) -> float:
    """Lorentz norm plus the log-weighted modulus seminorm (the bold-class norm)."""
    validate_params(lp, sp, f.dim)
    semi = log_modulus_seminorm(f, sp, lp, nu_max=nu_max, h_grid=h_grid, shape=shape, grid=grid)
    return poly_norm(f, lp, shape) + semi.value


def _dyadic_cutoff(nu: int) -> int:
    # floor(2^(nu - 1)): 0, 1, 2, 4, 8, ... for nu = 0, 1, 2, 3, 4, ...
    return 0 if nu == 0 else 2 ** (nu - 1)


def theorem1_rhs(f: TrigPoly, lp: LorentzParams, sp: SmoothParams, nu_max=None, shape=None) -> float:
    """Weighted theta-sum of angle surrogates at dyadic cutoffs floor(2^(nu-1)).

    Sums nu_j from 0; by default each axis stops once the cutoff swallows the
    spectrum (the surrogate vanishes identically beyond, contributing zero).
    """
    validate_params(lp, sp, f.dim)
    combos, cutoffs = _theorem1_cutoffs(f, nu_max)
    return _theorem1_sum(combos, angle_residual_norms(f, cutoffs, lp, shape), sp)


def _theorem1_cutoffs(f: TrigPoly, nu_max=None) -> tuple[list, list]:
    # the index vectors nu of theorem1_rhs and their cutoff vectors, in order
    tight = f.tight_degree()
    if nu_max is None:
        # per axis, the first nu with floor(2^(nu-1)) >= n kills the residual
        nu_max = tuple(0 if n == 0 else int(n - 1).bit_length() + 1 for n in tight)
    elif np.isscalar(nu_max):
        nu_max = (int(nu_max),) * f.dim
    nu_max = tuple(int(v) for v in nu_max)
    combos = [tuple(int(v) for v in pos) for pos in np.ndindex(*[v + 1 for v in nu_max])]
    cutoffs = [tuple(_dyadic_cutoff(v) for v in nu) for nu in combos]
    return combos, cutoffs


def _theorem1_sum(combos, norms, sp: SmoothParams) -> float:
    # theta-sum of the surrogate norms at combos under weights prod (nu_j + 1)^(b_j)
    return _weighted_theta_sum(zip(combos, norms), sp, _log_weight)


def theorem2_rhs(f: TrigPoly, lp: LorentzParams, sp: SmoothParams, shape=None) -> float:
    """|| f ||_{p,tau} plus the weighted theta-sum of square-function tail norms,
    tails starting at every nu in [1, smax]^m."""
    validate_params(lp, sp, f.dim)
    return _theorem2_sum(poly_norm(f, lp, shape), tail_square_norms(f, lp, shape), sp)


def _theorem2_sum(norm: float, sig: np.ndarray, sp: SmoothParams) -> float:
    # norm plus the theta-sum of the tail table sig under weights prod (nu_j + 1)^(b_j)
    weights = axis_product(
        [(np.arange(1, v + 1, dtype=np.float64) + 1.0) ** bj for v, bj in zip(sig.shape, sp.b)]
    )
    return norm + theta_sum(sig * weights, sp.theta)


def _group_bounds(l: int) -> tuple[int, int]:
    # dyadic-of-dyadic group: block indices s with floor(2^(l-1)) + 1 <= s <= 2^l
    lo = (0 if l == 0 else 2 ** (l - 1)) + 1
    return lo, 2**l


def theorem3_norm(f: TrigPoly, lp: LorentzParams, sp: SmoothParams, side: str, shape=None) -> float:
    """Weighted norm over dyadic groups of dyadic blocks.

    Group l on an axis merges block indices floor(2^(l-1))+1 .. 2^l; the term
    weight is prod_j 2^(l_j (b_j + 1/theta)) and side selects the summation
    origin: "lower" sums l_j from 1, "upper" from 0.  Returns
    || f ||_{p,tau} + the group sum; both comparison displays carry the
    plain norm inside the brace.
    """
    validate_params(lp, sp, f.dim)
    if side not in ("lower", "upper"):
        raise InvalidParams(f"side must be 'lower' or 'upper', got {side}")
    return _theorem3_sum(poly_norm(f, lp, shape), _group_norms(f, lp, side, shape), sp)


def _group_norms(f: TrigPoly, lp: LorentzParams, side: str, shape=None) -> tuple[list, np.ndarray]:
    # the group index vectors l of every nonzero group of theorem3_norm, and their norms
    start = 1 if side == "lower" else 0
    smax = max_block_index(f)
    l_ranges = []
    for m_ax in smax:
        top = start
        while _group_bounds(top)[1] < max(m_ax, 1):
            top += 1
        l_ranges.append(range(start, top + 1))
    tables = []
    for axis, r in enumerate(l_ranges):
        ids = _axis_block_indices(f.freqs(axis))
        tables.append(np.array([(ids >= lo) & (ids <= hi) for lo, hi in map(_group_bounds, r)]))
    pos, masks = _nonzero_rows(f, tables)
    groups = [tuple(r[i] for r, i in zip(l_ranges, p)) for p in pos]
    return groups, multiplier_norms(f, masks, lp, shape)


def _theorem3_sum(norm: float, group_norms: tuple[list, np.ndarray], sp: SmoothParams) -> float:
    # norm plus the theta-sum of the group norms under weights prod 2^(l_j (b_j + 1/theta))
    inv_theta = 0.0 if math.isinf(sp.theta) else 1.0 / sp.theta
    return norm + _weighted_theta_sum(
        zip(*group_norms), sp, lambda lj, bj: 2.0 ** (lj * (bj + inv_theta))
    )


@dataclass(frozen=True)
class EmbeddingExponents:
    """Exponent table output for the two-sided sequence-class embeddings."""

    covered: bool
    reason: str
    beta: float | None = None
    gamma: float | None = None
    v: tuple[float, ...] | None = None
    u: tuple[float, ...] | None = None


def embedding_exponents(lp: LorentzParams, sp: SmoothParams) -> EmbeddingExponents:
    """Exponents (beta, gamma) and shifted weights (v, u) where the two-sided
    block-norm embeddings are proven; uncovered pairs are flagged, never guessed.

    beta = tau and gamma = 2 for 1 < tau <= 2 (any p); beta = 2 and gamma = tau
    for 2 < tau < inf provided 2 < p < inf.  v_j = b_j + 1/min(beta, theta),
    u_j = b_j + 1/max(gamma, theta).
    """
    p, tau = lp.p, lp.tau
    if 1.0 < tau <= 2.0:
        beta, gamma = tau, 2.0
    elif tau > 2.0 and p > 2.0:
        beta, gamma = 2.0, tau
    else:
        return EmbeddingExponents(
            covered=False,
            reason=f"(p, tau) = ({p}, {tau}) outside the proven table "
            "(needs 1 < tau <= 2, or tau > 2 with p > 2)",
        )
    theta = sp.theta
    v = tuple(bj + 1.0 / min(beta, theta) for bj in sp.b)
    u = tuple(bj + (0.0 if math.isinf(max(gamma, theta)) else 1.0 / max(gamma, theta)) for bj in sp.b)
    return EmbeddingExponents(covered=True, reason="", beta=beta, gamma=gamma, v=v, u=u)


@dataclass(frozen=True)
class ConditionReport:
    """Verdict of the exact exponent test for a comparison sum.

    worst_exponent is max_j(A_j + B) for the power form, max_j(C_j + B) for
    the dyadic form: the sum converges iff it lies below -1, respectively 0.
    """

    converges: bool
    worst_exponent: float


def theorem5_condition(
    b1,
    b2,
    tau1: float,
    tau2: float,
    theta1: float,
    theta2: float,
    *,
    dyadic: bool = False,
) -> ConditionReport:
    """Exact convergence test for the embedding comparison sums.

    Power form (default): terms prod_j s_j^(A_j) * (sum_j (s_j + 1))^B over
    s in N^m, with A_j = (b2_j - b1_j) theta2 eta', B = (1/tau2 - 1/tau1)
    theta2 eta', eta = theta1/theta2 and eta' its conjugate.  Dyadic form:
    terms prod_j 2^(l_j C_j) * (sum_j 2^(l_j))^B over l in Z_+^m, with
    C_j = (b2_j - b1_j - 1/theta1 + 1/theta2) theta2 eta'.

    tau2 <= tau1 makes B >= 0, so up to constants the coupling factor is
    max_j s_j^B (dyadic: max_j 2^(l_j B)): at least any one axis's factor, at
    most the sum of them.  Summing axis by axis, the power form converges iff
    every A_j + B < -1 and the dyadic form iff every C_j + B < 0.
    """
    b1 = tuple(float(v) for v in ((b1,) if np.isscalar(b1) else b1))
    b2 = tuple(float(v) for v in ((b2,) if np.isscalar(b2) else b2))
    if len(b1) != len(b2):
        raise InvalidParams("b1 and b2 must have the same number of axes")
    if not (0 < theta2 < theta1):
        raise InvalidParams(f"need 0 < theta2 < theta1, got ({theta1}, {theta2})")
    if not (1.0 <= tau2 <= tau1):
        raise InvalidParams(f"need tau2 <= tau1, got ({tau1}, {tau2})")
    if math.isinf(theta1):
        eta_conj = 1.0
    else:
        eta = theta1 / theta2
        eta_conj = eta / (eta - 1.0)
    scale = theta2 * eta_conj
    b_exp = (1.0 / tau2 - 1.0 / tau1) * scale
    shift, threshold = 0.0, -1.0
    if dyadic:
        inv_t1 = 0.0 if math.isinf(theta1) else 1.0 / theta1
        shift, threshold = 1.0 / theta2 - inv_t1, 0.0
    worst = max((v2 - v1 + shift) * scale for v1, v2 in zip(b1, b2)) + b_exp
    return ConditionReport(converges=worst < threshold, worst_exponent=worst)
