"""Mixed differences, the mixed modulus of smoothness, and its log-weight seminorm.

An order-kappa difference with step h along one axis multiplies the
coefficient at frequency n by (e^{i n h} - 1)^kappa, exactly; mixed
differences multiply the per-axis factors.  The modulus

    omega_k(f, t)_{p,tau} = sup_{0 <= h_j <= t_j} || Delta_h^k f ||_{p,tau}

is approximated by a lattice maximum over h (restricting to h_j >= 0 loses
nothing: reversing a step is a shift plus a sign, and the norm sees neither).

The seminorm discretizes the log-weighted integral of the modulus over
t in (0, 1]^m at dyadic points t = 2^(1-nu): each dyadic cell of the weight
(1 - log t)^(theta b) dt/t integrates to about nu^(theta b), so

    seminorm^theta = sum_{nu in [1, nuMax]^m} prod_j nu_j^(theta b_j)
                     * omega_k(f, 2^(1-nu))^theta

(theta = inf takes the corresponding sup).  The moduli come from one table,
ModulusGrid: each axis merges the h-lattices of all its levels into one union
point set, one batch of difference norms covers the product of those unions,
and the entry at nu is the maximum over the product of the per-axis unions of
the lattices of levels nu' >= nu.  The fold of that table takes its norms
from a callback, so a caller holding norms of earlier batches (verify's
Workspace memo) serves the lattice without evaluating a row twice; a row's
norm has the same bits in any batch, so the table does too.  The
truncation is certified: the derivative bound
omega_k(f, t) <= prod_j t_j^(k_j) ||D^k f|| majorizes every discarded term,
and the majorant's tail is summed explicitly.
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
    _as_int_tuple,
    _grid,
    axis_product,
)
from .lorentz import multiplier_norms, poly_norm

__all__ = [
    "TailNotConverged",
    "ModulusGrid",
    "SeminormResult",
    "derivative",
    "mixed_difference",
    "difference_norms",
    "mixed_modulus",
    "modulus_grid",
    "log_modulus_seminorm",
]


class TailNotConverged(ArithmeticError):
    """Raised when the certified seminorm tail cannot be brought under 1%."""


def _order_tuple(k, dim: int) -> tuple[int, ...]:
    if np.isscalar(k):
        k = (k,) * dim
    k = tuple(int(v) for v in k)
    if len(k) != dim or any(v < 1 for v in k):
        raise InvalidParams(f"difference orders must be positive ints per axis, got {k}")
    return k


def _step_tuple(t, dim: int) -> tuple[float, ...]:
    if np.isscalar(t):
        t = (t,) * dim
    t = tuple(float(v) for v in t)
    if len(t) != dim or any(not (v > 0) for v in t):
        raise InvalidParams(f"steps must be positive per axis, got {t}")
    return t


def _level_tuple(nu_max, dim: int) -> tuple[int, ...]:
    nu_max = _as_int_tuple(nu_max, dim, "nu_max")
    if any(v < 1 for v in nu_max):
        raise InvalidParams(f"nu_max must be >= 1 per axis, got {nu_max}")
    return nu_max


def derivative(f: TrigPoly, alpha) -> TrigPoly:
    """Mixed derivative of order alpha_j >= 0 per axis: multiplier prod (i n_j)^alpha_j."""
    if np.isscalar(alpha):
        alpha = (alpha,) * f.dim
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.dim or any(a < 0 for a in alpha):
        raise InvalidParams(f"derivative orders must be >= 0 per axis, got {alpha}")
    factors = [(1j * f.freqs(axis).astype(np.float64)) ** a for axis, a in enumerate(alpha)]
    return f.apply_multiplier(axis_product(factors))


def _difference_factors(f: TrigPoly, h, k) -> list[np.ndarray]:
    """Per-axis factors (e^{i n h_j} - 1)^(k_j); h of shape (..., dim) gives (..., 2 n_j + 1)."""
    h = np.asarray(h, dtype=np.float64)
    return [
        (np.exp(1j * f.freqs(axis) * h[..., axis, None]) - 1.0) ** kj
        for axis, kj in enumerate(k)
    ]


def mixed_difference(f: TrigPoly, h, k) -> TrigPoly:
    """Mixed difference Delta_h^k f, all axes differenced, in coefficient space."""
    h = tuple(float(v) for v in ((h,) * f.dim if np.isscalar(h) else h))
    k = _order_tuple(k, f.dim)
    if len(h) != f.dim:
        raise InvalidParams(f"step vector {h} does not match dim {f.dim}")
    return f.apply_multiplier(axis_product(_difference_factors(f, h, k)))


def difference_norms(f, h_list, k, lp: LorentzParams, shape=None) -> np.ndarray:
    """Lorentz norms of Delta_h^k f for a stack of step vectors h (rows of h_list)."""
    h_arr = np.atleast_2d(np.asarray(h_list, dtype=np.float64))
    k = _order_tuple(k, f.dim)
    return multiplier_norms(f, _difference_factors(f, h_arr, k), lp, shape)


def _lattice_points(axes: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _step_lattice(t: tuple[float, ...], h_grid: int) -> np.ndarray:
    """Rows of the product lattice of h_grid uniform steps on each [0, t_j]."""
    return _lattice_points([np.linspace(0.0, tj, h_grid) for tj in t])


def mixed_modulus(
    f: TrigPoly, t, k, lp: LorentzParams, h_grid: int = 17, shape=None, refine: bool = True
) -> float:
    """Lattice approximation of the mixed modulus omega_k(f, t)_{p,tau}.

    The sup over the box prod [0, t_j] is evaluated on a uniform lattice with
    h_grid points per axis (endpoints included), then once more on a lattice
    of 2*h_grid - 1 points covering one spacing around the argmax.  The
    result is a certified lower bound of the sup that is exact whenever the
    maximizer sits on the lattice (monotone integrands peak at h = t, which
    the lattice always contains).
    """
    t = _step_tuple(t, f.dim)
    k = _order_tuple(k, f.dim)
    if h_grid < 2:
        raise InvalidParams(f"h_grid must be >= 2, got {h_grid}")
    pts = _step_lattice(t, h_grid)
    norms = difference_norms(f, pts, k, lp, shape)
    best = int(np.argmax(norms))
    value = float(norms[best])
    if refine:
        center = pts[best]
        spacing = [tj / (h_grid - 1) for tj in t]
        fine_axes = [
            np.linspace(
                max(0.0, c - d), min(tj, c + d), 2 * h_grid - 1
            )
            for c, d, tj in zip(center, spacing, t)
        ]
        fine = difference_norms(f, _lattice_points(fine_axes), k, lp, shape)
        value = max(value, float(np.max(fine)))
    return value


@dataclass(frozen=True)
class ModulusGrid:
    """Modulus values on the dyadic step lattice t = 2^(1-nu), nu_j in 1..nu_max_j.

    Each axis has one h-lattice per level: L_j(nu_j) holds h_grid uniform
    points on [0, t_j] while t_j * n_max,j > 1, and only the endpoint {t_j}
    once every coefficient factor |e^{i n h} - 1| is monotone on [0, t_j].
    values[nu_1 - 1, ..., nu_m - 1] is the largest difference norm over the
    product U_1(nu_1) x ... x U_m(nu_m) of per-axis unions
    U_j(nu_j) = union of L_j(nu'_j) over nu'_j >= nu_j, so every entry's
    h-set contains the h-sets of all finer entries and the stored values are
    non-increasing in every nu_j exactly, by construction.  shape is the
    sampling grid of the difference norms.
    """

    p: float
    tau: float
    k: tuple[int, ...]
    h_grid: int
    shape: tuple[int, ...]
    nu_max: tuple[int, ...]
    t_values: tuple[np.ndarray, ...]
    values: np.ndarray

    def value_at(self, nu) -> float:
        nu = _as_int_tuple(nu, len(self.nu_max), "nu")
        if any(v < 1 or v > vm for v, vm in zip(nu, self.nu_max)):
            raise InvalidParams(f"nu {nu} outside stored box {self.nu_max}")
        return float(self.values[tuple(v - 1 for v in nu)])


def _axis_union(t_values: np.ndarray, n_tight: int, h_grid: int):
    """Sorted union of one axis's level lattices, and a (levels, points) mask.

    Row nu - 1 of the mask marks U_j(nu), the points of every level
    nu' >= nu.  Points are compared exactly, so a step shared by two levels
    is evaluated once.
    """
    levels = [
        np.linspace(0.0, tj, h_grid) if tj * max(n_tight, 1) > 1.0
        else np.array([tj])
        for tj in t_values
    ]
    points = np.unique(np.concatenate(levels))
    keep = np.stack([np.isin(points, lv) for lv in levels])
    return points, np.logical_or.accumulate(keep[::-1], axis=0)[::-1]


def modulus_grid(
    f: TrigPoly, k, lp: LorentzParams, nu_max, h_grid: int = 17, shape=None
) -> ModulusGrid:
    """Tabulate the modulus on the dyadic step lattice with exact monotone order.

    One batch of difference norms covers the product of the per-axis union
    lattices; each entry is then a masked maximum of that table, taken axis
    by axis.
    """
    k = _order_tuple(k, f.dim)
    nu_max = _level_tuple(nu_max, f.dim)
    if h_grid < 2:
        raise InvalidParams(f"h_grid must be >= 2, got {h_grid}")
    return _fold_grid(
        f, k, lp, nu_max, h_grid, lambda pts: difference_norms(f, pts, k, lp, shape), shape
    )


def _fold_grid(
    f: TrigPoly, k, lp: LorentzParams, nu_max, h_grid: int, norms_at, shape=None
) -> ModulusGrid:
    """modulus_grid on validated arguments; norms_at(steps) gives the table's norms on shape."""
    t_values = tuple(2.0 ** (1 - np.arange(1, v + 1, dtype=np.float64)) for v in nu_max)
    unions = [
        _axis_union(tv, n, h_grid) for tv, n in zip(t_values, f.tight_degree())
    ]
    norms = norms_at(_lattice_points([pts for pts, _ in unions]))
    values = norms.reshape([pts.size for pts, _ in unions])
    for axis, (_, reach) in enumerate(unions):
        rows = np.moveaxis(values, axis, -1)[..., None, :]
        values = np.moveaxis(np.where(reach, rows, -np.inf).max(axis=-1), -1, axis)
    return ModulusGrid(
        p=lp.p,
        tau=lp.tau,
        k=k,
        h_grid=h_grid,
        shape=_grid(f, shape),
        nu_max=nu_max,
        t_values=t_values,
        values=values,
    )


@dataclass(frozen=True)
class SeminormResult:
    """Seminorm value with its certified truncation bookkeeping."""

    value: float
    tail_bound: float
    nu_max: tuple[int, ...]

    def __float__(self):
        return self.value


def _axis_tail_terms(b: float, k: int, theta: float, start: int, horizon: int = 400):
    """Terms nu^(theta b) * 2^((1-nu) k theta) for nu > start, summed / maxed."""
    nus = np.arange(start + 1, start + horizon + 1, dtype=np.float64)
    return nus ** (theta * b) * 2.0 ** ((1.0 - nus) * k * theta)


def _certified_tail(
    sp: SmoothParams, nu_max: tuple[int, ...], deriv_norm: float
) -> float:
    """Upper bound for the seminorm mass outside the [1, nu_max] box.

    Each discarded term is at most prod_j nu_j^(theta b_j) (2^(1-nu_j) k_j)
    powers times the derivative norm; the majorant factorizes per axis, so
    the box tail is prod(full axis sums) - prod(partial axis sums).
    """
    theta = sp.theta
    if math.isinf(theta):
        sup_inside = []
        sup_outside = []
        for bj, kj, vj in zip(sp.b, sp.k, nu_max):
            nus = np.arange(1, vj + 1, dtype=np.float64)
            inside = nus ** bj * 2.0 ** ((1.0 - nus) * kj)
            sup_inside.append(float(np.max(inside)))
            sup_outside.append(float(np.max(_axis_tail_terms(bj, kj, 1.0, vj))))
        best = 0.0
        dim = len(nu_max)
        for pattern in range(1, 2**dim):
            prod = 1.0
            for j in range(dim):
                prod *= sup_outside[j] if (pattern >> j) & 1 else sup_inside[j]
            best = max(best, prod)
        return deriv_norm * best
    full = []
    part = []
    for bj, kj, vj in zip(sp.b, sp.k, nu_max):
        nus = np.arange(1, vj + 1, dtype=np.float64)
        inside = np.sum(nus ** (theta * bj) * 2.0 ** ((1.0 - nus) * kj * theta))
        outside = np.sum(_axis_tail_terms(bj, kj, theta, vj))
        part.append(float(inside))
        full.append(float(inside + outside))
    tail_theta = (deriv_norm**theta) * (np.prod(full) - np.prod(part))
    return float(max(tail_theta, 0.0) ** (1.0 / theta))


def _weighted_box_value(values: np.ndarray, sp: SmoothParams) -> float:
    theta = sp.theta
    nus = [np.arange(1, v + 1, dtype=np.float64) for v in values.shape]
    if math.isinf(theta):
        weight = axis_product([arr**bj for arr, bj in zip(nus, sp.b)])
        return float(np.max(weight * values))
    acc = axis_product([arr ** (theta * bj) for arr, bj in zip(nus, sp.b)])
    total = float(np.sum(acc * values**theta))
    return total ** (1.0 / theta)


def log_modulus_seminorm(
    f: TrigPoly,
    sp: SmoothParams,
    lp: LorentzParams,
    nu_max=None,
    h_grid: int = 17,
    shape=None,
    grid: ModulusGrid | None = None,
) -> SeminormResult:
    """Discretized log-weighted modulus seminorm with a certified tail.

    nu_max = None picks the truncation automatically: starting a few levels
    past the spectral radius, the box grows until the certified tail stays
    under 1% of the partial value.  A precomputed ModulusGrid can be passed
    to reuse modulus values; it must match (p, tau, k, h_grid) and the
    sampling grid, or InvalidParams is raised.  A box that fits inside it is
    sliced from it, and a larger box is tabulated at exactly its own size.
    """
    if sp.dim != f.dim:
        raise InvalidParams(f"smoothness bundle has {sp.dim} axes, function has {f.dim}")
    if nu_max is not None:
        nu_max = _level_tuple(nu_max, f.dim)
    shape = _grid(f, shape)
    want = (lp.p, lp.tau, sp.k, h_grid, shape)
    built = (grid.p, grid.tau, grid.k, grid.h_grid, grid.shape) if grid is not None else want
    if built != want:
        raise InvalidParams(
            f"grid built at (p, tau, k, h_grid, shape) = {built}, the call asks for {want}"
        )
    deriv_norm = poly_norm(derivative(f, sp.k), lp, shape)
    return _seminorm(
        f, sp, deriv_norm, nu_max, grid,
        lambda box: modulus_grid(f, sp.k, lp, box, h_grid=h_grid, shape=shape),
    )


def _seminorm(
    f: TrigPoly, sp: SmoothParams, deriv_norm: float, nu_max, grid, build
) -> SeminormResult:
    """log_modulus_seminorm given ||D^k f||; nu_max is checked, build(box) tabulates misses."""
    auto = nu_max is None
    box = tuple(max(int(n).bit_length() + 3, 5) for n in f.tight_degree()) if auto else nu_max
    for _ in range(8):
        if grid is None or any(g < v for g, v in zip(grid.nu_max, box)):
            grid = build(box)
        partial = _weighted_box_value(grid.values[tuple(slice(0, v) for v in box)], sp)
        tail = _certified_tail(sp, box, deriv_norm)
        if math.isinf(sp.theta):
            err = max(0.0, tail - partial)
        else:
            err = (partial**sp.theta + tail**sp.theta) ** (1.0 / sp.theta) - partial
        if partial == 0.0:
            ok = tail == 0.0
        else:
            ok = err <= 0.01 * partial
        if ok:
            return SeminormResult(value=partial, tail_bound=tail, nu_max=box)
        if not auto:
            raise TailNotConverged(
                f"certified tail {tail:.3e} exceeds 1% of partial value {partial:.3e} "
                f"at nu_max {box}"
            )
        box = tuple(v + 2 for v in box)
    raise TailNotConverged(
        f"tail still above 1% of the partial value at nu_max {box}; "
        "the modulus decays too slowly for this order k"
    )
