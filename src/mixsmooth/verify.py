"""Ratio-verification harness: seeded corpus, registered checks, reports.

Every named check compares a left-hand quantity against a right-hand bound or
equivalent over a deterministic corpus and reports the per-function ratios.
Two-sided equivalences should show ratios trapped in a stable window; one
sided bounds should show a finite corpus max that does not blow up when the
corpus degrees double.  Windows are configuration loaded from a frozen
reference run, not constants in code; the doubling probe guards against
windows that only look stable at one scale.

Ratio bookkeeping: 0/0 entries are excluded from the statistics and counted,
and any nonzero/zero entry fails the check outright.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import os
import threading
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .approx import kernel_residual_norm
from .core import (
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    _pow2_grid,
    cosine,
    tensor,
    validate_params,
)
from .lorentz import poly_norm
from .seqnorms import (
    EmbeddingExponents,
    UncoveredParams,
    _group_norms,
    _theorem1_cutoffs,
    _theorem1_sum,
    _theorem2_sum,
    _theorem3_sum,
    _weighted_block_sum,
    embedding_exponents,
    theorem5_condition,
)
from .smoothness import (
    ModulusGrid,
    _fold_grid,
    _seminorm,
    _step_lattice,
    derivative,
    difference_norms,
)
from .spectral import angle_residual_norms, block_norms, tail_square_norms

__all__ = [
    "UnknownCheck",
    "CHECK_NAMES",
    "CorpusFunction",
    "Corpus",
    "VerifyConfig",
    "RatioRow",
    "RatioReport",
    "generate_corpus",
    "lacunary",
    "random_decay_poly",
    "run_check",
    "check_sided",
    "Workspace",
    "load_golden_windows",
    "default_threads",
    "parallel_map",
]

class UnknownCheck(ValueError):
    """Raised for a check name outside the registry."""


def default_threads() -> int:
    env = os.environ.get("MIXSMOOTH_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; thread pool only when threads > 1.

    Reduction order is by input index regardless of completion order, so
    reports do not depend on the thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusFunction:
    fid: str
    family: str
    poly: TrigPoly


@dataclass(frozen=True)
class Corpus:
    seed: int
    dim: int
    max_degree: int
    functions: tuple[CorpusFunction, ...]
    families: tuple[str, ...]

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)


def lacunary(rho: float, smax: int) -> TrigPoly:
    """Lacunary cosine sum: sum_{s=0}^{smax} 2^(-rho s) cos(2^s y)."""
    if smax < 0:
        raise InvalidParams(f"smax must be >= 0, got {smax}")
    total = cosine(1, amplitude=1.0)
    for s in range(1, smax + 1):
        total = total + cosine(2**s, amplitude=2.0 ** (-rho * s))
    return total


def random_decay_poly(rng: np.random.Generator, dim: int, max_degree: int, decay: float) -> TrigPoly:
    """Random real polynomial, zero axis means, |a_k| ~ prod |k_j|^(-decay)."""
    n = int(max_degree)
    if dim == 1:
        coeffs = np.zeros(2 * n + 1, dtype=np.complex128)
        for k in range(1, n + 1):
            z = (rng.standard_normal() + 1j * rng.standard_normal()) * k ** (-decay)
            coeffs[n + k] = z
            coeffs[n - k] = np.conj(z)
        return TrigPoly(1, n, coeffs, real=True, allow_large=True)
    if dim == 2:
        coeffs = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.complex128)
        for k1 in range(1, n + 1):
            for k2 in range(1, n + 1):
                w = (k1 * k2) ** (-decay)
                z1 = (rng.standard_normal() + 1j * rng.standard_normal()) * w
                z2 = (rng.standard_normal() + 1j * rng.standard_normal()) * w
                coeffs[n + k1, n + k2] = z1
                coeffs[n - k1, n - k2] = np.conj(z1)
                coeffs[n + k1, n - k2] = z2
                coeffs[n - k1, n + k2] = np.conj(z2)
        return TrigPoly(2, (n, n), coeffs, real=True, allow_large=True)
    # dim >= 3: tensor a fresh 1-d draw per axis (keeps the spectrum a full box)
    parts = [random_decay_poly(rng, 1, max_degree, decay) for _ in range(dim)]
    return tensor(*parts)


def _random_block_frequency(rng: np.random.Generator, s: int, max_degree: int) -> int:
    lo = 2 ** (s - 1)
    hi = min(2**s - 1, max_degree)
    return int(rng.integers(lo, hi + 1))


def generate_corpus(seed: int, dim: int, max_degree: int, families=None) -> Corpus:
    """Deterministic reference corpus of zero-mean ring members.

    Families: "single_block" (one random frequency per dyadic block, tensored
    across axes), "lacunary" (geometric block profiles at rho = 0.5, 1, 2),
    "random_decay" (dense random spectra at two decay rates), and for dim >= 2
    "tensor" (products of distinct one-axis members).  The same seed always
    yields the same corpus, entry by entry.
    """
    if max_degree < 2:
        raise InvalidParams(f"max_degree must be >= 2, got {max_degree}")
    if families is None:
        families = ("single_block", "lacunary", "random_decay") + (
            ("tensor",) if dim >= 2 else ()
        )
    rng = np.random.default_rng(seed)
    functions: list[CorpusFunction] = []
    smax = int(max_degree).bit_length()  # block index of max_degree

    def add(family, poly):
        fid = f"{family}/{sum(1 for g in functions if g.family == family)}"
        if not poly.is_ring_member():
            raise InvalidParams(f"corpus member {fid} is not a zero-mean ring member")
        functions.append(CorpusFunction(fid=fid, family=family, poly=poly))

    for family in families:
        if family == "single_block":
            if dim == 1:
                for s in range(1, smax + 1):
                    add(family, cosine(_random_block_frequency(rng, s, max_degree)))
            else:
                picks = [(1,) * dim, (min(2, smax),) * dim, (smax,) * dim]
                picks += [(1,) + (smax,) * (dim - 1), (smax,) + (1,) * (dim - 1)]
                seen = set()
                for s_vec in picks:
                    if s_vec in seen:
                        continue
                    seen.add(s_vec)
                    parts = [
                        cosine(_random_block_frequency(rng, s, max_degree)) for s in s_vec
                    ]
                    add(family, tensor(*parts))
        elif family == "lacunary":
            top = max_degree.bit_length() - 1  # largest s with 2^s <= max_degree
            for rho in (0.5, 1.0, 2.0):
                one = lacunary(rho, top)
                add(family, one if dim == 1 else tensor(*[one] * dim))
        elif family == "random_decay":
            for decay in (0.5, 1.5):
                add(family, random_decay_poly(rng, dim, max_degree, decay))
        elif family == "tensor":
            if dim < 2:
                raise InvalidParams("tensor family needs dim >= 2")
            a = random_decay_poly(rng, 1, max_degree, 1.0)
            b = lacunary(1.0, max_degree.bit_length() - 1)
            c = cosine(_random_block_frequency(rng, min(2, smax), max_degree))
            add(family, tensor(a, *([b] * (dim - 1))))
            add(family, tensor(c, *([a] * (dim - 1))))
        else:
            raise InvalidParams(f"unknown corpus family {family!r}")
    return Corpus(
        seed=int(seed),
        dim=int(dim),
        max_degree=int(max_degree),
        functions=tuple(functions),
        families=tuple(families),
    )


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass(frozen=True)
class VerifyConfig:
    """Harness knobs; defaults match the frozen reference run.

    Nothing in the package reads threads (the CLI's pool size is its own
    --threads); the field stays because perfbench passes it.
    """

    h_grid: int = 9
    stability: bool = True
    stability_factor: float = 2.0
    threads: int = 1
    windows: dict | None = None

    def __post_init__(self):
        # below two points per axis a step lattice holds only h = 0
        if self.h_grid < 2:
            raise InvalidParams(f"h_grid must be >= 2, got {self.h_grid}")

    def window_for(self, check: str, dim: int):
        if not self.windows:
            return None
        entry = self.windows.get(check)
        if entry is None:
            return None
        got = entry.get(str(dim))
        return tuple(got) if got is not None else None


def load_golden_windows() -> dict:
    """Frozen ratio windows from the reference run (packaged JSON)."""
    ref = resources.files("mixsmooth").joinpath("data/golden_windows.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)["windows"]


@dataclass(frozen=True)
class RatioRow:
    fid: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float | None:
        if self.rhs == 0.0:
            return None
        return self.lhs / self.rhs


def _min_median_max(values) -> dict:
    return {
        "min": float(np.min(values)),
        "median": float(np.median(values)),
        "max": float(np.max(values)),
    }


def _row_stats(rows) -> tuple[dict | None, int, list[str]]:
    ratios = [row.ratio for row in rows if row.rhs != 0.0]
    zero_zero = sum(row.lhs == 0.0 for row in rows if row.rhs == 0.0)
    failures = [
        f"{row.fid}: nonzero lhs {row.lhs!r} over zero rhs"
        for row in rows
        if row.rhs == 0.0 and row.lhs != 0.0
    ]
    if not ratios:
        return None, zero_zero, failures
    return {"count": len(ratios), **_min_median_max(ratios)}, zero_zero, failures


@dataclass(frozen=True)
class RatioReport:
    check: str
    dim: int
    max_degree: int
    seed: int
    params: dict
    rows: tuple[RatioRow, ...]
    stats: dict | None
    zero_zero: int
    failures: tuple[str, ...]
    stability: dict | None
    window: tuple[float, float] | None
    verdict: str
    notes: str = ""
    aux: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "dim": self.dim,
            "max_degree": self.max_degree,
            "seed": self.seed,
            "params": self.params,
            "rows": [
                {"fid": r.fid, "lhs": r.lhs, "rhs": r.rhs, "ratio": r.ratio}
                for r in self.rows
            ],
            "stats": self.stats,
            "zero_zero": self.zero_zero,
            "failures": list(self.failures),
            "stability": self.stability,
            "window": list(self.window) if self.window else None,
            "verdict": self.verdict,
            "notes": self.notes,
            "aux": self.aux,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "dim", "fid", "lhs", "rhs", "ratio"])
        for r in self.rows:
            ratio = "" if r.ratio is None else repr(r.ratio)
            writer.writerow([self.check, self.dim, r.fid, repr(r.lhs), repr(r.rhs), ratio])
        return buf.getvalue()

    def summary_line(self) -> str:
        if self.stats:
            span = f"ratios [{self.stats['min']:.4g}, {self.stats['max']:.4g}] n={self.stats['count']}"
        else:
            span = "no ratios"
        extra = f" zero/zero={self.zero_zero}" if self.zero_zero else ""
        growth = ""
        if self.stability and self.stability.get("spread_growth") is not None:
            growth = f" doubling-growth={self.stability['spread_growth']:.3f}"
        note = f" ({self.notes})" if self.notes else ""
        return f"{self.check}: {self.verdict} {span}{extra}{growth}{note}"


# ---------------------------------------------------------------------------
# workspace: per-corpus caches so each quantity is computed once


# Grid floor of Workspace shapes: the golden windows were frozen at it.
_GRID_FLOOR = 16


class Workspace:
    """One corpus, its config and every quantity a check reads of them.

    Cache keys carry the defining parameters (the frozen LorentzParams and
    SmoothParams objects themselves), so one workspace serves every (p, tau,
    theta, b) of a run.  A workspace has one config, so no key needs h_grid.

    Row memos (_rows) hold difference norms per (member, p, tau, k) by
    canonical step class (step_norms), a member being a fid or a pair of
    fids standing for their sum, both served by modulus (a pair best
    triangle bound first where that bound holds); and cutoff residual
    norms per (fid, p, tau) by exact cutoff l.  A request evaluates only
    its rows not yet seen, in one batch; a row's norm does not depend on
    its batch, so at m <= 2 every quantity has the bits of its fresh build.
    The rows of the checks that read no theta or b are cached under (check,
    p, tau, k), and doubled() is the workspace of the stability probe.

    Threads may share a workspace: each key and memo is built once, under
    its own lock.
    """

    def __init__(self, corpus: Corpus, config: VerifyConfig):
        self.corpus = corpus
        self.config = config
        self._cache: dict[tuple, object] = {}
        self._polys = {cf.fid: cf.poly for cf in corpus}
        # tight_degree scans every coefficient, so each member's is found once
        self._tight = {cf.fid: cf.poly.tight_degree() for cf in corpus}
        self._memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()

    def poly(self, member) -> TrigPoly:
        """A corpus member by fid, or the sum f + g of a pair of fids (f, g)."""
        if isinstance(member, str):
            return self._polys[member]
        f, g = member
        return self._get(("sum", member), lambda: self._polys[f] + self._polys[g])

    def tight_degree(self, fid: str) -> tuple[int, ...]:
        return self._tight[fid]

    def shape(self, member) -> tuple[int, ...]:
        return _pow2_grid(self.poly(member).degree, _GRID_FLOOR)

    def _key_lock(self, key) -> threading.Lock:
        # a dict read is atomic; only creating a key's lock needs self._lock
        lock = self._locks.get(key)
        if lock is None:
            with self._lock:
                lock = self._locks.setdefault(key, threading.Lock())
        return lock

    def _get(self, key, builder):
        # once per key: a thread that finds the key being built waits for it
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._key_lock(key):
            if key not in self._cache:
                self._cache[key] = builder()
        return self._cache[key]

    def doubled(self) -> Workspace:
        """The workspace of this seed, dim and families at twice max_degree, same config."""
        c = self.corpus
        return self._get(
            ("doubled",),
            lambda: Workspace(
                generate_corpus(c.seed, c.dim, 2 * c.max_degree, c.families), self.config
            ),
        )

    def _rows(self, key, params, evaluate) -> np.ndarray:
        """evaluate at each row of the 2-D params, in order; each new row once.

        evaluate(rows) gets the rows missing from the memo of key, without
        repeats, in one call, and returns one float per row.
        """
        params = np.ascontiguousarray(params, dtype=np.float64)
        rows = params.view(f"V{params.itemsize * params.shape[1]}").ravel()
        with self._key_lock(key):
            keys, values = self._memo.get(key) or (rows[:0], np.empty(0))
            at = keys.searchsorted(rows)
            if keys.size:
                found = keys.take(at, mode="clip") == rows
            else:
                found = np.zeros(rows.size, dtype=bool)
            if np.count_nonzero(found) < rows.size:
                missing = ~found
                new, first = np.unique(rows[missing], return_index=True)
                got = evaluate(params[missing][first])
                where = keys.searchsorted(new)
                keys, values = np.insert(keys, where, new), np.insert(values, where, got)
                self._memo[key] = (keys, values)
                at = keys.searchsorted(rows)
            return values[at]

    def _swap_groups(self, member, k: tuple) -> tuple:
        # groups of 2+ axes with bitwise equal one-axis factors and equal k_j
        def build():
            classes: dict[tuple, list[int]] = {}
            for axis, (fac, kj) in enumerate(zip(self.poly(member).factors or (), k)):
                classes.setdefault((kj, fac.tobytes()), []).append(axis)
            return tuple(axes for axes in classes.values() if len(axes) > 1)

        return self._get(("swap", member, k), build)

    def step_norms(self, member, lp: LorentzParams, k: tuple, h) -> np.ndarray:
        """Norms of Delta_h^k of a member for the rows of h, each step class evaluated once.

        A class is h up to swaps of axes with equal factors and k_j, which
        permute the samples; its row sorts h within each such group.  At m = 2
        the swapped rows have equal bits, at m >= 3 equal up to last bits.
        """
        k = tuple(int(v) for v in k)
        groups = self._swap_groups(member, k)
        if groups:
            h = np.array(h, dtype=np.float64)
            for axes in groups:
                h[:, axes] = np.sort(h[:, axes], axis=1)
        return self._rows(
            ("steps", member, lp, k), h,
            lambda rows: difference_norms(self.poly(member), rows, k, lp, self.shape(member)),
        )

    def norm(self, fid: str, lp: LorentzParams) -> float:
        key = ("norm", fid, lp)
        return self._get(key, lambda: poly_norm(self.poly(fid), lp, self.shape(fid)))

    def deriv_norm(self, fid: str, lp: LorentzParams, alpha: tuple[int, ...]) -> float:
        key = ("deriv", fid, lp, tuple(alpha))
        return self._get(
            key, lambda: poly_norm(derivative(self.poly(fid), alpha), lp, self.shape(fid))
        )

    def block_norms(self, fid: str, lp: LorentzParams) -> dict:
        key = ("blocks", fid, lp)
        return self._get(key, lambda: block_norms(self.poly(fid), lp, self.shape(fid)))

    def tails(self, fid: str, lp: LorentzParams) -> np.ndarray:
        key = ("tails", fid, lp)
        return self._get(key, lambda: tail_square_norms(self.poly(fid), lp, self.shape(fid)))

    def y_values(self, fid: str, lp: LorentzParams, cutoffs) -> list[float]:
        """Angle residual norms at each cutoff, in order, as floats; each evaluated once."""
        f = self.poly(fid)
        l = np.array(cutoffs, dtype=np.float64).reshape(-1, f.dim)
        norms = self._rows(
            ("y", fid, lp), l, lambda rows: angle_residual_norms(f, rows, lp, self.shape(fid))
        )
        return norms.tolist()

    def y_at(self, fid: str, lp: LorentzParams, cutoff: tuple) -> float:
        """y_values at one cutoff; unused in the package, kept for perfbench's tracer."""
        return self.y_values(fid, lp, [cutoff])[0]

    def kernel_residual(self, fid: str, lp: LorentzParams, l: tuple, k: tuple) -> float:
        # not cached: only lemma3_sandwich reads it, once per key of its rows
        return kernel_residual_norm(self.poly(fid), l, lp, k, self.shape(fid))

    def _grid(self, fid: str, lp: LorentzParams, k: tuple, box: tuple) -> ModulusGrid:
        # modulus_grid(f, k, lp, box), its lattice read through the memo
        key = ("mgrid", fid, lp, tuple(k), box)

        def build():
            return _fold_grid(
                self.poly(fid), tuple(k), lp, box, self.config.h_grid,
                lambda pts: self.step_norms(fid, lp, k, pts), self.shape(fid),
            )

        return self._get(key, build)

    def mod_grid(self, fid: str, lp: LorentzParams, k: tuple) -> ModulusGrid:
        box = tuple(max(int(n).bit_length() + 6, 8) for n in self._tight[fid])
        return self._grid(fid, lp, k, box)

    def modulus(self, member, lp: LorentzParams, k: tuple, t: tuple) -> float:
        # mixed_modulus(poly(member), t, k, lp, refine=False) on the memo.  A
        # pair's rows go best triangle bound first only where that bound holds
        # row by row, a norm (tau <= p) on one grid: on about half the pairs f
        # or g has a coarser grid than f + g, whose norms differ by up to 0.6%.
        t = tuple(float(v) for v in t)
        key = ("mod", member, lp, tuple(k), t)

        def build():
            steps = _step_lattice(t, self.config.h_grid)
            if isinstance(member, tuple) and lp.tau <= lp.p and (
                self.shape(member[0]) == self.shape(member[1]) == self.shape(member)
            ):
                nf, ng = (self.step_norms(fid, lp, k, steps) for fid in member)
                return _bounded_max(lambda h: self.step_norms(member, lp, k, h), steps, nf + ng)
            return float(np.max(self.step_norms(member, lp, k, steps)))

        return self._get(key, build)

    def semi(self, fid: str, lp: LorentzParams, sp: SmoothParams):
        # log_modulus_seminorm(f, sp, lp, grid=mod_grid), grown boxes from the memo
        key = ("semi", fid, lp, sp)

        def build():
            return _seminorm(
                self.poly(fid), sp, self.deriv_norm(fid, lp, sp.k), None,
                self.mod_grid(fid, lp, sp.k), lambda box: self._grid(fid, lp, sp.k, box),
            )

        return self._get(key, build)

    def bold(self, fid: str, lp: LorentzParams, sp: SmoothParams) -> float:
        return self.norm(fid, lp) + self.semi(fid, lp, sp).value

    def seq_norm(self, fid: str, lp: LorentzParams, sp: SmoothParams) -> float:
        key = ("seqB", fid, lp, sp)
        return self._get(key, lambda: _weighted_block_sum(self.block_norms(fid, lp), sp))

    def thm1_rhs(self, fid: str, lp: LorentzParams, sp: SmoothParams) -> float:
        key = ("t1rhs", fid, lp, sp)

        def build():
            combos, cutoffs = _theorem1_cutoffs(self.poly(fid))
            return _theorem1_sum(combos, self.y_values(fid, lp, cutoffs), sp)

        return self._get(key, build)

    def thm2_rhs(self, fid: str, lp: LorentzParams, sp: SmoothParams) -> float:
        key = ("t2rhs", fid, lp, sp)
        return self._get(
            key, lambda: _theorem2_sum(self.norm(fid, lp), self.tails(fid, lp), sp)
        )

    def thm3(self, fid: str, lp: LorentzParams, sp: SmoothParams, side: str) -> float:
        key = ("t3", fid, lp, sp, side)

        def build():
            groups = self._get(
                ("groups", fid, lp, side),
                lambda: _group_norms(self.poly(fid), lp, side, self.shape(fid)),
            )
            return _theorem3_sum(self.norm(fid, lp), groups, sp)

        return self._get(key, build)


# ---------------------------------------------------------------------------
# check bodies: each returns (rows, aux) and may raise UncoveredParams, which
# depends on (lp, sp) only, never on the corpus


def _diag(t: float, dim: int) -> tuple[float, ...]:
    return (float(t),) * dim


def _dyadic_levels(l_min: int, l_max: int) -> list[int]:
    """The dyadic angle cutoffs l = 1, 3, 7, ..., 2^s - 1 within [l_min, l_max]."""
    out, l = [], 1
    while l <= l_max:
        if l >= l_min:
            out.append(l)
        l = 2 * l + 1
    return out


def _check_lemma1_monotone(ws: Workspace, lp, k):
    rows = []
    for cf in ws.corpus:
        vals = ws.mod_grid(cf.fid, lp, k).values
        pairs = [
            (np.take(vals, range(1, n), axis=axis).ravel(),
             np.take(vals, range(0, n - 1), axis=axis).ravel())
            for axis, n in enumerate(vals.shape)
        ]
        finer = np.concatenate([fine for fine, _ in pairs])
        coarser = np.concatenate([coarse for _, coarse in pairs])
        ok = coarser > 0
        if not np.any(ok):
            rows.append(RatioRow(cf.fid, 0.0, 0.0))
            continue
        finer, coarser = finer[ok], coarser[ok]
        r = finer / coarser
        # Cells whose ratios tie in exact arithmetic differ in the last bits,
        # so the witness is the first cell in scan order within 4 ulp of the
        # maximum: a last-bit change to any norm leaves it in place.
        top = r.max()
        i = int(np.argmax(r >= top - 4 * np.spacing(top)))
        rows.append(RatioRow(cf.fid, float(finer[i]), float(coarser[i])))
    return rows, {}


def _bounded_max(norms_at, steps: np.ndarray, bound: np.ndarray) -> float:
    """np.max(norms_at(steps)), given bound >= each row's norm up to a relative 1e-12.

    Rows go best bound first, 8 and then twice as many per request, until
    the next bound is below the running maximum by the slack.
    """
    order = np.argsort(-bound, kind="stable")
    best, start, size = -np.inf, 0, 8
    while start < order.size and not bound[order[start]] < best * (1.0 - 1e-12):
        best = max(best, float(np.max(norms_at(steps[order[start : start + size]]))))
        start, size = start + size, 2 * size
    return best


def _check_lemma1_subadd(ws: Workspace, lp, k):
    # All three maxima range over one lattice of steps h; the exact window
    # (0, 1 + 1e-9] rests on the triangle inequality (see Workspace.modulus)
    rows = []
    members = list(ws.corpus)
    for i, cf in enumerate(members):
        cg = members[(i + 1) % len(members)]
        if cg.fid == cf.fid or cf.poly.dim != cg.poly.dim:
            continue
        pair = (cf.fid, cg.fid)
        for t in (0.75, 0.2):
            tv = _diag(t, cf.poly.dim)
            lhs = ws.modulus(pair, lp, k, tv)
            rhs = ws.modulus(cf.fid, lp, k, tv) + ws.modulus(cg.fid, lp, k, tv)
            rows.append(RatioRow(f"{cf.fid}+{cg.fid}@t={t}", lhs, rhs))
    return rows, {}


def _check_lemma1_deriv(ws: Workspace, lp, k):
    rows = []
    for cf in ws.corpus:
        dnorm = ws.deriv_norm(cf.fid, lp, k)
        for t in (0.5, 0.1, 0.02):
            tv = _diag(t, cf.poly.dim)
            lhs = ws.modulus(cf.fid, lp, k, tv)
            rhs = math.prod(tj**kj for tj, kj in zip(tv, k)) * dnorm
            rows.append(RatioRow(f"{cf.fid}@t={t}", lhs, rhs))
    return rows, {}


def _check_lemma2_bernstein(ws: Workspace, lp, k):
    rows = []
    for cf in ws.corpus:
        n = ws.tight_degree(cf.fid)
        lhs = ws.deriv_norm(cf.fid, lp, k)
        rhs = math.prod((nj + 1.0) ** kj for nj, kj in zip(n, k)) * ws.norm(cf.fid, lp)
        rows.append(RatioRow(cf.fid, lhs, rhs))
    return rows, {}


def _cutoff_rows(ws: Workspace, lp, rhs):
    # per member and dyadic cutoff l: its angle residual y_l over rhs(fid, l)
    rows = []
    for cf in ws.corpus:
        levels = [(l,) * cf.poly.dim for l in _dyadic_levels(1, max(ws.tight_degree(cf.fid)))]
        for l, lhs in zip(levels, ws.y_values(cf.fid, lp, levels)):
            rows.append(RatioRow(f"{cf.fid}@l={l[0]}", lhs, rhs(cf.fid, l)))
    return rows, {}


def _check_lemma3_sandwich(ws: Workspace, lp, k):
    return _cutoff_rows(ws, lp, lambda fid, l: ws.kernel_residual(fid, lp, l, k))


def _check_lemma4_direct(ws: Workspace, lp, k):
    return _cutoff_rows(
        ws, lp, lambda fid, l: ws.modulus(fid, lp, k, tuple(1.0 / (v + 1.0) for v in l))
    )


def _check_lemma5_inverse(ws: Workspace, lp, k):
    rows = []
    for cf in ws.corpus:
        dim = cf.poly.dim
        for n in (3, 7):
            if n > max(ws.tight_degree(cf.fid)):
                continue
            lhs = ws.modulus(cf.fid, lp, k, _diag(1.0 / (n + 1.0), dim))
            nus = list(np.ndindex(*([n + 1] * dim)))
            acc = 0.0
            for nu, y in zip(nus, ws.y_values(cf.fid, lp, nus)):
                w = math.prod((v + 1.0) ** (kj - 1.0) for v, kj in zip(nu, k))
                acc += w * y
            rhs = math.prod(float(n) ** (-kj) for kj in k) * acc
            rows.append(RatioRow(f"{cf.fid}@n={n}", lhs, rhs))
    return rows, {}


def _log_weight_integral(nu: int, beta: float) -> float:
    u_hi = 1.0 + nu * math.log(2.0)
    u_lo = 1.0 + (nu - 1.0) * math.log(2.0)
    if abs(beta + 1.0) < 1e-12:
        return math.log(u_hi / u_lo)
    return (u_hi ** (beta + 1.0) - u_lo ** (beta + 1.0)) / (beta + 1.0)


def _check_rel_2_2_weight(ws: Workspace, lp, k):
    rows = []
    for nu in range(1, 21):
        for tb in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0):
            lhs = _log_weight_integral(nu, tb)
            rhs = float(nu) ** tb
            rows.append(RatioRow(f"nu={nu},tb={tb}", lhs, rhs))
    return rows, {}


def _check_thm1(ws: Workspace, lp, sp):
    rows = []
    semi_ratios = []
    for cf in ws.corpus:
        bold = ws.bold(cf.fid, lp, sp)
        rhs_sum = ws.thm1_rhs(cf.fid, lp, sp)
        rows.append(RatioRow(cf.fid, bold, ws.norm(cf.fid, lp) + rhs_sum))
        if rhs_sum > 0:
            semi_ratios.append(ws.semi(cf.fid, lp, sp).value / rhs_sum)
    aux = {}
    if semi_ratios:
        aux["seminorm_only"] = _min_median_max(semi_ratios)
    return rows, aux


def _check_thm2(ws: Workspace, lp, sp):
    rows = []
    for cf in ws.corpus:
        rows.append(RatioRow(cf.fid, ws.bold(cf.fid, lp, sp), ws.thm2_rhs(cf.fid, lp, sp)))
    return rows, {}


def _check_thm3(ws: Workspace, lp, sp):
    # both displays carry the plain norm inside the brace; theorem3_norm
    # already includes it
    rows = []
    for cf in ws.corpus:
        bold = ws.bold(cf.fid, lp, sp)
        rows.append(RatioRow(f"{cf.fid}/lower", ws.thm3(cf.fid, lp, sp, "lower"), bold))
        rows.append(RatioRow(f"{cf.fid}/upper", bold, ws.thm3(cf.fid, lp, sp, "upper")))
    return rows, {}


def _thm4_exponents(lp, sp) -> EmbeddingExponents:
    ee = embedding_exponents(lp, sp)
    if not ee.covered:
        raise UncoveredParams(ee.reason)
    return ee


def _check_thm4_lower(ws: Workspace, lp, sp):
    ee = _thm4_exponents(lp, sp)
    sp_u = SmoothParams(sp.theta, ee.u, sp.k)
    rows = []
    for cf in ws.corpus:
        rows.append(RatioRow(cf.fid, ws.seq_norm(cf.fid, lp, sp_u), ws.bold(cf.fid, lp, sp)))
    return rows, {"u": list(ee.u), "gamma": ee.gamma}


def _check_thm4_upper(ws: Workspace, lp, sp):
    ee = _thm4_exponents(lp, sp)
    sp_v = SmoothParams(sp.theta, ee.v, sp.k)
    rows = []
    for cf in ws.corpus:
        rows.append(RatioRow(cf.fid, ws.bold(cf.fid, lp, sp), ws.seq_norm(cf.fid, lp, sp_v)))
    return rows, {"v": list(ee.v), "beta": ee.beta}


def _check_thm5_1(ws: Workspace, lp, sp):
    tau2 = 1.0 + (lp.tau - 1.0) / 2.0
    if not tau2 < lp.tau:
        raise UncoveredParams(f"tau = {lp.tau} leaves no room for tau2 < tau")
    lp2 = LorentzParams(lp.p, tau2)
    sp2 = SmoothParams(sp.theta, tuple(bj + 0.5 for bj in sp.b), sp.k)
    rows = []
    for cf in ws.corpus:
        rows.append(
            RatioRow(cf.fid, ws.seq_norm(cf.fid, lp, sp), ws.seq_norm(cf.fid, lp2, sp2))
        )
    return rows, {"tau2": tau2, "b2": list(sp2.b)}


def _thm5_23_params(lp, sp):
    theta1 = sp.theta if sp.theta > 1.5 else 1.5
    theta2 = 2.0 if math.isinf(theta1) else 0.75 * theta1
    tau1 = lp.tau
    tau2 = 1.0 + (tau1 - 1.0) / 2.0
    if not tau2 < tau1:
        raise UncoveredParams(f"tau = {tau1} leaves no room for tau2 < tau")
    if math.isinf(theta1):
        scale = theta2
    else:
        eta = theta1 / theta2
        scale = theta2 * eta / (eta - 1.0)
    b_gap = (1.0 / tau2 - 1.0 / tau1) * scale
    # Margin 1.4 in exponent units: the power-form worst exponent is -1.4 and
    # the dyadic one -0.4, both clear of their thresholds -1 and 0, while the
    # theta2 = 3/4 theta1 choice keeps b2 above its -1/theta2 floor for every
    # admissible b except those within ~0.23/theta1 of b's own floor.
    delta = (1.4 + b_gap) / scale
    b2 = tuple(bj - delta for bj in sp.b)
    floor2 = -1.0 / theta2
    if any(v <= floor2 for v in b2):
        raise UncoveredParams(
            f"shifted weights {b2} violate b > {floor2} required by theta2 = {theta2}"
        )
    return LorentzParams(lp.p, tau2), theta1, theta2, b2


def _check_thm5_23(ws: Workspace, lp, sp):
    lp2, theta1, theta2, b2 = _thm5_23_params(lp, sp)
    sp1 = SmoothParams(theta1, sp.b, sp.k)
    sp2 = SmoothParams(theta2, b2, sp.k)
    rows = []
    aux = {"theta1": theta1, "theta2": theta2, "tau2": lp2.tau, "b2": list(b2)}
    cond_seq = theorem5_condition(sp.b, b2, lp.tau, lp2.tau, theta1, theta2)
    aux["condition_sequence"] = {
        "converges": cond_seq.converges,
        "worst_exponent": cond_seq.worst_exponent,
    }
    if not cond_seq.converges:
        raise UncoveredParams("sequence-form comparison sum diverges; embedding not claimed")
    for cf in ws.corpus:
        rows.append(
            RatioRow(
                f"{cf.fid}/seq", ws.seq_norm(cf.fid, lp2, sp2), ws.seq_norm(cf.fid, lp, sp1)
            )
        )
    cond_dyad = theorem5_condition(sp.b, b2, lp.tau, lp2.tau, theta1, theta2, dyadic=True)
    aux["condition_dyadic"] = {
        "converges": cond_dyad.converges,
        "worst_exponent": cond_dyad.worst_exponent,
    }
    # the dyadic exponent is the power-form one plus 1 and _thm5_23_params
    # keeps the latter at -1.4, so the dyadic sum converges whenever the
    # sequence sum does
    for cf in ws.corpus:
        rows.append(
            RatioRow(f"{cf.fid}/bold", ws.bold(cf.fid, lp2, sp2), ws.bold(cf.fid, lp, sp1))
        )
    return rows, aux


def _check_lp_equivalence(ws: Workspace, lp, k):
    rows = []
    for cf in ws.corpus:
        sig = ws.tails(cf.fid, lp)
        rows.append(RatioRow(cf.fid, float(sig[(0,) * cf.poly.dim]), ws.norm(cf.fid, lp)))
    return rows, {}


# name -> (body, corpus_based, sided, by_k); "upper" checks assert lhs <= C * rhs
# (their ratio minimum may legitimately sink toward zero as degrees grow, so
# the doubling probe tracks max growth), "both" checks assert an equivalence
# window (the probe tracks max/min spread growth).  A body is called as
# body(ws, lp, sp), a by_k body with sp.k for sp: it reads no theta or b, so
# run_check memoizes it per Workspace.
_CHECK_BODIES = {
    "lemma1_monotone": (_check_lemma1_monotone, True, "upper", True),
    "lemma1_subadd": (_check_lemma1_subadd, True, "upper", True),
    "lemma1_deriv": (_check_lemma1_deriv, True, "upper", True),
    "lemma2_bernstein": (_check_lemma2_bernstein, True, "upper", True),
    "lemma3_sandwich": (_check_lemma3_sandwich, True, "upper", True),
    "lemma4_direct": (_check_lemma4_direct, True, "upper", True),
    "lemma5_inverse": (_check_lemma5_inverse, True, "upper", True),
    "rel_2_2_weight": (_check_rel_2_2_weight, False, "both", True),
    "thm1": (_check_thm1, True, "both", False),
    "thm2": (_check_thm2, True, "both", False),
    "thm3": (_check_thm3, True, "upper", False),
    "thm4_lower": (_check_thm4_lower, True, "upper", False),
    "thm4_upper": (_check_thm4_upper, True, "upper", False),
    "thm5_1": (_check_thm5_1, True, "upper", False),
    "thm5_23": (_check_thm5_23, True, "upper", False),
    "lp_equivalence": (_check_lp_equivalence, True, "both", True),
}

CHECK_NAMES = tuple(_CHECK_BODIES)


def _registered(check: str) -> tuple:
    if check not in _CHECK_BODIES:
        raise UnknownCheck(f"{check!r} is not a registered check (see CHECK_NAMES)")
    return _CHECK_BODIES[check]


def check_sided(check: str) -> str:
    return _registered(check)[2]


def _params_dict(lp: LorentzParams, sp: SmoothParams) -> dict:
    return {
        "p": lp.p,
        "tau": lp.tau,
        "theta": "inf" if math.isinf(sp.theta) else sp.theta,
        "b": list(sp.b),
        "k": list(sp.k),
    }


def _spread(stats: dict | None) -> float | None:
    if not stats or stats["min"] <= 0.0:
        return None
    return stats["max"] / stats["min"]


def run_check(
    check: str,
    corpus: Corpus,
    lp: LorentzParams,
    sp: SmoothParams,
    config: VerifyConfig | None = None,
    workspace: Workspace | None = None,
) -> RatioReport:
    """Run one registered check over the corpus and assemble its report.

    The corpus and config are read from workspace, which must hold this
    corpus object and config None or its own (InvalidParams); without one, a
    Workspace of (corpus, config) is built.  The stability probe reruns the
    check on workspace.doubled() and fails the verdict if the ratio spread
    grows by the configured factor.  Checks whose hypotheses exclude the
    given parameters report verdict "skipped".
    """
    body, corpus_based, sided, by_k = _registered(check)
    if lp.tau <= 1.0:
        raise InvalidParams("the verification harness requires 1 < tau < inf")
    validate_params(lp, sp, corpus.dim)
    ws = workspace
    if ws is None:
        ws = Workspace(corpus, config or VerifyConfig())
    elif ws.corpus is not corpus or config not in (None, ws.config):
        raise InvalidParams("workspace was built for another corpus or config")

    def measure(w: Workspace):
        # rows, aux and row stats on w's corpus; a by_k body's are cached per key
        def build():
            rows, aux = body(w, lp, sp.k if by_k else sp)
            return (tuple(rows), aux, *_row_stats(rows))

        if not by_k:
            return build()
        rows, aux, stats, zero_zero, failures = w._get(("check", check, lp, sp.k), build)
        return rows, dict(aux), stats and dict(stats), zero_zero, failures  # a copy per report

    common = {
        "check": check,
        "dim": corpus.dim,
        "max_degree": corpus.max_degree,
        "seed": corpus.seed,
        "params": _params_dict(lp, sp),
    }
    window = ws.config.window_for(check, corpus.dim)
    try:
        rows, aux, stats, zero_zero, failures = measure(ws)
    except UncoveredParams as exc:
        return RatioReport(
            rows=(),
            stats=None,
            zero_zero=0,
            failures=(),
            stability=None,
            window=window,
            verdict="skipped",
            notes=f"{type(exc).__name__}: {exc}",
            **common,
        )
    stability = growth = None
    notes = []
    if corpus_based and ws.config.stability:
        ws2 = ws.doubled()
        _, _, stats2, zz2, fail2 = measure(ws2)
        if sided == "upper":
            if stats and stats2:
                if stats["max"] > 0:
                    growth = stats2["max"] / stats["max"]
                elif stats2["max"] > 0:
                    growth = math.inf
        else:
            s1, s2 = _spread(stats), _spread(stats2)
            if s1 is not None and s2 is not None:
                growth = s2 / s1
            elif stats and stats2 and stats["max"] > 0:
                growth = stats2["max"] / stats["max"]
        stability = {
            "max_degree": ws2.corpus.max_degree,
            "stats": stats2,
            "zero_zero": zz2,
            "spread_growth": growth,
        }
        failures = failures + [f"doubled: {m}" for m in fail2]
    verdict = "pass"
    if failures:
        verdict = "fail"
        notes.append("nonzero/zero ratio present")
    elif stats is None:
        verdict = "skipped"
        notes.append("no ratio rows" if not rows else "all rows 0/0")
    if verdict != "skipped" and window and stats:
        if stats["min"] < window[0] or stats["max"] > window[1]:
            verdict = "fail"
            notes.append(
                f"ratios [{stats['min']:.6g}, {stats['max']:.6g}] escape window {list(window)}"
            )
    if verdict != "skipped" and growth is not None and growth >= ws.config.stability_factor:
        verdict = "fail"
        notes.append(f"ratio spread grew {growth:.3f}x under degree doubling")
    return RatioReport(
        rows=rows,
        stats=stats,
        zero_zero=zero_zero,
        failures=tuple(failures),
        stability=stability,
        window=window,
        verdict=verdict,
        notes="; ".join(notes),
        aux=aux,
        **common,
    )
