"""Harness internals: corpus, ratio bookkeeping, verdicts, reproducibility."""

import dataclasses
import json
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import mixsmooth.seqnorms
import mixsmooth.smoothness
import mixsmooth.verify
from mixsmooth.core import InvalidParams, LorentzParams, SmoothParams
from mixsmooth.seqnorms import theorem1_rhs, theorem2_rhs, theorem3_norm, theorem5_condition
from mixsmooth.smoothness import (
    difference_norms,
    log_modulus_seminorm,
    mixed_modulus,
    modulus_grid,
)
from mixsmooth.spectral import (
    angle_residual_norms,
    block_norms,
    block_of_frequency,
    tail_square_norms,
)
from mixsmooth.verify import (
    CHECK_NAMES,
    Corpus,
    RatioRow,
    UnknownCheck,
    VerifyConfig,
    Workspace,
    _check_lemma1_monotone,
    _row_stats,
    _thm5_23_params,
    check_sided,
    default_threads,
    generate_corpus,
    lacunary,
    load_golden_windows,
    parallel_map,
    run_check,
)

from test_acceptance import BATTERY_LP, BATTERY_SP

LP = LorentzParams(3.0, 1.5)
SP = SmoothParams(1.0, 0.0)


# --- corpus ------------------------------------------------------------------


def test_corpus_is_deterministic_bitwise():
    a = generate_corpus(seed=7, dim=1, max_degree=16)
    b = generate_corpus(seed=7, dim=1, max_degree=16)
    assert [cf.fid for cf in a.functions] == [cf.fid for cf in b.functions]
    for x, y in zip(a.functions, b.functions):
        assert np.array_equal(x.poly.coeffs, y.poly.coeffs)


def test_corpus_seed_changes_content():
    a = generate_corpus(seed=7, dim=1, max_degree=16)
    b = generate_corpus(seed=8, dim=1, max_degree=16)
    changed = any(
        not np.array_equal(x.poly.coeffs, y.poly.coeffs)
        for x, y in zip(a.functions, b.functions)
        if x.poly.coeffs.shape == y.poly.coeffs.shape
    )
    assert changed


def test_corpus_members_live_in_the_ring():
    for dim, deg in ((1, 16), (2, 8)):
        corpus = generate_corpus(seed=7, dim=dim, max_degree=deg)
        assert len(corpus.functions) > 0
        for cf in corpus.functions:
            assert cf.poly.ring_violation_axes() == []
            assert cf.fid.split("/")[0] == cf.family


def test_corpus_2d_has_tensor_family():
    corpus = generate_corpus(seed=7, dim=2, max_degree=8)
    families = {cf.family for cf in corpus.functions}
    assert families == {"single_block", "lacunary", "random_decay", "tensor"}


def test_corpus_family_filter():
    corpus = generate_corpus(seed=7, dim=1, max_degree=16, families=("lacunary",))
    assert {cf.family for cf in corpus.functions} == {"lacunary"}


def test_lacunary_spectrum_is_geometric():
    f = lacunary(1.0, 4)
    freqs = sorted(k for (k,), _ in f.nonzero_entries() if k > 0)
    assert freqs == [1, 2, 4, 8, 16]
    assert {block_of_frequency(k) for k in freqs} == {1, 2, 3, 4, 5}
    # amplitude halves per octave at rho = 1
    for k in freqs:
        s = block_of_frequency(k) - 1
        assert abs(f.coeff((k,))) == pytest.approx(0.5 * 2.0**-s, rel=1e-12)


# --- ratio bookkeeping ------------------------------------------------------


def test_row_stats_excludes_zero_zero_but_counts_it():
    stats, zz, failures = _row_stats(
        [RatioRow("a", 1.0, 2.0), RatioRow("b", 0.0, 0.0), RatioRow("c", 3.0, 2.0)]
    )
    assert zz == 1
    assert failures == []
    assert stats["count"] == 2
    assert stats["min"] == 0.5
    assert stats["max"] == 1.5


def test_row_stats_flags_nonzero_over_zero():
    stats, zz, failures = _row_stats([RatioRow("bad", 1.0, 0.0)])
    assert stats is None
    assert zz == 0
    assert len(failures) == 1 and "bad" in failures[0]


def test_ratio_row_property():
    assert RatioRow("x", 1.0, 4.0).ratio == 0.25
    assert RatioRow("x", 1.0, 0.0).ratio is None


# --- run_check ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(seed=7, dim=1, max_degree=8)


def test_unknown_check_raises(small_corpus):
    with pytest.raises(UnknownCheck):
        run_check("lemma9_missing", small_corpus, LP, SP)


@pytest.mark.parametrize("h_grid", [0, 1])
def test_h_grid_below_two_raises(h_grid):
    # below two points per axis the step lattice holds at most h = 0, where
    # every difference vanishes, so a pass would say nothing; the config
    # refuses it before any Workspace reads it
    with pytest.raises(InvalidParams, match=f"h_grid must be >= 2, got {h_grid}"):
        VerifyConfig(h_grid=h_grid, stability=False)


def test_equal_parameter_objects_share_workspace_entries(small_corpus):
    ws = Workspace(small_corpus, VerifyConfig(stability=False))
    fid = small_corpus.functions[0].fid
    lp, fresh = LorentzParams(3, 1.5), LorentzParams(3.0, 1.5)
    sp, same = SmoothParams(1.0, 0.5, 1), SmoothParams(1, (0.5,), (1,))
    assert ws.seq_norm(fid, lp, sp) == ws.seq_norm(fid, fresh, same)
    assert Counter(key[0] for key in ws._cache) == {"blocks": 1, "seqB": 1}


def test_run_check_is_byte_reproducible(small_corpus):
    cfg = VerifyConfig(stability=False)
    a = run_check("thm1", small_corpus, LP, SP, config=cfg)
    b = run_check("thm1", small_corpus, LP, SP, config=cfg)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    assert a.verdict == "pass"


def test_run_check_shares_workspace(small_corpus):
    cfg = VerifyConfig(stability=False)
    ws = Workspace(small_corpus, cfg)
    a = run_check("thm2", small_corpus, LP, SP, config=cfg, workspace=ws)
    b = run_check("thm2", small_corpus, LP, SP, config=cfg)
    assert a.to_json() == b.to_json()


def test_injected_window_fails_the_verdict(small_corpus):
    cfg = VerifyConfig(stability=False, windows={"thm1": {"1": [0.999, 1.0]}})
    rep = run_check("thm1", small_corpus, LP, SP, config=cfg)
    assert rep.verdict == "fail"
    assert "window" in rep.notes


def test_stability_factor_one_trips_growth(small_corpus):
    # any measurable doubling growth crosses a factor of 1.0
    cfg = VerifyConfig(stability=True, stability_factor=1.0)
    rep = run_check("lemma4_direct", small_corpus, LP, SP, config=cfg)
    assert rep.verdict == "fail"
    assert rep.stability is not None


def test_uncovered_embedding_pair_is_skipped(small_corpus):
    rep = run_check("thm4_lower", small_corpus, LorentzParams(2.0, 3.0), SP)
    assert rep.verdict == "skipped"
    assert "UncoveredParams" in rep.notes


def test_thm5_23_params_keep_margin_on_battery_grid():
    # the shifted b2 puts the power-form worst exponent at -1.4 and the dyadic
    # one at -0.4 for every battery pair
    for dim in (1, 2):
        for p, tau in BATTERY_LP:
            for theta, b in BATTERY_SP:
                lp = LorentzParams(p, tau)
                sp = SmoothParams(theta, (b,) * dim)
                lp2, theta1, theta2, b2 = _thm5_23_params(lp, sp)
                for dyadic, want in ((False, -1.4), (True, -0.4)):
                    rep = theorem5_condition(
                        sp.b, b2, lp.tau, lp2.tau, theta1, theta2, dyadic=dyadic
                    )
                    assert rep.converges
                    assert rep.worst_exponent == pytest.approx(want, abs=1e-12)


def test_sequence_checks_compute_block_norms_once_per_key(small_corpus, monkeypatch):
    # every seq_norm weights the Workspace's cached block norms, so each
    # (fid, p, tau) is evaluated once however many (theta, b) reuse it
    fids = {id(cf.poly): cf.fid for cf in small_corpus}
    calls = Counter()

    def counting(f, lp, shape=None):
        calls[(fids[id(f)], lp.p, lp.tau)] += 1
        return block_norms(f, lp, shape)

    monkeypatch.setattr(mixsmooth.verify, "block_norms", counting)
    monkeypatch.setattr(mixsmooth.seqnorms, "block_norms", counting)
    cfg = VerifyConfig(stability=False)
    ws = Workspace(small_corpus, cfg)
    for p, tau in BATTERY_LP:
        for theta, b in BATTERY_SP:
            sp = SmoothParams(theta, b)
            for check in ("thm4_lower", "thm4_upper", "thm5_1", "thm5_23"):
                run_check(check, small_corpus, LorentzParams(p, tau), sp, cfg, workspace=ws)
    assert calls
    assert set(calls.values()) == {1}


def test_workspace_quantities_equal_fresh_library_values_bitwise(small_corpus):
    # every Workspace quantity read through the difference-norm memo or the
    # shared cutoff, tail and group caches has the bits of its fresh build;
    # at theta = 1, b = 1 every seminorm grows past the Workspace box
    cfg = VerifyConfig(stability=False)
    ws = Workspace(small_corpus, cfg)
    h_grid = cfg.h_grid
    regrown = 0
    for lp in (LP, LorentzParams(2.0, 2.0)):
        for sp in (SP, SmoothParams(1.0, 1.0), SmoothParams(math.inf, 1.0, 2)):
            for cf in small_corpus:
                f, shape = cf.poly, ws.shape(cf.fid)
                for t in ((0.5,), (0.1,), (1.0 / 3.0,)):
                    assert ws.modulus(cf.fid, lp, sp.k, t) == mixed_modulus(
                        f, t, sp.k, lp, h_grid=h_grid, shape=shape, refine=False
                    )
                grid = ws.mod_grid(cf.fid, lp, sp.k)
                fresh = modulus_grid(f, sp.k, lp, grid.nu_max, h_grid=h_grid, shape=shape)
                assert np.array_equal(grid.values, fresh.values)
                semi = ws.semi(cf.fid, lp, sp)
                want = log_modulus_seminorm(f, sp, lp, h_grid=h_grid, shape=shape, grid=fresh)
                assert (semi.value, semi.tail_bound, semi.nu_max) == (
                    want.value, want.tail_bound, want.nu_max
                )
                regrown += any(a > b for a, b in zip(semi.nu_max, grid.nu_max))
                assert ws.thm1_rhs(cf.fid, lp, sp) == theorem1_rhs(f, lp, sp, shape=shape)
                assert ws.thm2_rhs(cf.fid, lp, sp) == theorem2_rhs(f, lp, sp, shape=shape)
                for side in ("lower", "upper"):
                    assert ws.thm3(cf.fid, lp, sp, side) == theorem3_norm(
                        f, lp, sp, side, shape=shape
                    )
    assert regrown > 0


def _battery_pass(corpus, ws, cfg, checks=CHECK_NAMES, sps=BATTERY_SP, threads=1):
    # with threads > 1 the checks of each (lp, sp) share ws from a pool that
    # switches threads often, so a lost cache or memo update would show
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if threads > 1 else interval)
    try:
        for p, tau in BATTERY_LP:
            lp = LorentzParams(p, tau)
            for theta, b in sps:
                sp = SmoothParams(theta, (b,) * corpus.dim)
                reports += parallel_map(
                    lambda check: run_check(check, corpus, lp, sp, cfg, workspace=ws),
                    checks,
                    threads,
                )
    finally:
        sys.setswitchinterval(interval)
    return reports


@pytest.mark.parametrize("threads", [1, 4])
def test_workspace_builds_each_key_and_difference_row_once(small_corpus, monkeypatch, threads):
    # over the whole battery on one Workspace, every cache key is built once
    # and no step vector h is sent to difference_norms twice for the same
    # (member, p, tau, k, shape), also with more threads than cores
    seen = Counter()
    built = Counter()
    lock = threading.Lock()

    def recording(f, h_list, k, lp, shape=None):
        with lock:
            for row in np.asarray(h_list, dtype=np.float64):
                seen[(id(f), lp.p, lp.tau, tuple(k), tuple(shape), row.tobytes())] += 1
        return difference_norms(f, h_list, k, lp, shape)

    get = Workspace._get

    def counting_get(self, key, builder):
        def build():
            with lock:
                built[key] += 1
            return builder()

        return get(self, key, build)

    monkeypatch.setattr(mixsmooth.verify, "difference_norms", recording)
    monkeypatch.setattr(mixsmooth.smoothness, "difference_norms", recording)
    monkeypatch.setattr(Workspace, "_get", counting_get)
    cfg = VerifyConfig(stability=False)
    _battery_pass(small_corpus, Workspace(small_corpus, cfg), cfg, threads=threads)
    assert seen and built
    assert max(seen.values()) == 1
    assert max(built.values()) == 1


THETA_B_FREE = (
    "lemma1_monotone", "lemma1_subadd", "lemma1_deriv", "lemma2_bernstein", "lemma3_sandwich",
    "lemma4_direct", "lemma5_inverse", "rel_2_2_weight", "lp_equivalence",
)


@pytest.mark.parametrize("threads", [1, 4])
def test_theta_b_free_checks_run_once_per_workspace(small_corpus, monkeypatch, threads):
    # over the 7 battery (theta, b) at one (p, tau), a check that reads only
    # (p, tau) and k runs once on each Workspace, the doubled one included,
    # and a theorem check once per (theta, b); one pool runs every (theta, b)
    # at once, so threads race for the same check key
    calls = Counter()
    lock = threading.Lock()
    for name, (body, *rest) in list(mixsmooth.verify._CHECK_BODIES.items()):

        def counting(ws, lp, sp_or_k, name=name, body=body):
            with lock:
                calls[(name, ws.corpus.max_degree)] += 1
            return body(ws, lp, sp_or_k)

        monkeypatch.setitem(mixsmooth.verify._CHECK_BODIES, name, (counting, *rest))
    cfg = VerifyConfig(stability=True)
    ws = Workspace(small_corpus, cfg)
    lp = LorentzParams(3.0, 1.5)
    items = [(check, SmoothParams(theta, b)) for theta, b in BATTERY_SP for check in CHECK_NAMES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if threads > 1 else interval)
    try:
        parallel_map(
            lambda item: run_check(item[0], small_corpus, lp, item[1], cfg, ws),
            sorted(items, key=lambda item: item[0]),
            threads,
        )
    finally:
        sys.setswitchinterval(interval)
    assert {name for name in CHECK_NAMES if calls[(name, 8)] == 1} == set(THETA_B_FREE)
    for name in CHECK_NAMES:
        probed = 0 if name == "rel_2_2_weight" else calls[(name, 8)]
        assert calls[(name, 16)] == probed
        if name not in THETA_B_FREE:
            assert calls[(name, 8)] == len(BATTERY_SP)


def test_run_check_rejects_a_workspace_of_another_corpus(small_corpus):
    # a seed-8 Workspace would answer ws.poly(fid) with seed-8 members under
    # a report stamped with small_corpus's seed
    cfg = VerifyConfig(stability=False)
    other = Workspace(generate_corpus(seed=8, dim=1, max_degree=8), cfg)
    with pytest.raises(InvalidParams, match="another corpus"):
        run_check("lemma2_bernstein", small_corpus, LP, SP, cfg, workspace=other)


@pytest.mark.parametrize("check", ["lemma1_deriv", "lemma1_subadd"])
def test_run_check_rejects_a_config_other_than_the_workspace_one(small_corpus, check):
    # with config at h_grid 3 and a Workspace at 9, lemma1_deriv's moduli
    # would come from h_grid 9 and lemma1_subadd's lattice from h_grid 3
    ws = Workspace(small_corpus, VerifyConfig(h_grid=9, stability=False))
    with pytest.raises(InvalidParams, match="another corpus or config"):
        run_check(check, small_corpus, LP, SP, VerifyConfig(h_grid=3, stability=False), ws)
    # an equal config, or none, is the Workspace's own
    for cfg in (VerifyConfig(h_grid=9, stability=False), None):
        assert run_check(check, small_corpus, LP, SP, cfg, ws).verdict == "pass"


@pytest.mark.parametrize("threads", [1, 4])
def test_doubled_workspace_is_the_corpus_at_twice_the_degree(small_corpus, threads):
    # the stability probe's Workspace: same seed and dim, twice max_degree,
    # the same config object, and built once also when threads race for it
    cfg = VerifyConfig(stability=True)
    ws = Workspace(small_corpus, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if threads > 1 else interval)
    try:
        got = parallel_map(lambda _: ws.doubled(), range(8), threads)
    finally:
        sys.setswitchinterval(interval)
    wsd = ws.doubled()
    assert all(w is wsd for w in got)
    assert (wsd.corpus.seed, wsd.corpus.dim, wsd.corpus.max_degree) == (7, 1, 16)
    assert wsd.config is cfg
    assert [cf.fid for cf in wsd.corpus] == [
        cf.fid for cf in generate_corpus(seed=7, dim=1, max_degree=16)
    ]
    rep = run_check("lemma2_bernstein", small_corpus, LP, SP, workspace=ws)
    assert rep.stability["max_degree"] == 16
    assert ("check", "lemma2_bernstein", LP, SP.k) in wsd._cache


@pytest.mark.parametrize("threads", [1, 4])
def test_cutoffs_and_tails_evaluated_once_per_key(small_corpus, monkeypatch, threads):
    # each (fid, p, tau, cutoff) row of angle_residual_norms and each
    # (fid, p, tau) tail table is evaluated once over the battery
    fids = {id(cf.poly): cf.fid for cf in small_corpus}
    cutoffs = Counter()
    tails = Counter()
    lock = threading.Lock()

    def cutoff_rows(f, ls, lp, shape=None):
        with lock:
            for l in ls:
                cutoffs[(fids[id(f)], lp.p, lp.tau, tuple(float(v) for v in l))] += 1
        return angle_residual_norms(f, ls, lp, shape)

    def tail_calls(f, lp, shape=None):
        with lock:
            tails[(fids[id(f)], lp.p, lp.tau)] += 1
        return tail_square_norms(f, lp, shape)

    for module in (mixsmooth.verify, mixsmooth.seqnorms):
        monkeypatch.setattr(module, "angle_residual_norms", cutoff_rows)
        monkeypatch.setattr(module, "tail_square_norms", tail_calls)
    cfg = VerifyConfig(stability=False)
    ws = Workspace(small_corpus, cfg)
    checks = ("lemma3_sandwich", "lemma4_direct", "lemma5_inverse", "thm1", "thm2",
              "lp_equivalence")
    _battery_pass(small_corpus, ws, cfg, checks, threads=threads)
    assert cutoffs and tails
    assert set(cutoffs.values()) == {1}
    assert set(tails.values()) == {1}
    assert set(tails) == {
        (cf.fid, p, tau) for cf in small_corpus for p, tau in BATTERY_LP
    }


def test_row_memo_evaluates_each_new_row_once_in_request_order(small_corpus):
    ws = Workspace(small_corpus, VerifyConfig(stability=False))
    calls = []

    def evaluate(rows):
        calls.append(sorted(map(tuple, rows.tolist())))
        return rows[:, 0] * 10.0 + rows[:, 1]

    first = ws._rows(("test",), [[2.0, 1.0], [0.0, 3.0], [2.0, 1.0], [0.0, 3.0]], evaluate)
    assert first.tolist() == [21.0, 3.0, 21.0, 3.0]
    second = ws._rows(("test",), [[5.0, 0.0], [2.0, 1.0], [5.0, 0.0], [1.0, 1.0]], evaluate)
    assert second.tolist() == [50.0, 21.0, 50.0, 11.0]
    assert ws._rows(("test",), [[1.0, 1.0], [0.0, 3.0]], evaluate).tolist() == [11.0, 3.0]
    assert calls == [[(0.0, 3.0), (2.0, 1.0)], [(1.0, 1.0), (5.0, 0.0)]]
    # another key keeps its own rows
    assert ws._rows(("other",), [[2.0, 1.0]], evaluate).tolist() == [21.0]
    assert calls[2:] == [[(2.0, 1.0)]]

    fid = small_corpus.functions[0].fid
    cutoffs = [(3,), (1,), (3,)]
    ys = ws.y_values(fid, LP, cutoffs)
    assert all(type(y) is float for y in ys)
    assert ys == angle_residual_norms(
        small_corpus.functions[0].poly, cutoffs, LP, ws.shape(fid)
    ).tolist()


@pytest.mark.parametrize("dim, degree", [(1, 8), (2, 4)])
def test_shared_workspace_reports_equal_fresh_workspace_reports(dim, degree):
    # one Workspace serving every (p, tau) and three (theta, b), regrowth
    # included, writes the same bytes as a fresh Workspace per check
    cfg = VerifyConfig(stability=False)
    corpus = generate_corpus(seed=7, dim=dim, max_degree=degree)
    sps = [BATTERY_SP[i] for i in (0, 2, 6)]
    shared = _battery_pass(corpus, Workspace(corpus, cfg), cfg, sps=sps)
    for rep in shared:
        lp = LorentzParams(rep.params["p"], rep.params["tau"])
        sp = SmoothParams(float(rep.params["theta"]), rep.params["b"])
        fresh = run_check(rep.check, corpus, lp, sp, cfg)
        assert rep.to_json() == fresh.to_json()
        assert rep.to_csv() == fresh.to_csv()


def test_sidedness_registry():
    assert check_sided("lemma1_deriv") == "upper"
    assert check_sided("thm1") == "both"
    assert check_sided("lp_equivalence") == "both"
    for name in CHECK_NAMES:
        assert check_sided(name) in ("upper", "both")


def test_report_serialization_shape(small_corpus):
    cfg = VerifyConfig(stability=False)
    rep = run_check("lp_equivalence", small_corpus, LP, SP, config=cfg)
    doc = json.loads(rep.to_json())
    assert doc["check"] == "lp_equivalence"
    assert doc["dim"] == 1
    assert doc["verdict"] == "pass"
    assert doc["stats"]["count"] == len(small_corpus.functions)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "check,dim,fid,lhs,rhs,ratio"
    assert len(lines) == 1 + len(small_corpus.functions)


# --- threading ---------------------------------------------------------------


def test_parallel_map_preserves_order():
    items = list(range(37))
    got = parallel_map(lambda x: x * x, items, threads=4)
    assert got == [x * x for x in items]


def test_parallel_map_serial_path():
    assert parallel_map(str, [1, 2, 3], threads=1) == ["1", "2", "3"]


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("MIXSMOOTH_THREADS", "5")
    assert default_threads() == 5
    monkeypatch.setenv("MIXSMOOTH_THREADS", "not-a-number")
    assert default_threads() >= 1
    monkeypatch.delenv("MIXSMOOTH_THREADS")
    assert default_threads() >= 1


# --- frozen windows ---------------------------------------------------------


def test_golden_windows_cover_all_checks():
    windows = load_golden_windows()
    for name in CHECK_NAMES:
        assert name in windows, f"no frozen window for {name}"
        for dim in ("1", "2"):
            lo, hi = windows[name][dim]
            assert 0.0 <= lo < hi


def test_lemma1_monotone_witness_is_tie_stable():
    # At m=2 the cells of lacunary/0 have finer/coarser ratios that tie in
    # exact arithmetic and differ only in their last bits.  Moving any grid
    # entry of a tied cell by 1 ulp must leave the reported witness in place,
    # although it moves the plain argmax of the ratios.
    corpus = generate_corpus(seed=7, dim=2, max_degree=8)
    cf = next(c for c in corpus if c.fid == "lacunary/0")
    lp, sp = LorentzParams(3.0, 3.0), SmoothParams(1.0, (0.0, 0.0))
    cfg = VerifyConfig(stability=False)
    grid = Workspace(corpus, cfg).mod_grid(cf.fid, lp, sp.k)
    shape = grid.values.shape

    class OneGrid:
        corpus = [cf]
        values = grid.values

        def mod_grid(self, fid, lp, k):
            return dataclasses.replace(grid, values=self.values)

    ws = OneGrid()
    (want,), _ = _check_lemma1_monotone(ws, lp, sp.k)

    # flat entry indices of every (finer, coarser) cell in scan order
    idx = np.arange(grid.values.size).reshape(shape)
    finer = np.concatenate([np.take(idx, range(1, n), axis=a).ravel() for a, n in enumerate(shape)])
    coarser = np.concatenate(
        [np.take(idx, range(0, n - 1), axis=a).ravel() for a, n in enumerate(shape)]
    )

    def ratios(vals):
        flat = vals.ravel()
        return flat[finer] / flat[coarser]

    r = ratios(grid.values)
    tied = np.nonzero(r >= r.max() - 4 * np.spacing(r.max()))[0]
    assert len(tied) >= 10
    witness = {finer[tied[0]], coarser[tied[0]]}
    assert grid.values.ravel()[finer[tied[0]]] == want.lhs
    moved = 0
    for cell in tied[1:]:
        for entry, toward in ((finer[cell], np.inf), (coarser[cell], 0.0)):
            if entry in witness:
                continue
            vals = grid.values.copy().ravel()
            vals[entry] = np.nextafter(vals[entry], toward)
            ws.values = vals.reshape(shape)
            (got,), _ = _check_lemma1_monotone(ws, lp, sp.k)
            assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
            moved += int(np.argmax(ratios(ws.values))) != int(np.argmax(r))
    assert moved > 0
