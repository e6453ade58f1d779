"""Acceptance battery.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Shared workspaces keep the battery inside the desk-scale
budget; criteria 5-7 reuse the same cached norms and modulus lattices.
"""

import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mixsmooth.approx import angle_surrogate, jackson_kernel, kernel_moment
from mixsmooth.cli import main as cli_main
from mixsmooth.core import LorentzParams, SmoothParams, cosine, evaluate_on_grid, tensor
from mixsmooth.core import default_grid_shape
from mixsmooth.lorentz import lorentz_norm, poly_norm
from mixsmooth.smoothness import mixed_modulus
from mixsmooth.spectral import angle_operator, decompose, partial_sum
from mixsmooth.verify import (
    VerifyConfig,
    Workspace,
    generate_corpus,
    load_golden_windows,
    run_check,
)

from test_spectral import ring_poly

SQ2 = math.sqrt(2.0)

# battery grids: three Lorentz pairs, every admissible (theta, b) from
# theta in {1, 2, inf} x b in {-0.25, 0, 1} (theta = inf forces b > 0)
BATTERY_LP = ((2.0, 2.0), (3.0, 1.5), (3.0, 3.0))
BATTERY_SP = (
    (1.0, -0.25),
    (1.0, 0.0),
    (1.0, 1.0),
    (2.0, -0.25),
    (2.0, 0.0),
    (2.0, 1.0),
    (math.inf, 1.0),
)


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def sp_for(dim, theta, b, k=1):
    return SmoothParams(theta, (b,) * dim, (k,) * dim)


@pytest.fixture(scope="module")
def golden():
    return load_golden_windows()


@pytest.fixture(scope="module")
def cfg(golden):
    return VerifyConfig(h_grid=9, stability=True, stability_factor=2.0, windows=golden)


@pytest.fixture(scope="module")
def corpus1():
    return generate_corpus(seed=7, dim=1, max_degree=16)


@pytest.fixture(scope="module")
def corpus2():
    return generate_corpus(seed=7, dim=2, max_degree=8)


@pytest.fixture(scope="module")
def ws1(corpus1, cfg):
    return Workspace(corpus1, cfg)


@pytest.fixture(scope="module")
def ws2(corpus2, cfg):
    return Workspace(corpus2, cfg)


def _battery(check_names, corpus, cfg, ws, lps=BATTERY_LP, sps=BATTERY_SP):
    """Run checks over the parameter battery; return failures and skips."""
    failures = []
    skips = []
    for p, tau in lps:
        lp = LorentzParams(p, tau)
        for theta, b in sps:
            sp = sp_for(corpus.dim, theta, b)
            for name in check_names:
                rep = run_check(name, corpus, lp, sp, config=cfg, workspace=ws)
                tag = f"{name} dim={corpus.dim} p={p} tau={tau} theta={theta} b={b}"
                if rep.verdict == "fail":
                    failures.append(f"{tag}: {rep.notes}")
                elif rep.verdict == "skipped":
                    skips.append(f"{tag}: {rep.notes}")
    return failures, skips


# --- criterion 1: tau = p collapses to plain L_p ----------------------------


def test_criterion_1_norm_consistency():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for i in range(100):
        dim = 1 if i % 2 == 0 else 2
        degree = int(rng.integers(1, 13 if dim == 1 else 7))
        f = ring_poly(rng, dim, degree)
        p = float(rng.choice([1.5, 2.0, 3.0, 4.5]))
        shape = default_grid_shape(dim, f.degree)
        samples = np.abs(evaluate_on_grid(f, shape))
        direct = float(np.mean(samples**p) ** (1.0 / p))
        got = lorentz_norm(samples, LorentzParams(p, p))
        if direct > 0:
            worst = max(worst, abs(got - direct) / direct)
            count += 1
    _report(1, count == 100 and worst <= 1e-10,
            f"{count} members, worst relative gap {worst:.3e} (tolerance 1e-10)")


# --- criterion 2: decomposition and inclusion-exclusion are exact ----------------


def test_criterion_2_decomposition_exactness(corpus1, corpus2):
    bad = []
    for corpus in (corpus1, corpus2):
        for cf in corpus.functions:
            g = decompose(cf.poly).reconstruct()
            if not np.array_equal(g.coeffs, cf.poly.coeffs):
                bad.append(f"reconstruct {cf.fid} dim={corpus.dim}")
    for cf in corpus2.functions:
        f = cf.poly
        n1, n2 = f.degree
        for l in ((1, 1), (2, 3), (0, 2)):
            lhs = angle_operator(f, l)
            rhs = partial_sum(f, (l[0], n2)) + partial_sum(f, (n1, l[1])) - partial_sum(f, l)
            same = all(rhs.coeff(k) == c for k, c in lhs.nonzero_entries()) and all(
                lhs.coeff(k) == c for k, c in rhs.nonzero_entries()
            )
            if not same:
                bad.append(f"inclusion-exclusion {cf.fid} l={l}")
    _report(2, not bad, f"{len(bad)} violations" + (f": {bad[:3]}" if bad else
            f" across {len(corpus1.functions) + len(corpus2.functions)} members"))


# --- criterion 3: kernel mass and moment decay ----------------------------------


def test_criterion_3_jackson_kernel():
    ls = [8, 16, 32, 64, 128]
    mass_err = 0.0
    for l in ls:
        for k in (1, 2):
            kern = jackson_kernel(l, k)
            mass = kern.as_trig_poly().coeff((0,)).real * 2.0 * math.pi
            mass_err = max(mass_err, abs(mass - 1.0))
    slopes = {}
    for mu in (1, 2):
        moments = [kernel_moment(jackson_kernel(l, mu), mu) for l in ls]
        slopes[mu] = float(np.polyfit(np.log(ls), np.log(moments), 1)[0])
    ok = mass_err <= 1e-8 and all(abs(slopes[mu] + mu) <= 0.15 * mu for mu in (1, 2))
    _report(3, ok, f"mass error {mass_err:.2e}, slopes mu=1: {slopes[1]:.3f}, mu=2: {slopes[2]:.3f}")


# --- criterion 4: lemma suite ---------------------------------------------------


LEMMA_CHECKS = (
    "lemma1_monotone",
    "lemma1_subadd",
    "lemma1_deriv",
    "lemma2_bernstein",
    "lemma4_direct",
    "lemma5_inverse",
)


def test_criterion_4_lemma_suite(corpus1, corpus2, cfg, ws1, ws2):
    lp = LorentzParams(3.0, 1.5)
    failures = []
    for corpus, ws in ((corpus1, ws1), (corpus2, ws2)):
        sp = sp_for(corpus.dim, 1.0, 0.0)
        for name in LEMMA_CHECKS:
            rep = run_check(name, corpus, lp, sp, config=cfg, workspace=ws)
            if rep.verdict != "pass":
                failures.append(f"{name} dim={corpus.dim}: {rep.verdict} ({rep.notes})")
    _report(4, not failures,
            f"{2 * len(LEMMA_CHECKS)} lemma checks green" if not failures else "; ".join(failures))


# --- criterion 5: theorem 1/2/3 battery inside frozen windows -------------------


def test_criterion_5_equivalence_battery(corpus1, corpus2, cfg, ws1, ws2):
    checks = ("thm1", "thm2", "thm3")
    f1, s1 = _battery(checks, corpus1, cfg, ws1)
    f2, s2 = _battery(checks, corpus2, cfg, ws2)
    failures = f1 + f2
    combos = len(BATTERY_LP) * len(BATTERY_SP) * len(checks) * 2
    _report(5, not failures and not (s1 + s2),
            f"{combos} battery combos inside frozen windows, doubling growth < 2x"
            if not failures else "; ".join(failures[:4]))


# --- criterion 6: theorem 4 embeddings where proven, skipped elsewhere --------


def test_criterion_6_embeddings(corpus1, corpus2, cfg, ws1, ws2):
    checks = ("thm4_lower", "thm4_upper")
    f1, s1 = _battery(checks, corpus1, cfg, ws1)
    f2, s2 = _battery(checks, corpus2, cfg, ws2)
    failures = f1 + f2 + s1 + s2  # every battery pair is in the proven table
    # an uncovered pair must come back skipped, not guessed
    rep = run_check("thm4_lower", corpus1, LorentzParams(2.0, 3.0), sp_for(1, 1.0, 0.0), config=cfg)
    if rep.verdict != "skipped":
        failures.append(f"uncovered pair returned {rep.verdict}")
    _report(6, not failures,
            "both embedding sides hold on covered pairs; uncovered pair skipped"
            if not failures else "; ".join(failures[:4]))


# --- criterion 7: theorem 5 orderings ------------------------------------------


def test_criterion_7_tau_theta_orderings(corpus1, corpus2, cfg, ws1, ws2):
    failures = []
    gated = 0
    for corpus, ws in ((corpus1, ws1), (corpus2, ws2)):
        f_1, s_1 = _battery(("thm5_1",), corpus, cfg, ws)
        failures += f_1 + s_1  # monotonicity has no gate: must run and hold
        f_23, s_23 = _battery(("thm5_23",), corpus, cfg, ws)
        failures += f_23
        gated += len(s_23)  # certificate may refuse; refusal is not failure
    _report(7, not failures,
            f"orderings hold corpus-wide ({gated} combos gated off by the certificate)"
            if not failures else "; ".join(failures[:4]))


# --- criterion 8: closed-form spot checks ------------------------------------


def test_criterion_8_spot_oracles():
    L2 = LorentzParams(2.0, 2.0)
    worst_mod = 0.0
    for t in np.linspace(0.05, math.pi, 12):
        got = mixed_modulus(cosine(1), (float(t),), (1,), L2)
        worst_mod = max(worst_mod, abs(got - SQ2 * math.sin(t / 2.0)))
    norm_err = abs(poly_norm(cosine(1), L2) - 1.0 / SQ2)
    surro = angle_surrogate(tensor(cosine(2), cosine(2)), (1, 1), L2)
    surro_err = abs(surro - 0.5)
    ok = worst_mod <= 1e-3 and norm_err <= 1e-4 and surro_err <= 1e-3
    _report(8, ok,
            f"modulus gap {worst_mod:.2e}, norm gap {norm_err:.2e}, surrogate gap {surro_err:.2e}")


# --- criterion 9: byte-identical reruns ---------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    dirs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["verify", "--check", "all", "--seed", "7", "--out", str(out)])
        assert code == 0
        dirs.append(out)
    files_a = sorted(p.name for p in dirs[0].iterdir())
    files_b = sorted(p.name for p in dirs[1].iterdir())
    same_names = files_a == files_b
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files_a, shallow=False)
    ok = same_names and not mismatch and not errors
    _report(9, ok,
            f"{len(files_a)} report files byte-identical across runs"
            if ok else f"mismatch: {mismatch or errors}")
