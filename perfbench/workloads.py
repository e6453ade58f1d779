"""The benchmark's four workloads: seeded inputs, one timed pass, correctness gate.

Every workload drives the public API in-process.  ``setup`` is what a user
pays before the work starts (golden-window load, corpus generation, Workspace
construction); ``run_pass`` is one timed pass and returns item latencies plus
the gate's verdict on every item.  The program receives only the generated
inputs: the seed goes to ``generate_corpus`` and to ``verify --seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The reference battery of scripts/freeze_golden.py.
BATTERY_LP = ((2.0, 2.0), (3.0, 1.5), (3.0, 3.0))
BATTERY_SP = (
    (1.0, -0.25), (1.0, 0.0), (1.0, 1.0),
    (2.0, -0.25), (2.0, 0.0), (2.0, 1.0),
    (math.inf, 1.0),
)
DIM = 2

# Gate expectations.  At m=2 deg 8 every report passes for every seed tried;
# the norm identities hold to roundoff.
EXPECTED_VERDICT = "pass"
IDENTITY_RTOL = 1e-12


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies_s: list[float]  # process CPU time per item
    attempted: int
    failures: list[str] = field(default_factory=list)
    report_bytes: int = 0


def verdict_failures(verdicts: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Gate for report verdicts: every expected check reports the expected verdict."""
    return [f"{c}: verdict {verdicts.get(c)!r}, expected {v!r}"
            for c, v in expected.items() if verdicts.get(c) != v]


def value_failure(label: str, value: float, expected: float | None = None) -> str | None:
    """Gate for one library value: finite, and equal to ``expected`` to IDENTITY_RTOL."""
    if not math.isfinite(value):
        return f"{label}: non-finite value {value!r}"
    if expected is not None and abs(value - expected) > IDENTITY_RTOL * abs(expected):
        return f"{label}: {value!r} differs from {expected!r}"
    return None


def coefficient_l2(poly) -> float:
    """L2 norm on the unit-measure torus from the coefficients alone (Parseval)."""
    return float(np.sqrt(np.sum(np.abs(poly.coeffs) ** 2)))


class VerifyWorkload:
    """``mixsmooth verify --check all --m 2`` through ``cli.main``, in-process."""

    def __init__(self, name: str, degree: int = 8, threads: int = 1):
        self.name, self.degree, self.threads = name, degree, threads

    def setup(self, prog, seed: int):
        # cli.main builds its own corpora and Workspaces; these are built only
        # so that setup_s covers what a verify invocation pays before checks.
        verify = prog.verify
        config = verify.VerifyConfig(windows=verify.load_golden_windows(), threads=self.threads)
        corpus = verify.generate_corpus(seed, DIM, self.degree)
        doubled = verify.generate_corpus(seed, DIM, 2 * self.degree)
        return seed, verify.Workspace(corpus, config), verify.Workspace(doubled, config)

    def run_pass(self, prog, state, scratch: Path, tracer=None) -> PassResult:
        seed = state[0]
        out = scratch / f"verify-{self.name}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["verify", "--check", "all", "--m", str(DIM), "--max-degree", str(self.degree),
                "--seed", str(seed), "--threads", str(self.threads), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            wall, cpu = time.perf_counter(), time.process_time()
            rc = prog.cli.main(argv)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        verdicts = {}
        report_bytes = 0
        for path in sorted(out.iterdir()):
            report_bytes += path.stat().st_size
            if path.suffix == ".json":
                verdicts[path.stem] = json.loads(path.read_text())["verdict"]
        shutil.rmtree(out)
        expected = {c: EXPECTED_VERDICT for c in prog.verify.CHECK_NAMES}
        failures = verdict_failures(verdicts, expected)
        if rc != 0 and not failures:
            failures.append(f"verify exited with code {rc}")
        # Per-check latency depends on which check builds shared grids
        # first, so the item timed here is the whole invocation.
        return PassResult(wall, cpu, [cpu], len(expected), failures, report_bytes)


class BatteryWorkload:
    """The golden-window reference battery at m=2 on one shared Workspace."""

    def __init__(self, name: str, degree: int = 8):
        self.name, self.degree = name, degree

    def setup(self, prog, seed: int):
        verify = prog.verify
        config = verify.VerifyConfig(stability=False, windows=verify.load_golden_windows())
        corpus = verify.generate_corpus(seed, DIM, self.degree)
        return corpus, config, verify.Workspace(corpus, config)

    def run_pass(self, prog, state, scratch: Path, tracer=None) -> PassResult:
        corpus, config, _ = state  # the set-up Workspace only times construction
        core, verify = prog.core, prog.verify
        run = tracer.bench_item if tracer else (lambda call: call())
        latencies, failures = [], []
        wall, cpu = time.perf_counter(), time.process_time()
        ws = verify.Workspace(corpus, config)
        for p, tau in BATTERY_LP:
            lp = core.LorentzParams(p, tau)
            for theta, b in BATTERY_SP:
                sp = core.SmoothParams(theta, (b,) * DIM, 1)
                for check in verify.CHECK_NAMES:
                    t0 = time.process_time()
                    rep = run(lambda: verify.run_check(check, corpus, lp, sp, config, workspace=ws))
                    latencies.append(time.process_time() - t0)
                    if rep.verdict != EXPECTED_VERDICT:
                        failures.append(f"{check}@p={p},tau={tau},theta={theta},b={b}: "
                                        f"verdict {rep.verdict!r} ({rep.notes})")
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return PassResult(wall, cpu, latencies, len(latencies), failures)


class NormsWorkload:
    """Library norm calls on a deg-32 corpus at default grids; no modulus work."""

    CALLS = ("poly_norm", "seq_norm_B", "theorem1_rhs", "theorem2_rhs",
             "theorem3_lower", "theorem3_upper")

    def __init__(self, name: str, degree: int = 32):
        self.name, self.degree = name, degree

    def setup(self, prog, seed: int):
        return prog.verify.generate_corpus(seed, DIM, self.degree)

    def _call(self, prog, kind: str, f, lp, sp) -> float:
        if kind == "poly_norm":
            return prog.lorentz.poly_norm(f, lp)
        if kind == "seq_norm_B":
            return prog.seqnorms.seq_norm_B(f, lp, sp)
        if kind == "theorem1_rhs":
            return prog.seqnorms.theorem1_rhs(f, lp, sp)
        if kind == "theorem2_rhs":
            return prog.seqnorms.theorem2_rhs(f, lp, sp)
        return prog.seqnorms.theorem3_norm(f, lp, sp, kind.removeprefix("theorem3_"))

    def run_pass(self, prog, corpus, scratch: Path, tracer=None) -> PassResult:
        core = prog.core
        run = tracer.bench_item if tracer else (lambda call: call())
        # theta = 2, b = 0 makes seq_norm_B at (p, tau) = (2, 2) the plain L2
        # norm of f, since dyadic blocks are orthogonal.
        sp = core.SmoothParams(2.0, (0.0,) * DIM, 1)
        latencies, values = [], []
        wall, cpu = time.perf_counter(), time.process_time()
        for p, tau in BATTERY_LP:
            lp = core.LorentzParams(p, tau)
            for cf in corpus:
                for kind in self.CALLS:
                    t0 = time.process_time()
                    value = run(lambda: self._call(prog, kind, cf.poly, lp, sp))
                    latencies.append(time.process_time() - t0)
                    values.append((f"{kind}({cf.fid})@p={p},tau={tau}", kind, cf.poly, p, tau, value))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        failures = []
        for label, kind, poly, p, tau, value in values:
            exact = (p, tau) == (2.0, 2.0) and kind in ("poly_norm", "seq_norm_B")
            failure = value_failure(label, value, coefficient_l2(poly) if exact else None)
            if failure:
                failures.append(failure)
        return PassResult(wall, cpu, latencies, len(values), failures)


# name -> (class, default corpus degree, extra arguments)
WORKLOADS = {
    "verify-m2": (VerifyWorkload, 8, {"threads": 1}),
    "battery-m2": (BatteryWorkload, 8, {}),
    "norms-m2-d32": (NormsWorkload, 32, {}),
    "verify-m2-t2": (VerifyWorkload, 8, {"threads": 2}),
}


def build(name: str, degree: int | None = None):
    """Workload by name; ``degree`` overrides the corpus degree (tests use 2)."""
    cls, default_degree, extra = WORKLOADS[name]
    return cls(name, degree=default_degree if degree is None else degree, **extra)
