"""Command-line front end.

Subcommands compute single quantities (norm, blocks, modulus, angle), emit
plot-ready parameter sweeps (sweep), or run the ratio-verification suite
(verify).  Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 failed verification verdict.

Inline function mini-language: "cos:3" is cos(3 x1), "prod(cos:3,cos:5)" a
tensor product, "lacunary:rho=1,smax=5" a lacunary cosine sum, "zero" the
zero polynomial.  Anything else must be a path to a coefficient JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .approx import jackson_kernel, kernel_moment, kernel_residual_norm
from .core import (
    GridTooCoarse,
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    cosine,
    default_grid_shape,
    tensor,
)
from .lorentz import norm_with_refinement
from .seqnorms import seq_norm_B, norm_bold_B
from .smoothness import TailNotConverged, mixed_modulus, modulus_grid
from .spectral import angle_residual_norms, block_norms
from .verify import (
    CHECK_NAMES,
    UnknownCheck,
    VerifyConfig,
    Workspace,
    _dyadic_levels,
    default_threads,
    generate_corpus,
    lacunary,
    load_golden_windows,
    parallel_map,
    run_check,
)

__all__ = ["main", "parse_function"]


# ---------------------------------------------------------------------------
# function mini-language


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidParams(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InvalidParams(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_function(spec: str) -> TrigPoly:
    spec = spec.strip()
    if spec == "zero":
        return TrigPoly.zero(1)
    if spec.startswith("prod(") and spec.endswith(")"):
        parts = _split_top(spec[len("prod(") : -1])
        if not parts:
            raise InvalidParams("prod(...) needs at least one factor")
        return tensor(*[parse_function(p) for p in parts])
    if spec.startswith("cos:"):
        try:
            freq = int(spec[len("cos:") :])
        except ValueError:
            raise InvalidParams(f"cos: wants an integer frequency, got {spec!r}") from None
        return cosine(freq)
    if spec.startswith("lacunary:"):
        kv = {}
        for item in spec[len("lacunary:") :].split(","):
            if "=" not in item:
                raise InvalidParams(f"lacunary: wants key=value pairs, got {item!r}")
            key, _, val = item.partition("=")
            kv[key.strip()] = val.strip()
        rho = float(kv.pop("rho", "1"))
        smax = int(kv.pop("smax", "5"))
        if kv:
            raise InvalidParams(f"lacunary: unknown keys {sorted(kv)}")
        return lacunary(rho, smax)
    if spec.endswith(".json") or os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return TrigPoly.from_json_dict(json.load(fh))
    raise InvalidParams(
        f"cannot parse function spec {spec!r}; expected cos:N, prod(...), "
        "lacunary:rho=..,smax=.., zero, or a JSON file path"
    )


def _float_list(text: str, dim: int, name: str) -> tuple[float, ...]:
    vals = [float(v) for v in str(text).split(",")]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise InvalidParams(f"--{name} wants 1 or {dim} comma-separated values, got {text!r}")
    return tuple(vals)


def _int_list(text: str, dim: int, name: str) -> tuple[int, ...]:
    vals = _float_list(text, dim, name)
    if not all(v.is_integer() for v in vals):
        raise InvalidParams(f"--{name} wants integers, got {text!r}")
    return tuple(int(v) for v in vals)


def _require_ring(f: TrigPoly, kind: str):
    bad = f.ring_violation_axes()
    if bad:
        axes = ", ".join(str(a + 1) for a in bad)
        raise InvalidParams(
            f"--kind {kind} needs a zero mean along every axis; "
            f"the mean over axis {axes} is nonzero"
        )


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args) -> int:
    f = parse_function(args.fn)
    lp = LorentzParams(args.p, args.tau)
    if args.kind == "lorentz":
        value, delta = norm_with_refinement(f, lp)
    else:
        sp = SmoothParams(args.theta, _float_list(args.b, f.dim, "b"), _int_list(args.k, f.dim, "k"))
        _require_ring(f, args.kind)
        base = default_grid_shape(f.dim, f.degree)
        fine = tuple(2 * n for n in base)
        if args.kind == "seqB":
            coarse = seq_norm_B(f, lp, sp, shape=base)
            value = seq_norm_B(f, lp, sp, shape=fine)
        else:
            nu = _int_list(args.levels, f.dim, "levels") if args.levels else None
            coarse = norm_bold_B(f, lp, sp, nu_max=nu, h_grid=args.h_grid, shape=base)
            value = norm_bold_B(f, lp, sp, nu_max=nu, h_grid=args.h_grid, shape=fine)
        delta = abs(value - coarse) / value if value > 0 else 0.0
    print(f"{args.kind} = {value!r}")
    print(f"grid-convergence delta = {delta:.3e}")
    if args.json:
        payload = {
            "kind": args.kind,
            "value": value,
            "delta": delta,
            "p": lp.p,
            "tau": lp.tau,
            "fn": args.fn,
        }
        _write_text(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_blocks(args) -> int:
    f = parse_function(args.fn)
    lp = LorentzParams(args.p, args.tau)
    norms = block_norms(f, lp)
    header = [f"s{j + 1}" for j in range(f.dim)] + ["norm"]
    rows = [list(s) + [v] for s, v in sorted(norms.items())]
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_modulus(args) -> int:
    f = parse_function(args.fn)
    lp = LorentzParams(args.p, args.tau)
    k = _int_list(args.k, f.dim, "k")
    levels = _int_list(args.levels, f.dim, "levels")
    grid = modulus_grid(f, k, lp, levels, h_grid=args.h_grid)
    header = (
        [f"nu{j + 1}" for j in range(f.dim)]
        + [f"t{j + 1}" for j in range(f.dim)]
        + ["omega"]
    )
    rows = []
    for idx in np.ndindex(*grid.values.shape):
        nu = [i + 1 for i in idx]
        t = [float(grid.t_values[j][i]) for j, i in enumerate(idx)]
        rows.append(nu + t + [float(grid.values[idx])])
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_angle(args) -> int:
    f = parse_function(args.fn)
    lp = LorentzParams(args.p, args.tau)
    k = _int_list(args.k, f.dim, "k")
    if args.cutoffs:
        levels = [int(v) for v in str(args.cutoffs).split(",")]
    else:
        levels = _dyadic_levels(1, max(f.tight_degree()))
    header = [f"l{j + 1}" for j in range(f.dim)] + ["angle_residual", "kernel_residual"]
    cutoffs = [(float(l),) * f.dim for l in levels]
    surrogates = angle_residual_norms(f, cutoffs, lp) if cutoffs else []
    rows = []
    for l, y in zip(levels, surrogates):
        bound = kernel_residual_norm(f, (l,) * f.dim, lp, k)
        rows.append([l] * f.dim + [float(y), float(bound)])
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_sweep(args) -> int:
    threads = args.threads if args.threads else default_threads()
    if args.kind == "kernel-moment":
        ls = [l for l in (2**j for j in range(3, 20)) if args.l_min <= l <= args.l_max]
        header = ["l", "mu", "moment"]

        def row(l):
            return [l, args.mu, float(kernel_moment(jackson_kernel(l, args.kernel_k), args.mu))]

        rows = parallel_map(row, ls, threads)
    elif args.kind == "modulus":
        f = parse_function(args.fn)
        lp = LorentzParams(args.p, args.tau)
        k = _int_list(args.k, f.dim, "k")
        ts = list(np.linspace(args.t_min, args.t_max, args.steps)) if args.steps > 0 else []
        header = ["t", "omega"]

        def row(t):
            return [float(t), float(mixed_modulus(f, (float(t),) * f.dim, k, lp, h_grid=args.h_grid))]

        rows = parallel_map(row, ts, threads)
    elif args.kind == "angle":
        f = parse_function(args.fn)
        lp = LorentzParams(args.p, args.tau)
        ls = _dyadic_levels(args.l_min, args.l_max)
        header = ["l", "angle_residual"]

        def row(l):
            return [l, float(angle_residual_norms(f, [(float(l),) * f.dim], lp)[0])]

        rows = parallel_map(row, ls, threads)
    else:  # pragma: no cover - argparse choices guard this
        raise InvalidParams(f"unknown sweep kind {args.kind!r}")
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_verify(args) -> int:
    if args.check != "all" and args.check not in CHECK_NAMES:
        raise UnknownCheck(
            f"{args.check!r} is not a registered check; choose from "
            + ", ".join(CHECK_NAMES)
            + ", or all"
        )
    checks = list(CHECK_NAMES) if args.check == "all" else [args.check]
    dim = args.m
    max_degree = args.max_degree if args.max_degree else (16 if dim == 1 else 8)
    lp = LorentzParams(args.p, args.tau)
    sp = SmoothParams(args.theta, _float_list(args.b, dim, "b"), _int_list(args.k, dim, "k"))
    threads = args.threads if args.threads else default_threads()
    windows = None if args.no_windows else load_golden_windows()
    config = VerifyConfig(h_grid=args.h_grid, stability=not args.no_stability, windows=windows)
    corpus = generate_corpus(args.seed, dim, max_degree)
    ws = Workspace(corpus, config)
    os.makedirs(args.out, exist_ok=True)

    def one(check):
        return run_check(check, corpus, lp, sp, workspace=ws)

    reports = parallel_map(one, checks, threads)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for rep in reports:
        with open(os.path.join(args.out, f"{rep.check}.json"), "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
        with open(
            os.path.join(args.out, f"{rep.check}.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write(rep.to_csv())
        counts[rep.verdict] += 1
        print(rep.summary_line())
    print(
        f"verify: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped']} skipped -> {args.out}/"
    )
    return 4 if counts["fail"] else 0


# ---------------------------------------------------------------------------
# parser


def _add_function_args(sub, with_smooth=False):
    sub.add_argument("--fn", required=True, help="function spec (mini-language or JSON path)")
    sub.add_argument("--p", type=float, default=2.0, help="primary integrability index (default 2)")
    sub.add_argument("--tau", type=float, default=2.0, help="secondary index (default 2)")
    if with_smooth:
        sub.add_argument("--theta", type=float, default=1.0, help="summation index, inf allowed (default 1)")
        sub.add_argument("--b", default="0", help="log-weight exponents, scalar or comma list (default 0)")
    sub.add_argument("--k", default="1", help="difference orders, scalar or comma list (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsmooth",
        description="Mixed-smoothness norms, moduli, and verification suite on the torus.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_norm = subs.add_parser("norm", help="compute one norm with a grid-convergence delta")
    p_norm.add_argument(
        "--kind", choices=("lorentz", "seqB", "boldB"), default="lorentz",
        help="which norm to compute (default lorentz)",
    )
    _add_function_args(p_norm, with_smooth=True)
    p_norm.add_argument("--h-grid", type=int, default=17, help="modulus lattice points per axis (default 17)")
    p_norm.add_argument(
        "--levels", default=None,
        help="explicit boldB seminorm levels per axis (default: auto-extend)",
    )
    p_norm.add_argument("--json", default=None, help="also write a JSON record to this path")
    p_norm.set_defaults(func=cmd_norm)

    p_blocks = subs.add_parser("blocks", help="per-block norms as CSV")
    _add_function_args(p_blocks)
    p_blocks.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_blocks.set_defaults(func=cmd_blocks)

    p_mod = subs.add_parser("modulus", help="dyadic modulus grid as CSV")
    _add_function_args(p_mod)
    p_mod.add_argument("--levels", default="6", help="dyadic levels per axis (default 6)")
    p_mod.add_argument("--h-grid", type=int, default=17, help="lattice points per axis (default 17)")
    p_mod.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_mod.set_defaults(func=cmd_modulus)

    p_angle = subs.add_parser("angle", help="angle residual and kernel bound per cutoff as CSV")
    _add_function_args(p_angle)
    p_angle.add_argument("--cutoffs", default=None, help="comma list of cutoffs (default dyadic)")
    p_angle.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_angle.set_defaults(func=cmd_angle)

    p_sweep = subs.add_parser("sweep", help="parameter sweeps emitting plot-ready CSV")
    p_sweep.add_argument(
        "--kind", choices=("kernel-moment", "modulus", "angle"), required=True,
        help="which sweep to run",
    )
    p_sweep.add_argument("--fn", default="cos:1", help="function spec for modulus/angle sweeps")
    p_sweep.add_argument("--p", type=float, default=2.0, help="primary index (default 2)")
    p_sweep.add_argument("--tau", type=float, default=2.0, help="secondary index (default 2)")
    p_sweep.add_argument("--k", default="1", help="difference orders (default 1)")
    p_sweep.add_argument("--kernel-k", type=int, default=1, help="kernel smoothness order (default 1)")
    p_sweep.add_argument("--mu", type=int, default=1, help="kernel moment order (default 1)")
    p_sweep.add_argument("--l-min", type=int, default=8, help="smallest degree (default 8)")
    p_sweep.add_argument("--l-max", type=int, default=128, help="largest degree (default 128)")
    p_sweep.add_argument("--t-min", type=float, default=math.pi / 16, help="smallest step (default pi/16)")
    p_sweep.add_argument("--t-max", type=float, default=math.pi, help="largest step (default pi)")
    p_sweep.add_argument("--steps", type=int, default=16, help="number of sweep points (default 16)")
    p_sweep.add_argument("--h-grid", type=int, default=17, help="modulus lattice points (default 17)")
    p_sweep.add_argument("--threads", type=int, default=0, help="workers (default MIXSMOOTH_THREADS or 1)")
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subs.add_parser("verify", help="run registered ratio checks on a seeded corpus")
    p_verify.add_argument("--check", default="all", help="check name or all (default all)")
    p_verify.add_argument("--m", type=int, default=1, help="dimension (default 1)")
    p_verify.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    p_verify.add_argument(
        "--max-degree", type=int, default=0,
        help="corpus degree cap (default 16 for m=1, 8 otherwise)",
    )
    p_verify.add_argument("--p", type=float, default=3.0, help="primary index (default 3)")
    p_verify.add_argument("--tau", type=float, default=1.5, help="secondary index (default 1.5)")
    p_verify.add_argument("--theta", type=float, default=1.0, help="summation index (default 1)")
    p_verify.add_argument("--b", default="0", help="log-weight exponents (default 0)")
    p_verify.add_argument("--k", default="1", help="difference orders (default 1)")
    p_verify.add_argument("--h-grid", type=int, default=9, help="modulus lattice points (default 9)")
    p_verify.add_argument("--threads", type=int, default=0, help="workers (default MIXSMOOTH_THREADS or 1)")
    p_verify.add_argument("--no-stability", action="store_true", help="skip the degree-doubling probe")
    p_verify.add_argument("--no-windows", action="store_true", help="ignore frozen golden windows")
    p_verify.add_argument("--out", default="verify-out", help="report directory (default verify-out)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GridTooCoarse, TailNotConverged, ArithmeticError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidParams, UnknownCheck, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
