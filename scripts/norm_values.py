#!/usr/bin/env python3
"""Write repr-exact values of the library norm functionals, one per line.

Evaluates the calls of the norms-m2-d32 benchmark workload (poly_norm,
seq_norm_B, theorem1_rhs, theorem2_rhs and theorem3_norm on both sides, at
theta = 2, b = 0, k = 1) on every member of the reference corpus, for the
battery (p, tau) of scripts/freeze_golden.py, at m = 1, 2 and 3 (deg 8) and
at m = 2 (deg 32), on the default grids.  scripts/battery_reports.py covers
the verify Workspace; these are the public library entry points, each
sampling and reducing on its own, so `diff` of the outputs of two source
trees (or of two BLAS thread counts) shows whether a pipeline change moved
any bit.  810 lines; about 8 s (7.6 s on a 2-core x86_64 host).

    python scripts/norm_values.py OUT [SEED]
"""

import argparse

from freeze_golden import BATTERY_LP
from mixsmooth.core import LorentzParams, SmoothParams
from mixsmooth.lorentz import poly_norm
from mixsmooth.seqnorms import seq_norm_B, theorem1_rhs, theorem2_rhs, theorem3_norm
from mixsmooth.verify import generate_corpus

DIMS = ((1, 8), (2, 8), (3, 8), (2, 32))
CALLS = {
    "poly_norm": lambda f, lp, sp: poly_norm(f, lp),
    "seq_norm_B": seq_norm_B,
    "theorem1_rhs": theorem1_rhs,
    "theorem2_rhs": theorem2_rhs,
    "theorem3_lower": lambda f, lp, sp: theorem3_norm(f, lp, sp, "lower"),
    "theorem3_upper": lambda f, lp, sp: theorem3_norm(f, lp, sp, "upper"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="file for the values")
    parser.add_argument("seed", nargs="?", type=int, default=7, help="corpus seed (default 7)")
    args = parser.parse_args(argv)

    written = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for dim, max_degree in DIMS:
            sp = SmoothParams(2.0, (0.0,) * dim, 1)
            corpus = generate_corpus(args.seed, dim, max_degree)
            for p, tau in BATTERY_LP:
                lp = LorentzParams(p, tau)
                for cf in corpus:
                    for kind, call in CALLS.items():
                        value = call(cf.poly, lp, sp)
                        fh.write(f"m{dim} deg{max_degree} {cf.fid} p{p} tau{tau} {kind} {value!r}\n")
                        written += 1
    print(f"wrote {written} values to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
