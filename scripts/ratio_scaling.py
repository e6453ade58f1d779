#!/usr/bin/env python3
"""Ratio drift under degree growth.

For each comparison functional, track the corpus max ratio as the corpus
degree cap doubles. Flat curves mean the comparison constants are genuinely
uniform; a rising curve would point at a degree-dependent constant (or a
harness bug). Emits CSV: check,dim,max_degree,ratio_min,ratio_max,max_fid,
where max_fid names the row of the max ratio (the first such row on a tie).

    python scripts/ratio_scaling.py --dim 3 --degrees 4,8

gives the m = 3 deg 4 and 8 rows of the lemma5_inverse ladder in ROADMAP.md
item 1 (max ratio 0.3935 at single_block/1@n=3, then 1.714 at
single_block/2@n=3; about 30 s on a 2-core x86_64 host).
"""

import argparse
import csv
import sys

from mixsmooth.core import LorentzParams, SmoothParams
from mixsmooth.verify import VerifyConfig, Workspace, generate_corpus, run_check

CHECKS = (
    "lemma1_deriv",
    "lemma2_bernstein",
    "lemma4_direct",
    "lemma5_inverse",
    "thm1",
    "thm2",
    "thm3",
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--tau", type=float, default=1.5)
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--b", type=float, default=0.0)
    ap.add_argument("--degrees", default="8,16,32,64")
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)

    lp = LorentzParams(args.p, args.tau)
    sp = SmoothParams(args.theta, (args.b,) * args.dim)
    cfg = VerifyConfig(stability=False, windows=None)

    rows = []
    for degree in (int(d) for d in args.degrees.split(",")):
        corpus = generate_corpus(seed=args.seed, dim=args.dim, max_degree=degree)
        ws = Workspace(corpus, cfg)
        for check in CHECKS:
            rep = run_check(check, corpus, lp, sp, config=cfg, workspace=ws)
            if rep.stats is None:
                continue
            top = max((r for r in rep.rows if r.ratio is not None), key=lambda r: r.ratio)
            rows.append((check, args.dim, degree, rep.stats["min"], rep.stats["max"], top.fid))
            print(f"{check} deg<={degree}: [{rep.stats['min']:.4g}, {rep.stats['max']:.4g}]"
                  f" max at {top.fid}", file=sys.stderr)

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["check", "dim", "max_degree", "ratio_min", "ratio_max", "max_fid"])
    writer.writerows([c, d, m, repr(lo), repr(hi), fid] for c, d, m, lo, hi, fid in rows)
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
