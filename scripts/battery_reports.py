#!/usr/bin/env python3
"""Write every report of the reference battery, for byte-for-byte comparisons.

Runs the 16 registered checks over the battery of scripts/freeze_golden.py:
3 (p, tau) x 7 (theta, b) at m = 1 (deg 16) and m = 2 (deg 8), h_grid 9, no
stability probe, no windows.  Each report is written as JSON and CSV to

    OUT/m<dim>/p<p>_tau<tau>/theta<theta>_b<b>/<check>.{json,csv}

672 reports in all.  By default every check of one dimension shares one
Workspace, as freeze_golden.py does; --fresh-workspace gives each check its
own, so `diff -r` of the two trees shows whether caching moved any byte.

    python scripts/battery_reports.py OUT [SEED] [--fresh-workspace]
"""

import argparse
import os

from freeze_golden import BATTERY_LP, BATTERY_SP
from mixsmooth.core import LorentzParams, SmoothParams
from mixsmooth.verify import CHECK_NAMES, VerifyConfig, Workspace, generate_corpus, run_check

DIMS = ((1, 16), (2, 8))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory for the report tree")
    parser.add_argument("seed", nargs="?", type=int, default=7, help="corpus seed (default 7)")
    parser.add_argument(
        "--fresh-workspace",
        action="store_true",
        help="give every check its own Workspace instead of one per dimension",
    )
    args = parser.parse_args(argv)

    config = VerifyConfig(h_grid=9, stability=False, windows=None)
    written = 0
    for dim, max_degree in DIMS:
        corpus = generate_corpus(args.seed, dim, max_degree)
        shared = Workspace(corpus, config)
        for p, tau in BATTERY_LP:
            lp = LorentzParams(p, tau)
            for theta, b in BATTERY_SP:
                sp = SmoothParams(theta, (b,) * dim, 1)
                folder = os.path.join(args.out, f"m{dim}", f"p{p}_tau{tau}", f"theta{theta}_b{b}")
                os.makedirs(folder, exist_ok=True)
                for check in CHECK_NAMES:
                    ws = Workspace(corpus, config) if args.fresh_workspace else shared
                    rep = run_check(check, corpus, lp, sp, config, workspace=ws)
                    base = os.path.join(folder, check)
                    with open(base + ".json", "w", encoding="utf-8") as fh:
                        fh.write(rep.to_json())
                    with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
                        fh.write(rep.to_csv())
                    written += 1
    print(f"wrote {written} reports to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
