#!/usr/bin/env python3
"""Compare two report trees (or two files) float by float, in units in the last place.

A change that reorders floating-point work moves last bits without moving
any verdict.  This script states how far: A and B must hold the same files;
in each pair every non-float field (verdicts, check and row names, counts,
notes) must be equal, and every float must lie within MAX_ULPS units in the
last place of its counterpart.  It prints the worst ulp count of each file
and exits 1 when any file pair mismatches, 0 otherwise.

JSON files (verify and battery reports) are compared as documents, so a row
or key that appears on one side only is a mismatch.  Any other file (CSV
reports, scripts/norm_values.py output) is compared token by token: lines
split at commas and whitespace, equal tokens pass, and two tokens that both
parse as floats are compared in ulps.

    python scripts/compare_reports.py A B
"""

import argparse
import json
import math
import re
import struct
import sys
from pathlib import Path

MAX_ULPS = 8
_SPLIT = re.compile(r"[,\s]+")


def ulps(a: float, b: float) -> int:
    """Distance between two float64 values in representable steps (0 for equal or two NaNs)."""
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else sys.maxsize
    return abs(_ordered(a) - _ordered(b))


def _ordered(x: float) -> int:
    # the float64 bits as an integer that increases with x; -0.0 and 0.0 meet at 0
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _walk(a, b, where: str, worst: list[int], problems: list[str]) -> None:
    # JSON documents: same structure and non-float leaves, floats within ulps
    if isinstance(a, float) and isinstance(b, float):
        d = ulps(a, b)
        worst[0] = max(worst[0], d)
        if d > MAX_ULPS:
            problems.append(f"{where}: {a!r} vs {b!r} ({d} ulps)")
    elif type(a) is not type(b):
        problems.append(f"{where}: {a!r} vs {b!r} (different types)")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            problems.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
            return
        for key in a:
            _walk(a[key], b[key], f"{where}.{key}", worst, problems)
    elif isinstance(a, list):
        if len(a) != len(b):
            problems.append(f"{where}: {len(a)} vs {len(b)} entries")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", worst, problems)
    elif a != b:
        problems.append(f"{where}: {a!r} vs {b!r}")


def _as_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _compare_text(a: str, b: str, worst: list[int], problems: list[str]) -> None:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        problems.append(f"{len(lines_a)} vs {len(lines_b)} lines")
        return
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        ta, tb = _SPLIT.split(la), _SPLIT.split(lb)
        if len(ta) != len(tb):
            problems.append(f"line {number}: {la!r} vs {lb!r}")
            continue
        for x, y in zip(ta, tb):
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            if fx is None or fy is None:
                problems.append(f"line {number}: {x!r} vs {y!r}")
                continue
            d = ulps(fx, fy)
            worst[0] = max(worst[0], d)
            if d > MAX_ULPS:
                problems.append(f"line {number}: {x} vs {y} ({d} ulps)")


def compare_files(a: Path, b: Path) -> tuple[int, list[str]]:
    """Worst ulp count of one file pair and the mismatches found in it."""
    worst, problems = [0], []
    text_a, text_b = a.read_text(), b.read_text()
    if a.suffix == ".json":
        _walk(json.loads(text_a), json.loads(text_b), "$", worst, problems)
    else:
        _compare_text(text_a, text_b, worst, problems)
    return worst[0], problems


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reference tree or file")
    parser.add_argument("b", type=Path, help="tree or file to compare with it")
    args = parser.parse_args(argv)
    if args.a.is_dir() != args.b.is_dir():
        parser.error("A and B must both be directories or both be files")
    if args.a.is_dir():
        names_a, names_b = _files(args.a), _files(args.b)
        if names_a != names_b:
            only = sorted(set(names_a) ^ set(names_b))
            print(f"FAIL: the trees hold different files: {[str(p) for p in only]}")
            return 1
        pairs = [(str(n), args.a / n, args.b / n) for n in names_a]
    else:
        pairs = [(args.b.name, args.a, args.b)]
    failed = 0
    overall = 0
    for name, a, b in pairs:
        worst, problems = compare_files(a, b)
        overall = max(overall, worst)
        print(f"{worst:>4} ulps  {name}")
        for problem in problems:
            print(f"      FAIL {problem}")
        failed += bool(problems)
    print(f"{len(pairs)} files, worst {overall} ulps (bound {MAX_ULPS}), {failed} with mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
