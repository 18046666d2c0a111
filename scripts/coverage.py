#!/usr/bin/env python3
"""Line coverage of src/ per subsystem, from a --coverage build tree.

Runs gcov (JSON intermediate format, to stdout) over every .gcda under the
build tree, merges line hits across translation units (a header line counts
as covered if any unit executed it), and prints covered/total lines for
each src/<subsystem> plus the total. Exits 1 when the total is below
--floor or when a --seam file has no covered line.

  scripts/coverage.py BUILD_DIR --floor PCT [--seam src/path ...]

Used by `scripts/check.sh --coverage`.
"""
import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep


def gcov_documents(build_dir):
    gcdas = []
    for root, _, files in os.walk(build_dir):
        gcdas.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    for i in range(0, len(gcdas), 64):
        out = subprocess.run(["gcov", "--json-format", "--stdout", *gcdas[i:i + 64]],
                             cwd=build_dir, capture_output=True, text=True, check=True)
        for line in out.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--floor", type=float, required=True)
    ap.add_argument("--seam", action="append", default=[])
    args = ap.parse_args()

    hits = defaultdict(dict)  # src-relative path -> line -> executed
    for doc in gcov_documents(os.path.abspath(args.build_dir)):
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(SRC):
                continue
            lines = hits[os.path.relpath(path, REPO)]
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[n] = lines.get(n, False) or ln["count"] > 0

    per_sub = defaultdict(lambda: [0, 0])
    for path, lines in hits.items():
        sub = path.split(os.sep)[1]
        per_sub[sub][0] += sum(lines.values())
        per_sub[sub][1] += len(lines)
    if not per_sub:
        print("coverage: no gcov data found under", args.build_dir)
        return 1

    covered = sum(c for c, _ in per_sub.values())
    total = sum(t for _, t in per_sub.values())
    for sub in sorted(per_sub):
        c, t = per_sub[sub]
        print(f"  {sub:<10} {100.0 * c / t:6.1f}%  ({c}/{t} lines)")
    pct = 100.0 * covered / total
    print(f"  {'TOTAL':<10} {pct:6.1f}%  ({covered}/{total} lines), floor {args.floor:.1f}%")

    ok = pct >= args.floor
    for seam in args.seam:
        lines = hits.get(seam, {})
        c = sum(lines.values())
        share = 100.0 * c / len(lines) if lines else 0.0
        print(f"  seam {seam}: {share:.1f}% ({c}/{len(lines)} lines)")
        ok = ok and c > 0
    if pct < args.floor:
        print(f"coverage {pct:.1f}% is below the floor {args.floor:.1f}%")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
