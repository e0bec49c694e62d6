#!/usr/bin/env python3
"""Walk through the limit counterexamples at a chosen depth, with witnesses.

The last line gives the elapsed seconds (from building the tower to the last
verdict) and the process's peak resident memory, so deep runs can be
compared:  python3 scripts/gallery_demo.py --depth 128
"""
import argparse
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from forcebench.free_algebra import format_free, generator
from forcebench.gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit
from forcebench.iteration import ConstantThread, coordinate


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--depth", type=int, default=16)
    args = parser.parse_args()

    started = time.perf_counter()
    tower = build_fresh_tower(args.depth)
    print(f"fresh tower to depth {args.depth}")
    t2 = ConstantThread(2, ~generator("y1") & generator("y0"))
    print("  sample family member t_2 at coordinates 0..3:")
    for n in range(4):
        print(f"    {n}: {format_free(coordinate(tower, t2, n))}")

    for label, audit in (
        ("supremum gap", sup_gap_audit),
        ("pointwise-meet incompatibility", wedge_meet_audit),
    ):
        report = audit(args.depth, tower)
        print(f"{label}: {'PASS' if report.passed else 'FAIL'}")
        for name, claim in report.claims.items():
            mark = "ok " if claim.passed else "XXX"
            extra = f" ({claim.witness})" if claim.witness and not claim.passed else ""
            print(f"  [{mark}] {name} @ depth {claim.certified_depth}{extra}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"elapsed {time.perf_counter() - started:.2f} s, peak RSS {peak_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
