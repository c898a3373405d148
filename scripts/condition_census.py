#!/usr/bin/env python3
"""Census of surviving share conditions across an entitlement grid.

For every entitlement a = k/q on a grid and every item count m, count how
many of the m candidate conditions survive dominance filtration. Shows how
much work the filter saves before any share value is computed.
"""
from __future__ import annotations

import argparse
from fractions import Fraction

from mmsfair.pairs import non_dominated_pairs


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--denominator", type=int, default=12, help="entitlement grid step q")
    parser.add_argument("--max-items", type=int, default=12)
    parser.add_argument("--show-survivors", action="store_true")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    q = args.denominator
    header = ["a"] + [f"m={m}" for m in range(1, args.max_items + 1)]
    print("  ".join(f"{h:>6}" for h in header))
    worst = 0
    for k in range(1, q + 1):
        a = Fraction(k, q)
        counts = []
        for m in range(1, args.max_items + 1):
            survivors = non_dominated_pairs(a, m)
            counts.append(len(survivors))
            worst = max(worst, len(survivors))
            if args.show_survivors:
                print(f"a={a} m={m}: {' '.join(str(p) for p in survivors)}")
        if not args.show_survivors:
            print("  ".join(f"{c:>6}" for c in [str(a)] + [str(c) for c in counts]))
    print(f"max survivors anywhere on the grid: {worst} (of up to {args.max_items} candidates)")


if __name__ == "__main__":
    main()
