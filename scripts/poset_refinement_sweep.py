#!/usr/bin/env python3
"""Experimental sweep: is the dualized weight partition always finer than the
transposed order's weight partition?

For hierarchical posets with equal orders inside each level the two are equal;
whether the refinement holds for every poset is an open question. This script
only reports what it finds and asserts nothing.

Usage: python3 scripts/poset_refinement_sweep.py [max_n] [orders...]
Defaults: max_n = 4, orders 2 and 3.
"""

import sys
from collections import Counter

from dualpart import GroupSpec, all_posets, poset_duality_check


def sweep(max_n: int, orders: list[int]) -> None:
    for n in range(1, max_n + 1):
        posets = list(all_posets(n))
        for q in orders:
            if q ** n > 4096:
                print(f"n={n} q={q}: carrier too large, skipped")
                continue
            grp = GroupSpec((q,) * n)
            tally: Counter[str] = Counter()
            holds = 0
            for p in posets:
                rep = poset_duality_check(p, grp)
                if rep["dual_refines_transposed"]:
                    holds += 1
                if rep["equal"]:
                    tally["equal"] += 1
                elif rep["dual_refines_transposed"]:
                    tally["strictly finer"] += 1
                elif rep["transposed_refines_dual"]:
                    tally["strictly coarser"] += 1
                else:
                    tally["incomparable"] += 1
            total = len(posets)
            print(f"n={n} q={q}: {total} labeled posets; "
                  f"dual refines transposed in {holds}/{total}")
            for key in ("equal", "strictly finer", "strictly coarser", "incomparable"):
                if tally[key]:
                    print(f"    {key}: {tally[key]}")
            if holds < total:
                print("    counterexample found to the refinement question")


def main() -> None:
    args = sys.argv[1:]
    max_n = int(args[0]) if args else 4
    orders = [int(x) for x in args[1:]] or [2, 3]
    sweep(max_n, orders)


if __name__ == "__main__":
    main()
