#!/usr/bin/env python3
"""Tabulate Folner defects and tempered constants for box sequences.

For each window F_n the script prints the exact defect |KF delta F| / |F|
against K = {e, e_1, ..., e_rank}, the identity and the unit coordinate
vectors, and the tempered ratio |F_{n-1}^{-1} F_n| / |F_n|. Everything is
exact rational arithmetic.

Usage:
    python scripts/folner_diagnostics.py --group zd:2 --n-max 12
    python scripts/folner_diagnostics.py --group heisenberg --n-max 4
"""

import argparse

from fiberent.folner import folner_defect, validate_sequence, window_folner
from fiberent.groups import HeisenbergGroup, ZdGroup, subset_from_coords

GROUPS = {g.tag: g for g in (ZdGroup(1), ZdGroup(2), ZdGroup(3), HeisenbergGroup())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=GROUPS, default="zd:2")
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")

    group = GROUPS[args.group]
    seq = window_folner(group, range(1, args.n_max + 1))
    rank = group.rank
    K = subset_from_coords(group, [(0,) * rank] + [
        tuple(int(i == axis) for i in range(rank)) for axis in range(rank)])
    report = validate_sequence(seq)
    print(f"group={group.tag} sets={len(seq.sets)} K=identity+generators")
    print(f"validation: identity={report.identity_ok} nested={report.nested_ok} "
          f"sizes={report.size_ok} strict={report.size_strict} "
          f"max_tempered={report.max_tempered}")
    print(f"{'n':>4} {'|F_n|':>8} {'defect':>16} {'~':>10} {'tempered':>12} {'~':>8}")
    for n in range(1, len(seq.sets) + 1):
        F = seq.set(n)
        defect = folner_defect(K, F)
        if n >= 2:
            tc = report.tempered[n - 2]
            tc_cols = f"{str(tc):>12} {float(tc):>8.4f}"
        else:
            tc_cols = f"{'':>12} {'':>8}"
        print(f"{n:>4} {len(F):>8} {str(defect):>16} {float(defect):>10.4f} {tc_cols}")


if __name__ == "__main__":
    main()
