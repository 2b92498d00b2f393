#!/usr/bin/env python3
"""Tabulate Folner defects and tempered constants for box sequences.

For each window F_n the script prints the exact defect |KF delta F| / |F|
against a chosen finite set K, and the tempered ratio
|F_{n-1}^{-1} F_n| / |F_n|. Everything is exact rational arithmetic.

Usage:
    python scripts/folner_diagnostics.py --group zd:2 --n-max 12
    python scripts/folner_diagnostics.py --group heisenberg --n-max 4
"""

import argparse

from fiberent.folner import (
    box_folner,
    folner_defect,
    heisenberg_folner,
    validate_sequence,
)
from fiberent.groups import HeisenbergGroup, ZdGroup, subset_from_coords


def generator_set(group):
    if isinstance(group, HeisenbergGroup):
        coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        coords = [tuple(0 for _ in range(group.d))]
        for axis in range(group.d):
            coords.append(tuple(1 if i == axis else 0 for i in range(group.d)))
    return subset_from_coords(group, coords)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=("zd:1", "zd:2", "zd:3", "heisenberg"),
                        default="zd:2")
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    if args.group == "heisenberg":
        group = HeisenbergGroup()
        seq = heisenberg_folner(args.n_max)
    else:
        group = ZdGroup(int(args.group.split(":")[1]))
        seq = box_folner(group.d, args.n_max)

    K = generator_set(group)
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
