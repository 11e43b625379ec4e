"""Cell census child: bulk orbit enumeration at one n, then refinements of
every top cell.

Usage: python perfbench/census.py --n 6 --seed 0 --out PATH

Writes one JSON object to PATH: the class count for each diagonal count k,
their Euler characteristic, the refinement count of every top cell and
the summed orbit sizes.  The seed only shuffles the order in which the k
values and the top cells are visited; every result is order-independent.
"""

import argparse
import json
import random

from bringcover import cells


def census(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    ks = list(range(n - 2))
    rng.shuffle(ks)
    classes = {k: cells.enumerate_cells(n, k) for k in ks}
    tops = list(classes[0])
    rng.shuffle(tops)
    refined = {c.to_text(): len(cells.refinements(c)) for c in tops}
    counts = [len(classes[k]) for k in range(n - 2)]
    return {
        "n": n,
        "counts": counts,
        # a class with k diagonals is a cell of dimension n - 3 - k
        "chi": sum((-1) ** (n - 3 - k) * c for k, c in enumerate(counts)),
        "refinements": [refined[t] for t in sorted(refined)],
        "orbit_keys": sum(c.orbit_size for k in ks for c in classes[k]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(census(args.n, args.seed), fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
