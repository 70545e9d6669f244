#!/usr/bin/env python3
"""Track the lattice-discretization error of the expected systole.

For each resolution N the script prints, per graph type and for the full
mixture, the lattice expectation of the systole and its distance from the
exact rational value.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covermeasure import (  # noqa: E402
    SYSTOLE,
    build_limit_measure,
    integrate_exact,
    lattice_sigma,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--N-list", default="30,60,120")
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    args = ap.parse_args()

    mixture = build_limit_measure(args.rank)
    exact_blocks = [integrate_exact(block.graph, SYSTOLE) for block in mixture.blocks]
    exact_mix = sum(w * e for w, e in zip(mixture.weights, exact_blocks))
    rows = []
    for n_str in args.N_list.split(","):
        n = int(n_str)
        mix_value = Fraction(0)
        per_block = {}
        for block, weight, exact_block in zip(mixture.blocks, mixture.weights,
                                              exact_blocks):
            block_value = lattice_sigma(block.graph, n).expectation(SYSTOLE)
            per_block[block.graph.canonical_id()] = {
                "lattice": float(block_value),
                "error": float(block_value - exact_block),
            }
            mix_value += weight * block_value
        rows.append({
            "N": n,
            "lattice_expectation": float(mix_value),
            "abs_error": abs(float(mix_value - exact_mix)),
            "blocks": per_block,
        })

    if args.json:
        print(json.dumps({"exact": float(exact_mix), "rows": rows}, indent=2))
        return
    print(f"exact mixture expectation: {exact_mix} = {float(exact_mix):.8f}")
    for row in rows:
        print(f"N={row['N']:4d}  E_N[systole]={row['lattice_expectation']:.8f}"
              f"  |error|={row['abs_error']:.8f}")


if __name__ == "__main__":
    main()
