#!/usr/bin/env python3
"""Print multiplicity polynomials and decomposition tables over a small grid.

Usage: python scripts/multiplicity_grid.py [MAX_N] [MAX_D]
"""

import sys

from fmc.genfun import multiplicity_table, recurrence_egf
from fmc.polyseries import format_poly


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    max_d = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    for d in range(1, max_d + 1):
        print(f"== d = {d} ==")
        for n, h in enumerate(recurrence_egf(max_n, d)[1:], start=1):
            print(f"h_{n} = {format_poly(h)}")
        table = multiplicity_table(max_n, d)
        print(f"decomposition of X[{max_n}]:")
        for m in range(max_n, 0, -1):
            row = table.row_poly(m)
            if not row.is_zero:
                power = "X" if m == 1 else f"X^{m}"
                print(f"  {power} row: {format_poly(row)}")
        print()


if __name__ == "__main__":
    main()
