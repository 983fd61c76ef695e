"""Reproduce Table 1: statistics of the (analog) graphs.

    python jobs/table1_stats.py [--scale 1.0]
"""
from _util import base_parser


def main() -> None:
    args = base_parser(__doc__).parse_args()
    from repro.evalx.datasets import ALL
    from repro.evalx.harness import fmt_rows
    from repro.evalx.table1 import TABLE1_COLS, table1_ref

    rows = table1_ref(args.names or ALL, scale=args.scale)
    print(fmt_rows(rows, TABLE1_COLS, title="Table 1 (ref engine)"))


if __name__ == "__main__":
    main()
