"""Write a workload's seeded host files: the benchmark's timed set-up.

Run as a fresh interpreter so that the measured set-up time covers what a
user pays before the first command: interpreter start, ``import
localbalance`` (the census builds its class tables at import) and host
generation and writing.

    python3 perfbench/gen_inputs.py --workload census --seed 1 --scale full --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import localbalance  # noqa: F401  (part of the measured set-up)
    from workloads import write_inputs

    write_inputs(args.workload, args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
