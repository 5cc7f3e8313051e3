#!/usr/bin/env python3
"""Full-scale training recipes and their published accuracy targets.

These runs are CPU-days at full size; this script prints the exact
commands (or executes them with --run) and records the targets each
configuration is expected to hit, mean +/- std over 5 seeds:

    task                         split            target
    ctl_fwd / ctl_bwd            test (9-10 ops)  1.00 +/- 0.00
    arith                        test (7-8 ops)   0.98 +/- 0.01
    listops                      test (7-8 deps)  0.99 +/- 0.01

Usage:
    python scripts/reproduce_tables.py            # print the recipe
    python scripts/reproduce_tables.py --run      # execute sequentially
    python scripts/reproduce_tables.py --seeds 0 1 2 3 4
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RECIPES = [
    ("ctl_fwd", "configs/ctl_ndr.cfg", []),
    ("ctl_bwd", "configs/ctl_ndr.cfg", ["--override", "task=ctl_bwd",
                                        "--override", "data_dir=data/ctl_bwd"]),
    ("arith", "configs/arith_ndr.cfg", []),
    ("listops", "configs/listops_ndr.cfg", []),
]


def commands(seeds):
    cmds = []
    for task, _, _ in RECIPES:
        gen = [sys.executable, "-m", "seqrouter.cli", "gen-data", "--task", task,
               "--seed", "0", "--out", f"data/{task}",
               "--workers", str(os.cpu_count() or 1)]
        cmds.append(gen)
    for task, config, extra in RECIPES:
        for seed in seeds:
            cmds.append([sys.executable, "-m", "seqrouter.cli", "train",
                         "--config", config, "--out", f"runs/{task}_seed{seed}",
                         "--override", f"seed={seed}", *extra])
            cmds.append([sys.executable, "-m", "seqrouter.cli", "eval",
                         "--checkpoint", f"runs/{task}_seed{seed}/best.ckpt",
                         "--split", "test"])
    return cmds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run", action="store_true", help="execute instead of printing")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args()

    for cmd in commands(args.seeds):
        line = " ".join(cmd[1:] if cmd[0] == sys.executable else cmd)
        print(f"python {line}")
        if args.run:
            subprocess.run(cmd, cwd=ROOT, check=True)
    if not args.run:
        print("\n(pass --run to execute; expect CPU-days at full scale)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
