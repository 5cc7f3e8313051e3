#!/usr/bin/env python3
"""Desk-scale end-to-end run: generate a shallow lookup dataset (depths
1-3 train, 4-5 held out), train the small gated geometric encoder from
configs/ctl_smoke.cfg, and report accuracy plus a routing diagnostic.
Finishes in a few minutes on a laptop CPU.

Usage: python scripts/smoke_ctl.py [--out runs/smoke] [--iters 5000]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from seqrouter import tasks
from seqrouter.checkpoint import load_checkpoint
from seqrouter.config import load_config
from seqrouter.tasks.ctl import SMOKE_PLAN
from seqrouter.trace import capture, frontier_monotonicity
from seqrouter.train import evaluate_model, train


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="runs/smoke")
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    out = Path(args.out)
    cfg = load_config(ROOT / "configs" / "ctl_smoke.cfg")
    if args.iters is not None:
        cfg.n_iters = args.iters
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.data_dir = str(out / "data")
    cfg.out_dir = str(out / "run")

    if not (Path(cfg.data_dir) / "manifest.json").exists():
        print("generating reduced lookup dataset (depths 1-3 train, 4-5 held out)")
        tasks.generate_to_dir("ctl_fwd", seed=cfg.seed, out_dir=cfg.data_dir, plan=SMOKE_PLAN)

    result = train(cfg, quiet=False)

    vocab = tasks.vocab_for_task("ctl_fwd")
    best_model, _, _ = load_checkpoint(result.best_path)
    for split in ("valid_iid", "test"):
        acc = evaluate_model(best_model, tasks.load_split(cfg.data_dir, split), vocab)
        print(f"{split}: {acc:.4f}")

    # Soft routing diagnostic: on forward-order lookups the step at which
    # each column's gate opens should tend to increase left to right.
    sample = tasks.load_split(cfg.data_dir, "test")[0]
    trace = capture(best_model, list(sample.tokens), vocab)
    mono = frontier_monotonicity(trace.gates.means())
    print(f"gate-frontier monotonicity on one test example: {mono:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
