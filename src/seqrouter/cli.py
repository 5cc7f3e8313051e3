"""Command-line interface: data generation, training, evaluation, sweeps,
trace export, and gradient checks."""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    from .gradchecks import MODULES
    from .tasks import TASKS

    parser = argparse.ArgumentParser(prog="seqrouter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a task dataset")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--train-size", type=int, default=None,
                   help="override the default train split size")
    p.add_argument("--eval-size", type=int, default=None,
                   help="override the default size of each evaluation split")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--override", action="append", default=[], metavar="key=value")
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--test-steps", type=int, default=None)
    p.add_argument("--data", default=None, help="dataset directory (defaults to the checkpoint's)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="train once per value of one config axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, metavar="key=v1,v2,...")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace", help="export attention/gate traces for one input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="whitespace-separated tokens")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("grad-check", help="run the named gradient checks")
    p.add_argument("--module", default=None, choices=MODULES)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def cmd_gen_data(args) -> int:
    from . import tasks

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    plan = tasks.default_plan(args.task)
    if args.train_size is not None or args.eval_size is not None:
        from .tasks.data import SplitPlan, SplitSpec
        specs = []
        for s in plan.splits:
            size = s.size
            if s.name == "train" and args.train_size is not None:
                size = args.train_size
            elif s.name != "train" and args.eval_size is not None:
                size = args.eval_size
            specs.append(SplitSpec(s.name, s.depths, size))
        plan = SplitPlan(tuple(specs))
    splits = tasks.generate_to_dir(args.task, args.seed, args.out, plan, workers=args.workers)
    for name, samples in splits.items():
        print(f"{name}: {len(samples)} samples")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    from .config import apply_overrides, load_config
    from .train import train

    cfg = apply_overrides(load_config(args.config), args.override)
    cfg.out_dir = args.out
    result = train(cfg, resume=args.resume, quiet=False)
    print(f"best valid_ood accuracy {result.best_accuracy:.4f} at iteration {result.best_iteration}")
    print(f"checkpoints: {result.best_path} (best), {result.last_path} (last)")
    return 0


def cmd_eval(args) -> int:
    from .train import evaluate_checkpoint

    acc = evaluate_checkpoint(args.checkpoint, args.split, test_steps=args.test_steps,
                              data_dir=args.data)
    print(f"{args.split} accuracy: {acc:.4f}")
    return 0


def cmd_sweep(args) -> int:
    from .config import load_config
    from .train import sweep

    if "=" not in args.axis:
        raise ValueError("axis must look like key=v1,v2,...")
    key, raw = args.axis.split("=", 1)
    values = [v.strip() for v in raw.split(",") if v.strip()]
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    rows = sweep(cfg, key.strip(), values)
    width = max(len(str(r["value"])) for r in rows)
    print(f"{'value':>{width}}  valid_ood  test")
    for r in rows:
        print(f"{r['value']:>{width}}  {r['valid_ood']:9.4f}  {r['test']:.4f}")
    return 0


def cmd_trace(args) -> int:
    from . import tasks
    from .checkpoint import load_checkpoint
    from .trace import capture, export

    model, _, header = load_checkpoint(args.checkpoint)
    task = header.get("task")
    if task is None:
        raise ValueError("checkpoint does not record its task")
    vocab = tasks.vocab_for_task(task)
    tokens = args.input.split()
    trace = capture(model, tokens, vocab, steps=args.steps)
    index = export(trace, args.out)
    print(json.dumps(index, indent=1, sort_keys=True))
    return 0


def cmd_grad_check(args) -> int:
    from .gradchecks import TOLERANCE, run_checks

    results = run_checks(args.module)
    failed = False
    for name, err in results.items():
        status = "PASS" if err < TOLERANCE else "FAIL"
        failed |= status == "FAIL"
        print(f"{name:35s} max rel err {err:.3e}  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
