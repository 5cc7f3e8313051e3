"""Task generators with exact oracles and depth-disjoint splits."""

from __future__ import annotations

from pathlib import Path

from . import arithmetic, ctl, listops
from .data import (Sample, SplitPlan, SplitSpec, Vocab, load_split, read_manifest,
                   write_dataset)

# Task name -> generator module and the keyword options its generate and
# manifest_entry take (the lookup task's presentation order).
_TABLE = {
    "ctl_fwd": (ctl, {"order": "forward"}),
    "ctl_bwd": (ctl, {"order": "backward"}),
    "arith": (arithmetic, {}),
    "listops": (listops, {}),
}
TASKS = tuple(_TABLE)


def _lookup(task: str):
    if task not in _TABLE:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    return _TABLE[task]


def vocab_for_task(task: str) -> Vocab:
    return _lookup(task)[0].vocab()


def default_plan(task: str) -> SplitPlan:
    return _lookup(task)[0].default_plan()


def generate(task: str, seed: int, plan: SplitPlan | None = None,
             workers: int = 1) -> dict[str, list[Sample]]:
    module, options = _lookup(task)
    return module.generate(plan or module.default_plan(), seed, workers=workers, **options)


def generate_to_dir(task: str, seed: int, out_dir, plan: SplitPlan | None = None,
                    workers: int = 1) -> dict[str, list[Sample]]:
    module, options = _lookup(task)
    plan = plan or module.default_plan()
    splits = generate(task, seed, plan, workers)
    manifest = {"format": 1, "task": task, "seed": seed, "plan": plan.to_jsonable()}
    if module is ctl:
        manifest["ctl"] = ctl.manifest_entry(seed, **options)
    write_dataset(out_dir, splits, manifest)
    return splits


def dataset_task(data_dir) -> str:
    return read_manifest(Path(data_dir))["task"]
