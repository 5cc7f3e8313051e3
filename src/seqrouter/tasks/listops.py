"""Prefix list operations (sum mod 10, min, max, floored median) over
digits, with splits controlled by dependency depth: the depth of the parse
tree after pruning every branch no operation actually selected. That
guarantee keeps deep samples genuinely deep, so shallow heuristics cannot
shortcut them."""

from __future__ import annotations

import math
from functools import partial

from ..rng import RngTree
# MAX_TOKENS is re-exported: the benchmark pads ListOps batches to it.
from .data import (DIGITS, MAX_TOKENS, Sample, SplitPlan, SplitSpec, Vocab, draw_tree,
                   generate_splits)

OP_PROB = 0.3
MAX_ARGS = 5
OPS = ("SM", "MIN", "MAX", "MED")


def vocab() -> Vocab:
    return Vocab(DIGITS + ("[", "]") + OPS, DIGITS)


def default_plan() -> SplitPlan:
    return SplitPlan((
        SplitSpec("train", (0, 1, 2, 3, 4, 5), 1_000_000),
        SplitSpec("valid_iid", (0, 1, 2, 3, 4, 5), 1000),
        SplitSpec("valid_ood", (6,), 1000),
        SplitSpec("test", (7, 8), 1000),
    ))


# Trees are either an int digit or (op_name, [children]).


def tree_tokens(tree) -> list[str]:
    if isinstance(tree, int):
        return [str(tree)]
    out = ["[", tree[0]]
    for child in tree[1]:
        out.extend(tree_tokens(child))
    out.append("]")
    return out


def listops_eval(tree) -> int:
    if isinstance(tree, int):
        return tree
    op, children = tree
    if not children:
        raise ValueError(f"operation {op} has no arguments")
    values = [listops_eval(c) for c in children]
    if op == "SM":
        return sum(values) % 10
    if op == "MIN":
        return min(values)
    if op == "MAX":
        return max(values)
    if op == "MED":
        ordered = sorted(values)
        k = len(ordered)
        mid = ordered[k // 2] if k % 2 == 1 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2
        return int(math.floor(mid))
    raise ValueError(f"unknown operation {op!r}")


def _selected_indices(op: str, values: list[int]) -> list[int]:
    """Which argument positions the operation actually uses: min/max keep
    the (first) extremal argument, median keeps the middle one or two, sum
    keeps everything."""
    if op == "SM":
        return list(range(len(values)))
    if op == "MIN":
        return [values.index(min(values))]
    if op == "MAX":
        return [values.index(max(values))]
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    k = len(order)
    if k % 2 == 1:
        return [order[k // 2]]
    return [order[k // 2 - 1], order[k // 2]]


def dependency_depth(tree) -> int:
    """Depth of the tree after pruning branches not selected by any
    operation; never exceeds the parse depth."""
    if isinstance(tree, int):
        return 0
    op, children = tree
    values = [listops_eval(c) for c in children]
    kept = _selected_indices(op, values)
    return 1 + max(dependency_depth(children[i]) for i in kept)


def _n_args(draws) -> int:
    return 1 + draws.randint(MAX_ARGS)


def _attempt(draws, target_depth: int) -> Sample | None:
    tree = draw_tree(draws, target_depth, OP_PROB, OPS, _n_args)
    if tree is None or dependency_depth(tree) != target_depth:
        return None
    return Sample(tuple(tree_tokens(tree)), str(listops_eval(tree)),
                  target_depth, dep_depth=target_depth)


def generate(plan: SplitPlan, seed: int, workers: int = 1) -> dict[str, list[Sample]]:
    return generate_splits(plan, RngTree(seed, "listops/data"),
                           lambda depth: partial(_attempt, target_depth=depth), workers)
