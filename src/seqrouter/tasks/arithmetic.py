"""Nested modulo-10 arithmetic over + and *, fully parenthesized binary
operations with single-digit leaves. Depth counts operations along the
deepest path, ignoring leaves."""

from __future__ import annotations

from functools import partial

from ..rng import RngTree
from .data import Sample, SplitPlan, SplitSpec, Vocab, generate_splits

OP_PROB = 0.2
MAX_TOKENS = 50
DIGITS = tuple(str(d) for d in range(10))
OPS = ("+", "*")


class ParseError(ValueError):
    pass


def vocab() -> Vocab:
    return Vocab(DIGITS + ("(", ")", "+", "*"), DIGITS)


def default_plan() -> SplitPlan:
    return SplitPlan((
        SplitSpec("train", (0, 1, 2, 3, 4, 5), 100_000),
        SplitSpec("valid_iid", (0, 1, 2, 3, 4, 5), 1000),
        SplitSpec("valid_ood", (6,), 1000),
        SplitSpec("test", (7, 8), 1000),
    ))


# Trees are either an int digit or ("+"|"*", left, right).


def tree_depth(tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + max(tree_depth(tree[1]), tree_depth(tree[2]))


def tree_tokens(tree) -> list[str]:
    if isinstance(tree, int):
        return [str(tree)]
    return ["("] + tree_tokens(tree[1]) + [tree[0]] + tree_tokens(tree[2]) + [")"]


def eval_tree(tree) -> int:
    if isinstance(tree, int):
        return tree
    a, b = eval_tree(tree[1]), eval_tree(tree[2])
    return (a + b) % 10 if tree[0] == "+" else (a * b) % 10


def arith_eval(tokens) -> int:
    """Recursive-descent evaluation of a token sequence; every operation is
    bracketed, every leaf is one digit."""
    tokens = list(tokens)
    pos = 0

    def parse() -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            left = parse()
            if pos >= len(tokens) or tokens[pos] not in OPS:
                raise ParseError(f"expected operator at position {pos}")
            op = tokens[pos]
            pos += 1
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError(f"expected ')' at position {pos}")
            pos += 1
            return (left + right) % 10 if op == "+" else (left * right) % 10
        if tok in DIGITS:
            pos += 1
            return int(tok)
        raise ParseError(f"unexpected token {tok!r} at position {pos}")

    value = parse()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens from position {pos}")
    return value


class _Abort(Exception):
    """Candidate tree is already certain to be rejected."""


def _gen_tree(draws, budget: int, size: list):
    """One unconstrained subtree draw; raises _Abort as soon as the depth
    budget or token cap is exceeded, which is equivalent to rejecting the
    finished tree."""
    if draws.u01() < OP_PROB:
        return _gen_op(draws, budget, size)
    size[0] += 1
    if size[0] > MAX_TOKENS:
        raise _Abort
    return draws.randint(10)


def _gen_op(draws, budget: int, size: list):
    if budget == 0:
        raise _Abort
    size[0] += 3
    if size[0] > MAX_TOKENS:
        raise _Abort
    op = OPS[draws.randint(2)]
    left = _gen_tree(draws, budget - 1, size)
    right = _gen_tree(draws, budget - 1, size)
    return (op, left, right)


def _attempt(draws, target_depth: int) -> Sample | None:
    size = [0]
    try:
        if target_depth == 0:
            tree = draws.randint(10)
            size[0] = 1
        else:
            tree = _gen_op(draws, target_depth, size)
    except _Abort:
        return None
    if tree_depth(tree) != target_depth:
        return None
    tokens = tree_tokens(tree)
    if len(tokens) > MAX_TOKENS:
        return None
    return Sample(tuple(tokens), str(eval_tree(tree)), target_depth)


def generate(plan: SplitPlan, seed: int, workers: int = 1) -> dict[str, list[Sample]]:
    return generate_splits(plan, RngTree(seed, "arith/data"),
                           lambda depth: partial(_attempt, target_depth=depth), workers)
