"""Nested modulo-10 arithmetic over + and *, fully parenthesized binary
operations with single-digit leaves. Depth counts operations along the
deepest path, ignoring leaves."""

from __future__ import annotations

from functools import partial

from ..rng import RngTree
from .data import DIGITS, Sample, SplitPlan, SplitSpec, Vocab, draw_tree, generate_splits

OP_PROB = 0.2
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


# Trees are either an int digit or ("+"|"*", [left, right]).


def tree_tokens(tree) -> list[str]:
    if isinstance(tree, int):
        return [str(tree)]
    op, (left, right) = tree
    return ["("] + tree_tokens(left) + [op] + tree_tokens(right) + [")"]


def eval_tree(tree) -> int:
    if isinstance(tree, int):
        return tree
    op, (left, right) = tree
    a, b = eval_tree(left), eval_tree(right)
    return (a + b) % 10 if op == "+" else (a * b) % 10


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


def _two_args(draws) -> int:
    return 2


def _attempt(draws, target_depth: int) -> Sample | None:
    tree = draw_tree(draws, target_depth, OP_PROB, OPS, _two_args)
    if tree is None:
        return None
    return Sample(tuple(tree_tokens(tree)), str(eval_tree(tree)), target_depth)


def generate(plan: SplitPlan, seed: int, workers: int = 1) -> dict[str, list[Sample]]:
    return generate_splits(plan, RngTree(seed, "arith/data"),
                           lambda depth: partial(_attempt, target_depth=depth), workers)
