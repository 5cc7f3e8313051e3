"""Compositional table lookup: random bijective single-argument functions
applied to one of eight symbols, presented forward (symbol first) or
backward (fully reversed)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from ..rng import RngTree
from .data import Sample, SplitPlan, SplitSpec, Vocab, generate_splits

SYMBOLS = ("000", "001", "010", "011", "100", "101", "110", "111")
LETTERS = tuple("abcdefghi")


@dataclass(frozen=True)
class CtlSpec:
    symbols: tuple[str, ...]
    letters: tuple[str, ...]
    tables: dict[str, tuple[str, ...]]  # letter -> permutation of symbols
    order: str = "forward"

    def __post_init__(self):
        for letter, table in self.tables.items():
            if sorted(table) != sorted(self.symbols):
                raise ValueError(f"function {letter!r} is not a bijection over the symbols")
        if self.order not in ("forward", "backward"):
            raise ValueError(f"order must be forward or backward, got {self.order!r}")


def make_spec(seed: int, order: str = "forward") -> CtlSpec:
    rng = RngTree(seed, "ctl/tables")
    tables = {}
    for letter in LETTERS:
        perm = rng.child(letter).generator().permutation(len(SYMBOLS))
        tables[letter] = tuple(SYMBOLS[i] for i in perm)
    return CtlSpec(SYMBOLS, LETTERS, tables, order)


def vocab() -> Vocab:
    return Vocab(SYMBOLS + LETTERS, SYMBOLS)


def default_plan() -> SplitPlan:
    return SplitPlan((
        SplitSpec("train", (1, 2, 3, 4, 5), 53704),
        SplitSpec("valid_iid", (1, 2, 3, 4, 5), 1000),
        SplitSpec("valid_ood", (6, 7, 8), 1000),
        SplitSpec("test", (9, 10), 1000),
    ))


# The desk-scale smoke recipe's lookups: depths 1-3 train, 4-5 held out.
SMOKE_PLAN = SplitPlan((SplitSpec("train", (1, 2, 3), 8000), SplitSpec("valid_iid", (1, 2, 3), 500),
                        SplitSpec("valid_ood", (4, 5), 500), SplitSpec("test", (4, 5), 500)))


def ctl_eval(symbol: str, functions, spec: CtlSpec) -> str:
    """Apply the listed functions to the symbol, first function first."""
    if symbol not in spec.symbols:
        raise ValueError(f"unknown symbol {symbol!r}")
    current = symbol
    for letter in functions:
        if letter not in spec.tables:
            raise ValueError(f"unknown function letter {letter!r}")
        current = spec.tables[letter][spec.symbols.index(current)]
    return current


def materialize(symbol: str, functions: tuple[str, ...], spec: CtlSpec) -> Sample:
    tokens = (symbol,) + functions
    if spec.order == "backward":
        tokens = tuple(reversed(tokens))
    return Sample(tokens, ctl_eval(symbol, functions, spec), len(functions))


def _attempt(draws, seed: int, order: str, depth: int) -> Sample:
    spec = spec_cache(seed, order)
    symbol = spec.symbols[draws.randint(len(spec.symbols))]
    funcs = tuple(spec.letters[draws.randint(len(spec.letters))] for _ in range(depth))
    return materialize(symbol, funcs, spec)


@lru_cache(maxsize=8)
def spec_cache(seed: int, order: str) -> CtlSpec:
    return make_spec(seed, order)


def generate(plan: SplitPlan, seed: int, order: str = "forward", workers: int = 1) -> dict[str, list[Sample]]:
    """Build all splits. The train split leads with every (function, symbol)
    unit pair at depth 1, then fills each depth's quota with random
    compositions; sampling is with replacement."""
    spec = make_spec(seed, order)
    units = [materialize(sym, (letter,), spec) for letter in spec.letters for sym in spec.symbols]

    def lead(split: str, depth: int, count: int) -> list[Sample]:
        if (split, depth) != ("train", 1):
            return []
        if count < len(units):
            raise ValueError(f"train depth-1 quota {count} cannot cover all {len(units)} unit pairs")
        return units

    return generate_splits(plan, RngTree(seed, "ctl/data"),
                           lambda depth: partial(_attempt, seed=seed, order=order, depth=depth),
                           workers, lead)


def manifest_entry(seed: int, order: str) -> dict:
    spec = make_spec(seed, order)
    return {"symbols": list(spec.symbols), "letters": list(spec.letters),
            "tables": {k: list(v) for k, v in spec.tables.items()}, "order": order}
