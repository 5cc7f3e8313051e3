"""Shared dataset machinery: samples, split plans, vocabularies, JSONL io,
and deterministic chunked generation.

Every (split, depth, chunk) triple draws from its own named stream, so the
emitted files are byte-identical no matter how many workers run the
chunks.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

from ..rng import RngTree

PAD, BEGIN, END = "<pad>", "<b>", "<e>"
CHUNK_SIZE = 512


@dataclass(frozen=True)
class Sample:
    tokens: tuple[str, ...]
    target: str
    depth: int
    dep_depth: int | None = None


@dataclass(frozen=True)
class SplitSpec:
    name: str
    depths: tuple[int, ...]
    size: int

    def __post_init__(self):
        if self.size < 1 or not self.depths:
            raise ValueError(f"split {self.name!r} needs a size of at least 1 and a depth; "
                             f"got size {self.size}, depths {self.depths}")

    def quotas(self) -> list[tuple[int, int]]:
        """Per-depth counts, balanced to within one sample; the remainder
        goes to the shallowest depths."""
        base, rem = divmod(self.size, len(self.depths))
        return [(d, base + (1 if i < rem else 0)) for i, d in enumerate(self.depths)]


@dataclass(frozen=True)
class SplitPlan:
    splits: tuple[SplitSpec, ...]

    def __getitem__(self, name: str) -> SplitSpec:
        for s in self.splits:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_jsonable(self) -> list[dict]:
        return [asdict(s) for s in self.splits]


class Vocab:
    """Token and class tables for one task. Model inputs are
    <b> tokens... <e>, padded with id 0."""

    def __init__(self, tokens: tuple[str, ...], classes: tuple[str, ...]):
        self.tokens = (PAD, BEGIN, END) + tokens
        self.classes = classes
        self._tok_id = {t: i for i, t in enumerate(self.tokens)}
        self._cls_id = {c: i for i, c in enumerate(classes)}

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def encode(self, tokens) -> list[int]:
        try:
            return [self._tok_id[BEGIN]] + [self._tok_id[t] for t in tokens] + [self._tok_id[END]]
        except KeyError as exc:
            raise ValueError(f"token {exc.args[0]!r} not in vocabulary") from None

    def class_id(self, target: str) -> int:
        try:
            return self._cls_id[target]
        except KeyError:
            raise ValueError(f"target {target!r} not a known class") from None


# ---------------------------------------------------------------------------
# depth-bounded random trees (arithmetic and ListOps)
#
# Trees are either an int digit or (op_name, [children]).

MAX_TOKENS = 50
DIGITS = tuple(str(d) for d in range(10))


class _Abort(Exception):
    """The tree being drawn is already certain to be rejected."""


def tree_depth(tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + max(tree_depth(c) for c in tree[1])


def draw_tree(draws, depth: int, op_prob: float, ops, n_args):
    """One rejection-sampling draw of a tree of parse depth exactly
    ``depth`` and at most MAX_TOKENS tokens (an operation brings three:
    its brackets and its name), or None if the draw is rejected. The root
    is an operation unless ``depth`` is 0; every argument is an operation
    with probability ``op_prob`` and a digit otherwise. An operation draws
    its name from ``ops``, then its argument count ``n_args(draws)``, then
    its arguments from left to right."""
    if depth == 0:
        return draws.randint(10)
    state = [0, False]  # tokens so far; whether the tree reaches ``depth``
    try:
        tree = _draw_op(draws, depth, state, op_prob, ops, n_args)
    except _Abort:
        return None
    return tree if state[1] else None


def _draw_arg(draws, budget: int, state: list, op_prob, ops, n_args):
    if draws.u01() < op_prob:
        return _draw_op(draws, budget, state, op_prob, ops, n_args)
    state[0] += 1
    if state[0] > MAX_TOKENS:
        raise _Abort
    return draws.randint(10)


def _draw_op(draws, budget: int, state: list, op_prob, ops, n_args):
    # Aborting as soon as the depth budget or token cap is exceeded is
    # equivalent to rejecting the finished tree. The tree has depth exactly
    # that of the root's budget iff some operation is drawn with budget 1.
    if budget == 0:
        raise _Abort
    state[0] += 3
    if state[0] > MAX_TOKENS:
        raise _Abort
    state[1] = state[1] or budget == 1
    op = ops[draws.randint(len(ops))]
    return (op, [_draw_arg(draws, budget - 1, state, op_prob, ops, n_args)
                 for _ in range(n_args(draws))])


# ---------------------------------------------------------------------------
# JSONL + manifest io


def sample_to_json(s: Sample) -> str:
    # vars, not asdict: asdict deep-copies every token of every sample.
    return json.dumps(vars(s), sort_keys=True, separators=(",", ":"))


def sample_from_json(line: str) -> Sample:
    d = json.loads(line)
    d["tokens"] = tuple(d["tokens"])
    return Sample(**d)


def write_jsonl(path, samples) -> None:
    with open(path, "w") as fh:
        for s in samples:
            fh.write(sample_to_json(s))
            fh.write("\n")


def read_jsonl(path) -> list[Sample]:
    with open(path) as fh:
        return [sample_from_json(line) for line in fh if line.strip()]


def write_manifest(out_dir, manifest: dict) -> None:
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


def read_manifest(out_dir) -> dict:
    with open(Path(out_dir) / "manifest.json") as fh:
        return json.load(fh)


def write_dataset(out_dir, splits: dict[str, list[Sample]], manifest: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, samples in splits.items():
        write_jsonl(out / f"{name}.jsonl", samples)
    write_manifest(out, manifest)


def load_split(data_dir, name: str) -> list[Sample]:
    path = Path(data_dir) / f"{name}.jsonl"
    if not path.exists():
        raise FileNotFoundError(f"no split file {path}")
    return read_jsonl(path)


# ---------------------------------------------------------------------------
# chunked generation


def chunk_sizes(total: int, chunk: int = CHUNK_SIZE) -> list[int]:
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])


def generate_splits(plan: SplitPlan, rng: RngTree, attempt_for_depth, workers: int = 1,
                    lead=None) -> dict[str, list[Sample]]:
    """Fill every split's per-depth quotas in plan order. A quota opens
    with ``lead(split, depth, count)`` (at most ``count`` fixed samples, if
    given) and fills the rest by rejection from the picklable
    ``attempt_for_depth(depth)`` on the stream ``{split}/d{depth}``."""
    splits: dict[str, list[Sample]] = {}
    for split in plan.splits:
        samples: list[Sample] = []
        for depth, count in split.quotas():
            head = lead(split.name, depth, count) if lead is not None else []
            samples.extend(head)
            samples.extend(fill_quota(attempt_for_depth(depth), rng.child(f"{split.name}/d{depth}"),
                                      count - len(head), workers))
        splits[split.name] = samples
    return splits


def fill_quota(attempt_fn, seed_rng: RngTree, count: int, workers: int = 1) -> list[Sample]:
    """Generate exactly ``count`` samples via rejection, in fixed-size
    chunks with independent streams. ``attempt_fn(draws)`` produces a
    Sample or None per call and must be picklable (a module-level function
    or a functools.partial of one) so chunks can run in worker processes.
    Output is the fixed-order concatenation of chunks, so it does not
    depend on the worker count."""
    jobs = [(attempt_fn, seed_rng.child(f"chunk{i}"), n)
            for i, n in enumerate(chunk_sizes(count))]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            parts = pool.map(_run_chunk, jobs)
    else:
        parts = [_run_chunk(j) for j in jobs]
    out: list[Sample] = []
    for part in parts:
        out.extend(part)
    return out


def _run_chunk(job) -> list[Sample]:
    attempt_fn, rng, n = job
    draws = rng.draws()
    out: list[Sample] = []
    while len(out) < n:
        s = attempt_fn(draws)
        if s is not None:
            out.append(s)
    return out
