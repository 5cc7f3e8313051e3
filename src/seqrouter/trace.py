"""Capture and export of per-step attention maps, gate activities, and
adaptive-depth statistics: JSON with the full tensors plus grayscale
heatmaps in the binary portable graymap format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tasks.data import Vocab


@dataclass
class AttentionTrace:
    steps: list[np.ndarray]  # per step: (heads, N, N) post-normalization weights
    kind: str


@dataclass
class GateTrace:
    steps: list[np.ndarray]  # per step: (N, d) gate vectors

    def means(self) -> np.ndarray:
        """(T, N) mean gate activity per column, the view the gate maps show."""
        return np.stack([g.mean(axis=-1) for g in self.steps])


@dataclass
class Trace:
    tokens: list[str]
    attention: AttentionTrace
    gates: GateTrace | None
    ponder: np.ndarray | None  # (N,) readout step per column, 1-based
    logits: np.ndarray


def capture(model, tokens: list[str], vocab: Vocab, steps: int | None = None) -> Trace:
    """Run one unbatched example with tracing on and collect every step's
    attention and gate tensors. Tracing never perturbs the outputs."""
    ids = np.array([vocab.encode(tokens)], dtype=np.int64)
    lengths = np.array([ids.shape[1]], dtype=np.int64)
    out = model.forward(ids, lengths, steps=steps, trace=True)
    rec = out.trace
    gates = GateTrace(rec.gates) if rec.gates else None
    ponder = out.act.ponder.copy() if out.act is not None else None
    return Trace(tokens=list(tokens), attention=AttentionTrace(rec.attention, model.cfg.kind),
                 gates=gates, ponder=ponder, logits=out.logits.data[0].copy())


# ---------------------------------------------------------------------------
# portable graymap output


def quantize(image: np.ndarray) -> np.ndarray:
    """8-bit pixels, linearly scaled so 0 maps to black and the image
    maximum to white."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"heatmaps are 2-d, got shape {image.shape}")
    peak = image.max()
    scaled = np.zeros_like(image) if peak <= 0 else np.clip(image / peak, 0.0, 1.0)
    return np.round(scaled * 255).astype(np.uint8)


def write_pgm(path, pixels: np.ndarray) -> None:
    """8-bit binary PGM of uint8 pixels, e.g. from ``quantize``."""
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path} is not a binary PGM")
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError("only 8-bit graymaps supported")
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return data.reshape(h, w)


def export(trace: Trace, out_dir) -> dict:
    """Write trace.json (full tensors, lossless), per-step heatmaps, and an
    index of the artifacts. The head-max image is the pixelwise max of the
    per-head images."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_steps = len(trace.attention.steps)
    n_heads = trace.attention.steps[0].shape[0] if n_steps else 0

    payload = {
        "tokens": trace.tokens,
        "kind": trace.attention.kind,
        "logits": trace.logits.tolist(),
        "attention": [step.tolist() for step in trace.attention.steps],
    }
    if trace.gates is not None:
        payload["gates"] = [g.tolist() for g in trace.gates.steps]
        payload["gate_means"] = trace.gates.means().tolist()
    if trace.ponder is not None:
        payload["ponder"] = trace.ponder.tolist()
    with open(out / "trace.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True)

    files = ["trace.json"]
    for t, step in enumerate(trace.attention.steps):
        head_images = [quantize(head) for head in step]
        for head, pixels in enumerate(head_images):
            name = f"att_t{t}_h{head}.pgm"
            write_pgm(out / name, pixels)
            files.append(name)
        name = f"att_t{t}_max.pgm"
        write_pgm(out / name, np.max(np.stack(head_images), axis=0))
        files.append(name)
    if trace.gates is not None:
        write_pgm(out / "gates.pgm", quantize(trace.gates.means()))
        files.append("gates.pgm")

    index = {"files": files, "steps": n_steps, "heads": n_heads,
             "n": len(trace.tokens) + 2}
    with open(out / "index.json", "w") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
    files.append("index.json")
    return index


def load_trace_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload["attention"] = [np.array(a) for a in payload["attention"]]
    if "gates" in payload:
        payload["gates"] = [np.array(g) for g in payload["gates"]]
    return payload


def gate_frontier(gate_means: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """First step at which each column's cumulative gate activity exceeds
    the threshold (1-based; T+1 if never). On well-trained gated models
    solving left-to-right tasks this tends to be non-decreasing in column
    index; use as a soft diagnostic, not a hard check."""
    cum = np.cumsum(np.asarray(gate_means), axis=0)
    t_max, n = cum.shape
    crossed = cum > threshold
    first = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, t_max + 1)
    return first


def frontier_monotonicity(gate_means: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of adjacent column pairs whose gate-opening step is
    non-decreasing; 1.0 means a perfectly monotone frontier."""
    frontier = gate_frontier(gate_means, threshold)
    if frontier.size < 2:
        return 1.0
    return float(np.mean(frontier[1:] >= frontier[:-1]))


def ponder_report(model, samples, vocab: Vocab, batch_size: int = 64) -> list[dict]:
    """Mean and standard deviation of per-column readout steps, grouped by
    encoded sequence length. Requires an adaptive-depth model."""
    if model.cfg.act is None:
        raise ValueError("ponder report needs an ACT-enabled checkpoint")
    from .train import encode_batch

    by_length: dict[int, list[float]] = {}
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo:lo + batch_size]
        tokens, lengths, _ = encode_batch(chunk, vocab)
        out = model.forward(tokens, lengths)
        # Ponder steps are packed, one per real token; split them per sequence.
        for rows, n in zip(np.split(out.act.ponder, np.cumsum(lengths)[:-1]), lengths):
            by_length.setdefault(int(n), []).append(float(np.mean(rows)))
    report = []
    for length in sorted(by_length):
        vals = np.array(by_length[length])
        report.append({"length": length, "mean_steps": float(vals.mean()),
                       "std_steps": float(vals.std()), "count": int(vals.size)})
    return report
