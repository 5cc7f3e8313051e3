"""Checkpoint archive: one zip holding named parameter tensors as raw
little-endian floats, the model config as a key-value header, optimizer
moments and the step counter. Round-trips are bitwise. No random state is
stored: training draws every stream from its seed and iteration."""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from .model import EncoderModel, ModelConfig
from .optim import OptimizerState
from .rng import RngTree

# Optimizer scalars stored in optimizer.json; the moments m and v are arrays.
_OPT_FIELDS = [f.name for f in dataclasses.fields(OptimizerState) if f.name not in ("m", "v")]


def _write_array(zf: zipfile.ZipFile, name: str, arr: np.ndarray) -> dict:
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    zf.writestr(name, little.tobytes())
    return {"shape": list(arr.shape), "dtype": str(little.dtype)}


def _read_array(zf: zipfile.ZipFile, name: str, meta: dict) -> np.ndarray:
    raw = zf.read(name)
    arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def save_checkpoint(path, model: EncoderModel, opt: OptimizerState | None = None,
                    header: dict[str, Any] | None = None) -> None:
    """Write the archive to a temp file beside ``path``, then rename it over
    ``path``, so a crash mid-write leaves the previous checkpoint intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_archive(fh, model, opt, header)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_archive(fh, model: EncoderModel, opt: OptimizerState | None,
                   header: dict[str, Any] | None) -> None:
    header = dict(header or {})
    header["config"] = model.cfg.to_dict()
    manifest: dict[str, dict] = {}
    with zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        for p in model.parameters():
            manifest[p.name] = _write_array(zf, f"params/{p.name}", p.data)
            manifest[p.name]["decay"] = p.decay
        opt_meta = None
        if opt is not None:
            opt_meta = {k: getattr(opt, k) for k in _OPT_FIELDS}
            opt_meta["moments"] = {}
            for name, m in opt.m.items():
                opt_meta["moments"][name] = _write_array(zf, f"opt_m/{name}", m)
                _write_array(zf, f"opt_v/{name}", opt.v[name])
        zf.writestr("header.json", json.dumps(header, sort_keys=True))
        zf.writestr("manifest.json", json.dumps(manifest, sort_keys=True))
        if opt_meta is not None:
            zf.writestr("optimizer.json", json.dumps(opt_meta, sort_keys=True))


def load_checkpoint(path) -> tuple[EncoderModel, OptimizerState | None, dict]:
    with zipfile.ZipFile(path, "r") as zf:
        header = json.loads(zf.read("header.json"))
        manifest = json.loads(zf.read("manifest.json"))
        cfg = ModelConfig.from_dict(header["config"])
        model = EncoderModel.build(cfg, RngTree(0))
        loaded = set()
        for p in model.parameters():
            if p.name not in manifest:
                raise ValueError(f"checkpoint missing parameter {p.name}")
            p.data = _read_array(zf, f"params/{p.name}", manifest[p.name])
            loaded.add(p.name)
        extra = set(manifest) - loaded
        if extra:
            raise ValueError(f"checkpoint has unknown parameters: {sorted(extra)}")
        opt = None
        if "optimizer.json" in zf.namelist():
            meta = json.loads(zf.read("optimizer.json"))
            opt = OptimizerState(**{k: meta[k] for k in _OPT_FIELDS})
            for name, arr_meta in meta["moments"].items():
                opt.m[name] = _read_array(zf, f"opt_m/{name}", arr_meta)
                opt.v[name] = _read_array(zf, f"opt_v/{name}", arr_meta)
    return model, opt, header
