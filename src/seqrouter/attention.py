"""Attention score and weight computations.

Four kinds are supported: standard content attention (absolute positions
added at the embedding), decomposed relative-position attention, its
gated absolute/relative extension, and distance-ordered geometric
attention with a directional score term. All functions are pure given
their parameters. States are packed: one row per real token, shaped
(M, d), with a boolean validity mask (B, N) whose true cells, in
row-major order, are those rows. Only the per-pair scores, weights and
their products with the values use a padded (B, H, N, ...) layout, and
``attend`` forms them per length band: a sequence whose last valid
column is L falls in band ceil(L / BAND), and each band is padded to its
own longest sequence, not the batch's. A band is a layout (``Band``): its
pair work reads its rows straight from the packed operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Init, Parameter, Tensor
from .rng import RngTree

NEG_SCORE = -1e9  # score at pad sources; exp() underflows to exactly 0
# Columns per length band. Narrower bands cut little more pair area (0.23
# of the batch-wide area at 8 columns against 0.27 at 16, on listops bs8
# batches) but run more bands, and below 16 columns each band's per-call
# overhead outweighs its pair work. Batches of sequences of at most 16
# tokens (every ctl batch, every single-sequence trace) are one band.
BAND = 16
KINDS = ("standard_abs", "relative", "abs_rel_gated", "geometric")


@dataclass
class Mode:
    """Runtime context for a forward pass: train toggles dropout, rng feeds it."""

    train: bool = False
    rng: RngTree | None = None

    def child(self, name: str) -> "Mode":
        return Mode(self.train, self.rng.child(name) if self.rng else None)


EVAL = Mode()


@dataclass
class AttentionConfig:
    d_model: int
    n_heads: int
    kind: str = "standard_abs"  # one of KINDS
    content_dropout: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown attention kind {self.kind!r}; expected one of {', '.join(KINDS)}")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be at least 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class MhaParams:
    cfg: AttentionConfig
    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_o: Parameter


@dataclass
class RelAttentionParams:
    cfg: AttentionConfig
    w_q: Parameter
    w_ke: Parameter
    w_kp: Parameter
    b_qe: Parameter
    b_qp: Parameter
    w_v: Parameter
    w_o: Parameter
    w_ar: Parameter | None = None  # abs/rel gate, shared across heads
    b_ar: Parameter | None = None


@dataclass
class GeometricAttentionParams:
    cfg: AttentionConfig
    w_q: Parameter
    b_q: Parameter
    w_ke: Parameter
    w_lr: Parameter
    b_lr: Parameter
    w_rl: Parameter
    b_rl: Parameter
    alpha: Parameter
    beta: Parameter
    gamma: Parameter
    w_v: Parameter
    w_o: Parameter


def init_attention(init: Init, cfg: AttentionConfig):
    d = cfg.d_model
    if cfg.kind == "standard_abs":
        return MhaParams(cfg, init.linear("w_q", d, d), init.linear("w_k", d, d),
                         init.linear("w_v", d, d), init.linear("w_o", d, d))
    if cfg.kind in ("relative", "abs_rel_gated"):
        gated = cfg.kind == "abs_rel_gated"
        return RelAttentionParams(
            cfg,
            w_q=init.linear("w_q", d, d),
            w_ke=init.linear("w_ke", d, d),
            w_kp=init.linear("w_kp", d, d),
            b_qe=init.bias("b_qe", d),
            b_qp=init.bias("b_qp", d),
            w_v=init.linear("w_v", d, d),
            w_o=init.linear("w_o", d, d),
            w_ar=init.linear("w_ar", d, 1) if gated else None,
            b_ar=init.bias("b_ar", 1) if gated else None,
        )
    h = cfg.n_heads  # geometric: the only kind left
    return GeometricAttentionParams(
        cfg,
        w_q=init.linear("w_q", d, d),
        b_q=init.bias("b_q", d),
        w_ke=init.linear("w_ke", d, d),
        w_lr=init.linear("w_lr", d, h),
        b_lr=init.bias("b_lr", h),
        w_rl=init.linear("w_rl", d, h),
        b_rl=init.bias("b_rl", h),
        alpha=init.gain("alpha", h, value=1.0 / math.sqrt(cfg.d_head)),
        beta=init.gain("beta", h, value=1.0),
        gamma=init.bias("gamma", h),
        w_v=init.linear("w_v", d, d),
        w_o=init.linear("w_o", d, d),
    )


# ---------------------------------------------------------------------------
# shared pieces


def sinusoid_table(positions: np.ndarray, d: int, dtype=np.float32) -> np.ndarray:
    """Standard sinusoidal embeddings for arbitrary (possibly negative or
    fractional) positions; no clamping, so longer sequences need no new
    parameters."""
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    k = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * k / d)
    # d // 2 sine/cosine pairs; an odd d leaves its last column at 0.
    table = np.zeros((pos.shape[0], d))
    table[:, 0:d - 1:2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


class Band(NamedTuple):
    """A length band of a packed batch as a layout: its validity mask valid
    (B_b, N_b), whose r-th true cell in row-major order holds the band's r-th
    row, and rows, the indices of those rows in the packed (M, c) operands,
    in packed order (slice(None): all of them)."""

    valid: np.ndarray
    rows: np.ndarray | slice = slice(None)

    def split(self, x: np.ndarray, n_heads: int) -> np.ndarray:
        """The band's rows of packed x (M, c), zero-padded per head (B_b, H, N_b, c / H)."""
        b, n = self.valid.shape
        # Indexing rows by flat position is faster than by the 2-D boolean mask.
        out = np.zeros((b * n, x.shape[-1]), dtype=x.dtype)
        out[np.flatnonzero(self.valid)] = x[self.rows]
        return out.reshape(b, n, n_heads, -1).transpose(0, 2, 1, 3)

    def join(self, x: np.ndarray) -> np.ndarray:
        """(B_b, H, N_b, d_h) to the band's packed rows (M_b, H * d_h); inverse of split."""
        b, h, n, dh = x.shape
        return np.take(x.transpose(0, 2, 1, 3).reshape(b * n, h * dh), np.flatnonzero(self.valid), axis=0)


def _bands(valid: np.ndarray) -> list[Band]:
    """The batch's length bands in band order. A sequence whose last valid
    column is L falls in band ceil(L / BAND), and the band's mask spans the
    largest L in it."""
    extent = valid.shape[1] - np.argmax(valid[:, ::-1], axis=1)
    band = -(-extent // BAND)
    if (band == band[0]).all():
        return [Band(valid[:, :extent.max()])]
    row_band = np.repeat(band, np.count_nonzero(valid, axis=1))
    return [Band(valid[band == b, :extent[band == b].max()], np.flatnonzero(row_band == b))
            for b in np.unique(band)]


def _content(qd: np.ndarray, kd: np.ndarray, band: Band, n_heads: int):
    """Per-head q and k (B_b, H, N_b, d / H) of the band's rows of packed q
    and k (M, d), and their product q_i.k_j per head (B_b, H, N_b, N_b)."""
    qh, kh = band.split(qd, n_heads), band.split(kd, n_heads)
    return qh, kh, np.matmul(qh, np.swapaxes(kh, -1, -2))


def _content_grads(gs: np.ndarray, qh: np.ndarray, kh: np.ndarray, band: Band):
    """The band's rows (M_b, d) of the q and k gradients of gs, the gradient
    of the per-head product q_i.k_j (B_b, H, N_b, N_b), given the per-head q and k."""
    return (band.join(np.matmul(gs, kh)),
            band.join(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2)))


def _check_inputs(h: Tensor, valid: np.ndarray) -> None:
    m = np.count_nonzero(valid)
    if h.data.ndim != 2 or h.shape[0] != m:
        raise ad.DimensionError(f"attention takes packed (M, d) states, one row per valid cell; "
                                f"got {h.shape} for {m} valid cells")
    if not valid.any(axis=-1).all():
        raise ValueError("a sequence has all sources masked")


def _maybe_dropout(x: Tensor, rate: float, mode: Mode, site: str) -> Tensor:
    if mode.train and rate > 0.0:
        return ad.dropout(x, rate, mode.rng.child(site).generator())
    return x


# ---------------------------------------------------------------------------
# softmax attention: standard, relative and gated absolute/relative


def _offsets(x: np.ndarray) -> np.ndarray:
    """(..., N, N) view of x (..., N, 2N - 1) whose [..., i, j] is x[..., i, i - j + N - 1],
    the column of offset i - j: a strided view, not a gather (the "skewing" of
    Huang et al. 2018, arXiv:1809.04281). Every cell of the view is distinct."""
    n = x.shape[-2]
    si, sl = x.strides[-2:]
    return np.lib.stride_tricks.as_strided(x[..., n - 1:], x.shape[:-1] + (n,),
                                           x.strides[:-2] + (si + sl, -sl))


def _scores(qd: np.ndarray, kd: np.ndarray, band: Band, n_heads: int, c: float, tables=()):
    """(weights, tables, band_vjp): softmax weights (B_b, H, N_b, N_b), zero
    at pad sources, of the scores c (q_i.k_j + sum over the table terms of
    u_i.t[i, j]) per head of the band's rows of packed q, k (M, d). A table
    term (u, t, view) scores the band's rows of packed queries u (M, d)
    against a key table Tensor t (L, d) that every sequence shares, read
    through view (_offsets), or whole when view is None. band_vjp returns the
    band's rows (M_b, d) of the q, k and queries gradients, and the tables'."""
    c, src_invalid = qd.dtype.type(c), ~band.valid[:, None, None, :]
    # (queries, table, per-head keys (H, d_h, L), view) of each table term
    terms = [(ud, t.data, t.data.reshape(t.shape[0], n_heads, -1).transpose(1, 2, 0), view)
             for ud, t, view in tables]
    s = _content(qd, kd, band, n_heads)[2]
    for ud, _, kt, view in terms:
        full = np.matmul(band.split(ud, n_heads), kt)
        s += full if view is None else view(full)
    x = np.where(src_invalid, NEG_SCORE, s * c)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def band_vjp(g):
        gs = y * (g - (g * y).sum(axis=-1, keepdims=True)) * c
        rows, shared = _content_grads(gs, band.split(qd, n_heads), band.split(kd, n_heads), band), ()
        for ud, td, kt, view in terms:
            g_full = gs
            if view is not None:  # add the gradient back through the view into zeros
                g_full = np.zeros(gs.shape[:-1] + kt.shape[-1:], gs.dtype)
                cells = view(g_full)
                cells += gs
            rows += (band.join(np.matmul(g_full, np.swapaxes(kt, -1, -2))),)
            shared += (np.matmul(np.swapaxes(band.split(ud, n_heads), -1, -2),
                                 g_full).sum(axis=0).transpose(2, 0, 1).reshape(td.shape),)
        return rows, shared

    return y, tuple(t for _, t, _ in tables), band_vjp


def _rel_scores(rows, p: RelAttentionParams, band: Band):
    """_scores of the band's rows of packed (q_e, k_e, q_rel) and, gated,
    q_abs (see _project): content and content bias, q_rel's scores against
    the projected sinusoid table of relative offsets and q_abs's against
    that of absolute positions. The tables span the band's N_b columns."""
    q_e, k_e, *queries = rows
    cfg = p.cfg
    n, d, dtype = band.valid.shape[1], cfg.d_model, q_e.dtype
    keys = (np.arange(-(n - 1), n), _offsets), (np.arange(n), None)  # relative, absolute
    tables = [(u, ad.matmul(Tensor(sinusoid_table(at, d, dtype)), p.w_kp), view)
              for u, (at, view) in zip(queries, keys)]
    return _scores(q_e, k_e, band, cfg.n_heads, 1.0 / math.sqrt(cfg.d_head), tables)


# ---------------------------------------------------------------------------
# geometric attention


def geometric_ordering(i: int, n: int) -> list[int]:
    """Sources ordered by closeness to target i (both 1-based), nearer
    first; at equal distance the right neighbour precedes the left; i
    itself is excluded."""
    if not 1 <= i <= n:
        raise ValueError(f"target index {i} outside 1..{n}")
    return sorted((k for k in range(1, n + 1) if k != i), key=lambda k: (abs(i - k), k < i))


_widest_closeness: np.ndarray | None = None  # the widest mask built so far


def _closeness_mask(n: int, dtype) -> np.ndarray:
    """C[i, k, j] = 1 when source k comes before source j in target i's
    closeness ordering. The sort key 2|i - k| + [k < i] puts the right
    neighbour before the left one at equal distance and reproduces
    geometric_ordering; the diagonal sorts last, so it shadows nothing.
    The key does not depend on N and the diagonal sorts last at every N, so
    C_N restricted to its first n targets and sources is C_n: every width
    and layer step shares the [:n, :n, :n] view of the widest read-only
    array built so far, rebuilt only for a wider batch or another dtype."""
    global _widest_closeness
    c = _widest_closeness
    if c is None or c.shape[0] < n or c.dtype != dtype:
        i, k = np.ogrid[:n, :n]
        key = 2 * np.abs(i - k) + (k < i)
        np.fill_diagonal(key, 2 * n)
        c = (key[:, :, None] < key[:, None, :]).astype(dtype)
        c.flags.writeable = False
        _widest_closeness = c
    return c[:n, :n, :n]


def _per_target_matmul(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """out[..., i, :] = x[..., i, :] @ c[i]: one batched GEMM over targets."""
    n = x.shape[-1]
    by_target = np.ascontiguousarray(np.moveaxis(x.reshape(-1, n, n), 1, 0))
    return np.moveaxis(np.matmul(by_target, c), 0, 1).reshape(x.shape)


def _weights_from_logs(logp: np.ndarray, log1mp: np.ndarray, c: np.ndarray,
                       drop: np.ndarray) -> np.ndarray:
    """exp(log P[i, j] + sum_k log(1 - P[i, k]) C[i, k, j]), zero where drop:
    geometric weights from log P and log(1 - P), untaped."""
    return np.where(drop, 0, np.exp(logp + _per_target_matmul(log1mp, c)))


def geometric_weights(p: Tensor) -> Tensor:
    """Convert match probabilities (..., N, N) to attention weights
    A[i, j] = P[i, j] * prod over closer sources k of (1 - P[i, k]),
    with a zero diagonal, by ``_weights_from_logs``; the result is a
    constant Tensor, not taped."""
    x = p.data
    if not ((x >= 0) & (x <= 1)).all():
        raise ValueError("match probabilities outside [0, 1]")
    n = x.shape[-1]
    with np.errstate(divide="ignore"):
        logp = np.log(x)
        # At P = 1, log(1 - P) = -inf would make -inf * 0 = nan in the GEMM.
        log1mp = np.maximum(np.log1p(-x), NEG_SCORE)
    return Tensor(_weights_from_logs(logp, log1mp, _closeness_mask(n, x.dtype), np.eye(n, dtype=bool)))


def _match_weights(qd: np.ndarray, kd: np.ndarray, d_lr: np.ndarray, d_rl: np.ndarray,
                   p: GeometricAttentionParams, band: Band):
    """(weights, (alpha, beta, gamma), band_vjp) (see _scores): geometric
    weights (B_b, H, N_b, N_b) of the band's rows of packed q, k (M, d) and
    per-head direction scores d_lr, d_rl (M, H): A[i, j] = p[i, j] * prod over sources
    k closer than j of (1 - p[i, k]), p = sigmoid(z), in log space as one
    masked GEMM, of match logits z = alpha_h q_i.k_j + beta_h D[i, j] + gamma_h,
    where D[i, j] is target i's d_lr for a source j at or right of i, else
    d_rl. The diagonal and pad sources get weight 0 and shadow nothing.
    band_vjp keeps the packed rows, the direction columns, the weights and
    the mask, not z: it rebuilds q.k^T and z."""
    nh, n = p.cfg.n_heads, band.valid.shape[1]
    right_or_self = np.arange(n)[:, None] <= np.arange(n)[None, :]
    src_invalid, c = ~band.valid[:, None, None, :], _closeness_mask(n, qd.dtype)
    # C-contiguous (B_b, H, N_b, 1) columns fix the memory order of D, and so
    # the summation order of beta's gradient.
    lr, rl = (np.ascontiguousarray(band.split(x, nh)) for x in (d_lr, d_rl))
    alpha, beta, gamma = (t.data.reshape(nh, 1, 1) for t in (p.alpha, p.beta, p.gamma))

    def direction() -> np.ndarray:
        return np.where(right_or_self, lr, rl)

    def logits(content: np.ndarray) -> np.ndarray:
        return alpha * content + beta * direction() + gamma

    logp, log1mp = ad._log_sigmoids(logits(_content(qd, kd, band, nh)[2]))
    w = _weights_from_logs(logp, np.where(src_invalid, 0, log1mp), c, src_invalid | np.eye(n, dtype=bool))

    def band_vjp(g):
        qh, kh, content = _content(qd, kd, band, nh)
        # dA[i, j] / dz[i, m] = A[i, j] ([m = j] (1 - p[i, m]) - C[i, m, j] p[i, m])
        u, (logp, log1mp) = g * w, ad._log_sigmoids(logits(content))
        dz = u * np.exp(log1mp) - np.exp(logp) * _per_target_matmul(u, c.transpose(0, 2, 1))
        dz = np.where(src_invalid, 0, dz)
        d_dir = dz * beta
        return ((*_content_grads(dz * alpha, qh, kh, band),
                 band.join(ad._unbroadcast(np.where(right_or_self, d_dir, 0), lr.shape)),
                 band.join(ad._unbroadcast(np.where(right_or_self, 0, d_dir), rl.shape))),
                (ad._unbroadcast(dz * content, alpha.shape).reshape(nh),
                 ad._unbroadcast(dz * direction(), beta.shape).reshape(nh),
                 ad._unbroadcast(dz, gamma.shape).reshape(nh)))

    return w, (p.alpha, p.beta, p.gamma), band_vjp


def _geometric_logits(rows, p: GeometricAttentionParams, band: Band):
    """_match_weights of the band's rows of packed (q, k, d_lr, d_rl) (see
    _project). The benchmark's traced run times this function by name as
    attention.scores."""
    return _match_weights(*rows, p, band)


# ---------------------------------------------------------------------------
# one entry point for every kind


def _project(h: Tensor, p, mode: Mode):
    """(rows, band_weights): the packed rows (M, c) that the weights of p's
    kind are formed from, each one op over all rows of h, and the function
    that forms a Band's per-head weights from the rows' arrays (see _scores).
    The rows are q and k (MhaParams); the content query q_e, the keys k_e and the
    positional query q_rel, and, gated, q_abs (RelAttentionParams); q, k and
    the per-head direction scores d_lr and d_rl (GeometricAttentionParams).
    The abs/rel gate r is a column per target, shared by every head, so it
    scales the positional query q_p: q_rel = r q_p and q_abs = (1 - r) q_p."""
    cfg = p.cfg
    if isinstance(p, GeometricAttentionParams):
        q = _maybe_dropout(ad.matmul(h, p.w_q, p.b_q), cfg.content_dropout, mode, "att_content_q")
        rows = q, ad.matmul(h, p.w_ke), ad.matmul(h, p.w_lr, p.b_lr), ad.matmul(h, p.w_rl, p.b_rl)
        return rows, lambda data, band: _geometric_logits(data, p, band)
    if isinstance(p, RelAttentionParams):
        q = ad.matmul(h, p.w_q)
        q_e = _maybe_dropout(ad.add(q, p.b_qe), cfg.content_dropout, mode, "att_content_q")
        q_p = _maybe_dropout(ad.add(q, p.b_qp), cfg.content_dropout, mode, "att_pos_q")
        rows = q_e, ad.matmul(h, p.w_ke), q_p
        if p.w_ar is not None:
            r, zero = ad.sigmoid(ad.matmul(h, p.w_ar, p.b_ar)), Tensor(np.zeros((), q.dtype))
            rows = rows[:2] + (ad.blend(r, q_p, zero), ad.blend(r, zero, q_p))
        return rows, lambda data, band: _rel_scores(data, p, band)
    q = _maybe_dropout(ad.matmul(h, p.w_q), cfg.content_dropout, mode, "att_content_q")
    rows, c = (q, ad.matmul(h, p.w_k)), 1.0 / math.sqrt(cfg.d_head)
    return rows, lambda data, band: _scores(*data, band, cfg.n_heads, c)


def attend(h: Tensor, p, valid: np.ndarray, mode: Mode = EVAL):
    """Self-attention of packed states h (M, d) over valid sources; returns
    (output (M, d), weights): the weights are one (B_b, H, N_b, N_b) array
    per length band (see _bands), in band order, zero at pad sources.

    Every kind projects its packed rows once (_project), and one op holds
    the pair work of every band: each band's weights from its rows of them
    (_scores, which _rel_scores calls with the key tables, or _match_weights)
    times its rows of v, in packed order for w_o. The VJP runs the bands last
    first and lists their shared operands (key tables, or alpha, beta and
    gamma) in that order, so shared parameters sum their gradients in the
    order, and with the rounding, of a tape with one op per band."""
    _check_inputs(h, valid)
    rows, band_weights = _project(h, p, mode)
    v, nh, bands = ad.matmul(h, p.w_v), p.cfg.n_heads, _bands(valid)
    data, vd, shapes = [t.data for t in rows], v.data, [t.shape for t in (*rows, v)]
    out, weights, vjps, shared = np.empty(vd.shape, vd.dtype), [], [], []
    for band in bands:
        w, band_shared, band_vjp = band_weights(data, band)
        out[band.rows] = band.join(np.matmul(w, band.split(vd, nh)))
        weights.append(w)
        vjps.append(band_vjp)
        shared[:0] = band_shared

    def vjp(g):
        grads, g_shared = [np.empty(shape, g.dtype) for shape in shapes], []
        for band, w, band_vjp in zip(bands[::-1], weights[::-1], vjps[::-1]):
            gh = band.split(g, nh)
            g_rows, g_band = band_vjp(np.matmul(gh, np.swapaxes(band.split(vd, nh), -1, -2)))
            for full, part in zip(grads, (*g_rows, band.join(np.matmul(np.swapaxes(w, -1, -2), gh)))):
                full[band.rows] = part
            g_shared += g_band
        return (*grads, *g_shared)

    return ad.matmul(ad._op(out, (*rows, v, *shared), vjp), p.w_o), weights
