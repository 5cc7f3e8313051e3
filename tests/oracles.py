"""Independent reference implementations used as test oracles.

Everything here is written directly against the definitions, with plain
loops and no code shared with the package, so the tests stay a genuine
second route. The one exception is ``geometric_weights_direct``: it walks
the package's ``geometric_ordering``, the definition of the source order,
which the tests pin by example; that keeps it independent of the
closeness key the package computes the weights with.
"""

from __future__ import annotations

import math

import numpy as np

from seqrouter.attention import geometric_ordering


def numeric_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * step)
    return g


def naive_mha(h, w_q, w_k, w_v, w_o, n_heads, valid):
    """Two-loop multi-head self-attention on a single (N, d) sequence."""
    n, d = h.shape
    dh = d // n_heads
    out = np.zeros_like(h)
    for head in range(n_heads):
        cols = slice(head * dh, (head + 1) * dh)
        q = h @ w_q[:, cols]
        k = h @ w_k[:, cols]
        v = h @ w_v[:, cols]
        ctx = np.zeros((n, dh))
        for i in range(n):
            scores = np.array(
                [q[i] @ k[j] / math.sqrt(dh) if valid[j] else -np.inf for j in range(n)]
            )
            e = np.exp(scores - scores[valid].max())
            a = e / e.sum()
            for j in range(n):
                ctx[i] += a[j] * v[j]
        out[:, cols] = ctx
    return out @ w_o


def sinusoid(pos: float, d: int) -> np.ndarray:
    emb = np.zeros(d)
    for k in range(d // 2):
        freq = pos / (10000.0 ** (2 * k / d))
        emb[2 * k] = math.sin(freq)
        emb[2 * k + 1] = math.cos(freq)
    return emb


def naive_rel_scores(h, w_q, w_ke, w_kp, b_qe, b_qp, n_heads, r=None):
    """Per-pair evaluation of the decomposed relative/absolute scores for one
    (N, d) sequence. r is the per-position abs/rel gate (None means 1)."""
    n, d = h.shape
    dh = d // n_heads
    scores = np.zeros((n_heads, n, n))
    for head in range(n_heads):
        cols = slice(head * dh, (head + 1) * dh)
        wq = w_q[:, cols]
        wke = w_ke[:, cols]
        wkp = w_kp[:, cols]
        bqe = b_qe[cols]
        bqp = b_qp[cols]
        for i in range(n):
            ri = 1.0 if r is None else r[i]
            q = h[i] @ wq
            for j in range(n):
                content = (q + bqe) @ (h[j] @ wke)
                p_vec = ri * sinusoid(i - j, d) + (1.0 - ri) * sinusoid(j, d)
                positional = (q + bqp) @ (p_vec @ wkp)
                scores[head, i, j] = (content + positional) / math.sqrt(dh)
    return scores


def naive_match_probs(h, w_q, b_q, w_ke, w_lr, b_lr, w_rl, b_rl, alpha, beta, gamma, n_heads):
    """Per-pair match probabilities for one (N, d) sequence."""
    n, d = h.shape
    dh = d // n_heads
    probs = np.zeros((n_heads, n, n))
    for head in range(n_heads):
        cols = slice(head * dh, (head + 1) * dh)
        for i in range(n):
            q = h[i] @ w_q[:, cols] + b_q[cols]
            for j in range(n):
                if i <= j:
                    direction = h[i] @ w_lr[:, head] + b_lr[head]
                else:
                    direction = h[i] @ w_rl[:, head] + b_rl[head]
                logit = alpha[head] * (q @ (h[j] @ w_ke[:, cols])) + beta[head] * direction + gamma[head]
                probs[head, i, j] = 1.0 / (1.0 + math.exp(-logit))
    return probs


def naive_geometric_weights(p: np.ndarray) -> np.ndarray:
    """Direct product form of the distance-ordered attention weights,
    evaluated pairwise. p is (N, N); rows are targets."""
    n = p.shape[0]
    a = np.zeros_like(p)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prod = 1.0
            for k in range(n):
                if k == i or k == j:
                    continue
                di, dj = abs(i - k), abs(i - j)
                closer = di < dj if j > i else di <= dj
                if closer:
                    prod *= 1.0 - p[i, k]
            a[i, j] = p[i, j] * prod
    return a


def geometric_weights_direct(p: np.ndarray) -> np.ndarray:
    """Plain product-form evaluation (no log space) along geometric_ordering,
    batched over leading axes; an independent second route used to validate
    the log-space path."""
    n = p.shape[-1]
    a = np.zeros_like(p)
    for i in range(n):
        order = [k - 1 for k in geometric_ordering(i + 1, n)]
        survive = np.cumprod(1.0 - p[..., i, order], axis=-1)
        a[..., i, order[:1]] = p[..., i, order[:1]]
        a[..., i, order[1:]] = p[..., i, order[1:]] * survive[..., :-1]
    return a


def eval_arith(expr: str) -> int:
    """Mod-10 arithmetic oracle: defer to Python's interpreter. Valid because
    mod-10 is a ring homomorphism, so reducing at the end matches reducing
    at every operation."""
    assert set(expr) <= set("0123456789()+*")
    return eval(expr, {"__builtins__": {}}) % 10


def eval_listops(tokens: list[str]) -> int:
    """Stack-machine oracle for prefix list operations."""
    stack: list[list] = []
    ops = {"SM", "MIN", "MAX", "MED"}
    result = None
    for tok in tokens:
        if tok == "[":
            continue
        if tok in ops:
            stack.append([tok])
        elif tok == "]":
            frame = stack.pop()
            op, args = frame[0], frame[1:]
            if op == "SM":
                value = sum(args) % 10
            elif op == "MIN":
                value = min(args)
            elif op == "MAX":
                value = max(args)
            else:
                s = sorted(args)
                k = len(s)
                mid = s[k // 2] if k % 2 == 1 else (s[k // 2 - 1] + s[k // 2]) / 2
                value = int(math.floor(mid))
            if stack:
                stack[-1].append(value)
            else:
                result = value
        else:
            value = int(tok)
            if stack:
                stack[-1].append(value)
            else:
                result = value
    return result


def eval_ctl(tokens: list[str], tables: dict[str, tuple], symbols: tuple, reverse: bool) -> str:
    """Fold the function tables over a token sequence."""
    seq = list(reversed(tokens)) if reverse else list(tokens)
    current = seq[0]
    for letter in seq[1:]:
        current = tables[letter][symbols.index(current)]
    return current
