"""Per-op microbench of the model at the shapes the workloads run.

The passes below compose the model's own functions (``_layer_norm``,
``_softmax_inplace``, ``_gelu``, ...) in the order ``forward_batch`` and
``backward_batch`` use them, with a clock lap after each op.  Before any
op time is reported, the composed forward must reproduce
``forward_batch``'s hidden states and the composed backward must
reproduce ``loss_and_grads``'s gradients.  If either drifts, the shape's
op metrics are withheld: they would time a pass the program no longer
runs.
"""

from __future__ import annotations

import copy
import statistics
import time
from collections import defaultdict

import numpy as np

from metrics import BWD_OPS, ELEMENTWISE_OPS, FWD_OPS, MATMUL_OPS, SHAPES

DRIFT_RTOL = 1e-5
DRIFT_ATOL = 1e-6
MASK_PROB = 0.15
LEARNING_RATE = 1e-4


class OpClock:
    """Charges the time since the previous lap to the named op."""

    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self._t = time.perf_counter()

    def skip(self) -> None:
        self._t = time.perf_counter()

    def lap(self, op: str) -> None:
        t = time.perf_counter()
        self.ms[op] += (t - self._t) * 1e3
        self._t = t


def composed_forward(m, state, ids, mask, clk: OpClock):
    """forward_batch without dropout, op by op; returns (hidden, caches)."""
    cfg, p = state.config, state.params
    B, L = ids.shape
    nh, dh = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    attn_bias = None
    if not mask.all():
        attn_bias = np.zeros((B, 1, 1, L), dtype=state.dtype)
        attn_bias[:, 0, 0, :][~mask] = m.NEG_INF
    emb_sum = p["tok_emb"][ids] + p["pos_emb"][:L]
    clk.skip()
    x, emb_ln = m._layer_norm(emb_sum, p["emb_ln_scale"], p["emb_ln_offset"])
    clk.lap("layernorm")
    layers = []
    for n in range(cfg.n_layers):
        x_in = x
        clk.skip()
        qkv = (x.reshape(B * L, -1) @ p[f"l{n}.qkv_w"] + p[f"l{n}.qkv_b"]).reshape(B, L, 3, nh, dh)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        clk.lap("qkv")
        scores = np.matmul(q, k.swapaxes(-1, -2))
        scores *= scale
        if attn_bias is not None:
            scores += attn_bias
        clk.lap("scores")
        probs = m._softmax_inplace(scores)
        clk.lap("softmax")
        ctx2d = np.matmul(probs, v).transpose(0, 2, 1, 3).reshape(B * L, -1)
        clk.lap("context")
        attn = (ctx2d @ p[f"l{n}.attn_out_w"] + p[f"l{n}.attn_out_b"]).reshape(B, L, -1)
        clk.lap("attn_out")
        h1, ln1 = m._layer_norm(x + attn, p[f"l{n}.ln1_scale"], p[f"l{n}.ln1_offset"])
        clk.lap("layernorm")
        h1_2d = h1.reshape(B * L, -1)
        f1 = h1_2d @ p[f"l{n}.ff1_w"] + p[f"l{n}.ff1_b"]
        clk.lap("ff1")
        g, s = m._gelu(f1)
        clk.lap("gelu")
        f2 = (g @ p[f"l{n}.ff2_w"] + p[f"l{n}.ff2_b"]).reshape(B, L, -1)
        clk.lap("ff2")
        x, ln2 = m._layer_norm(h1 + f2, p[f"l{n}.ln2_scale"], p[f"l{n}.ln2_offset"])
        clk.lap("layernorm")
        layers.append(dict(x_in=x_in, q=q, k=k, v=v, probs=probs, ctx2d=ctx2d, ln1=ln1,
                           h1_2d=h1_2d, f1=f1, s=s, g=g, ln2=ln2))
    return x, dict(emb_ln=emb_ln, layers=layers)


def composed_head(m, state, hidden, sel, clk: OpClock):
    """Tied output head and log-softmax at the selected positions."""
    clk.skip()
    h_sel = hidden[sel]
    logp = m.log_softmax(h_sel @ state.params["tok_emb"].T + state.params["out_bias"], axis=-1)
    clk.lap("head")
    return h_sel, logp


def composed_backward(m, state, ids, labels, hidden, caches, h_sel, logp, clk: OpClock):
    """loss_and_grads' gradient, op by op (no dropout)."""
    cfg, p = state.config, state.params
    B, L = ids.shape
    nh, dh = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    sel = labels != m.IGNORE_INDEX
    n_masked = int(sel.sum())
    rows = np.arange(n_masked)
    dlogits = np.exp(logp)
    dlogits[rows, labels[sel]] -= 1.0
    dlogits /= n_masked
    dx = np.zeros_like(hidden)
    dx[sel] = dlogits @ p["tok_emb"]
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    for n in reversed(range(cfg.n_layers)):
        c = caches["layers"][n]
        clk.skip()
        dr2, dsc, dof = m._layer_norm_backward(dx, c["ln2"], p[f"l{n}.ln2_scale"])
        clk.lap("layernorm_bwd")
        grads[f"l{n}.ln2_scale"] += dsc
        grads[f"l{n}.ln2_offset"] += dof
        df2 = dr2.reshape(B * L, -1)
        grads[f"l{n}.ff2_w"] += c["g"].T @ df2
        grads[f"l{n}.ff2_b"] += df2.sum(axis=0)
        dg = df2 @ p[f"l{n}.ff2_w"].T
        clk.skip()
        df1 = m._gelu_backward(dg, c["f1"], c["s"])
        clk.lap("gelu_bwd")
        grads[f"l{n}.ff1_w"] += c["h1_2d"].T @ df1
        grads[f"l{n}.ff1_b"] += df1.sum(axis=0)
        dh1 = dr2 + (df1 @ p[f"l{n}.ff1_w"].T).reshape(B, L, -1)
        clk.skip()
        dr1, dsc, dof = m._layer_norm_backward(dh1, c["ln1"], p[f"l{n}.ln1_scale"])
        clk.lap("layernorm_bwd")
        grads[f"l{n}.ln1_scale"] += dsc
        grads[f"l{n}.ln1_offset"] += dof
        da = dr1.reshape(B * L, -1)
        grads[f"l{n}.attn_out_w"] += c["ctx2d"].T @ da
        grads[f"l{n}.attn_out_b"] += da.sum(axis=0)
        dctx = (da @ p[f"l{n}.attn_out_w"].T).reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx, c["v"].swapaxes(-1, -2))
        dv = np.matmul(c["probs"].swapaxes(-1, -2), dctx)
        probs = c["probs"]
        clk.skip()
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        clk.lap("softmax_bwd")
        dq = np.matmul(dscores, c["k"]) * scale
        dk = np.matmul(dscores.swapaxes(-1, -2), c["q"]) * scale
        h = nh * dh
        dqkv = np.empty((B, L, 3 * h), dtype=dx.dtype)
        dqkv[:, :, :h] = dq.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv[:, :, h : 2 * h] = dk.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv[:, :, 2 * h :] = dv.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv_2d = dqkv.reshape(B * L, -1)
        grads[f"l{n}.qkv_w"] += c["x_in"].reshape(B * L, -1).T @ dqkv_2d
        grads[f"l{n}.qkv_b"] += dqkv_2d.sum(axis=0)
        dx = dr1 + (dqkv_2d @ p[f"l{n}.qkv_w"].T).reshape(B, L, -1)
    clk.skip()
    demb, dsc, dof = m._layer_norm_backward(dx, caches["emb_ln"], p["emb_ln_scale"])
    clk.lap("layernorm_bwd")
    grads["emb_ln_scale"] += dsc
    grads["emb_ln_offset"] += dof
    grads["pos_emb"][:L] += demb.sum(axis=0)
    np.add.at(grads["tok_emb"], ids.reshape(-1), demb.reshape(B * L, -1))
    grads["tok_emb"] += dlogits.T @ h_sel
    grads["out_bias"] += dlogits.sum(axis=0)
    return grads


def shape_inputs(m, rows: int, tokens: int, vocab: int, train: bool, rng):
    """Token ids, attention mask and labels like the workloads feed.

    PLL chunks are sorted by length, so they are full width with one
    masked slot per row.  Training batches are ragged, with 15% of real
    positions masked.
    """
    ids = rng.integers(3, vocab, size=(rows, tokens))
    mask = np.ones((rows, tokens), dtype=bool)
    labels = np.full((rows, tokens), m.IGNORE_INDEX, dtype=np.int64)
    if train:
        lengths = rng.integers(max(1, tokens // 2), tokens + 1, size=rows)
        lengths[0] = tokens
        mask = np.arange(tokens)[None, :] < lengths[:, None]
        picked = (rng.random((rows, tokens)) < MASK_PROB) & mask
        picked[0, 0] = True
    else:
        picked = np.zeros((rows, tokens), dtype=bool)
        picked[np.arange(rows), rng.integers(0, tokens, size=rows)] = True
    labels[picked] = ids[picked]
    ids = np.where(picked, 2, ids)  # the MASK special has id 2
    ids[~mask] = 0  # PAD
    return ids, mask, labels


def op_flops(cfg, rows: int, tokens: int, scored: int) -> dict[str, float]:
    """Multiply-add FLOPs per forward pass for each matmul op."""
    t = rows * tokens
    h, i, n = cfg.hidden, cfg.intermediate, cfg.n_layers
    attn = 2.0 * rows * cfg.n_heads * tokens * tokens * cfg.head_dim
    return {
        "qkv": n * 2.0 * t * h * 3 * h,
        "scores": n * attn,
        "context": n * attn,
        "attn_out": n * 2.0 * t * h * h,
        "ff1": n * 2.0 * t * h * i,
        "ff2": n * 2.0 * t * i * h,
        "head": 2.0 * scored * h * cfg.vocab_size,
    }


def op_bytes(cfg, rows: int, tokens: int, itemsize: int) -> dict[str, float]:
    """Bytes each elementwise op must read and write at least once."""
    t = rows * tokens
    n = cfg.n_layers
    return {
        "softmax": n * 2.0 * rows * cfg.n_heads * tokens * tokens * itemsize,
        # residual add + norm reads two tensors and writes one, per sublayer;
        # the embedding norm reads one and writes one
        "layernorm": (n * 2 * 3 + 2) * t * cfg.hidden * itemsize,
        "gelu": n * 3.0 * t * cfg.intermediate * itemsize,  # x in; y and s out
    }


def _median_ms(fn, reps: int) -> float:
    return statistics.median(_timed(fn) for _ in range(reps)) * 1e3


def sgemm_peak_gflops(n: int = 1024, reps: int = 10) -> float:
    """Best float32 n x n x n matmul rate, as numpy's BLAS runs it here."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = min(_timed(lambda: a @ b) for _ in range(reps))
    return 2.0 * n**3 / best / 1e9


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=DRIFT_RTOL, atol=DRIFT_ATOL))


def bench_shape(m, name: str, seed: int, peak: float, reps: int) -> tuple[dict, list[str]]:
    """Metrics for one shape, and the drift problems found (empty if none)."""
    spec = SHAPES[name]
    rows, tokens, train = spec["rows"], spec["tokens"], spec["train"]
    rng = np.random.default_rng(seed)
    state = m.init_model(m.ModelConfig(vocab_size=spec["vocab"]), seed=seed)
    cfg = state.config
    ids, mask, labels = shape_inputs(m, rows, tokens, spec["vocab"], train, rng)
    sel = labels != m.IGNORE_INDEX

    problems = []
    ref_hidden, _ = m.forward_batch(state, ids, mask)
    ref_grads = m.loss_and_grads(state, ids, mask, labels)[1] if train else None

    op_runs = defaultdict(list)
    forward_ms = []
    for rep in range(reps):
        forward_ms.append(_timed(lambda: m.forward_batch(state, ids, mask)) * 1e3)
        clk = OpClock()
        hidden, caches = composed_forward(m, state, ids, mask, clk)
        h_sel, logp = composed_head(m, state, hidden, sel, clk)
        if train:
            grads = composed_backward(m, state, ids, labels, hidden, caches, h_sel, logp, clk)
        if rep == 0:
            if not _close(hidden, ref_hidden):
                problems.append(f"{name}: composed forward no longer matches forward_batch")
            if train and not all(_close(grads[k], ref_grads[k]) for k in ref_grads):
                problems.append(f"{name}: composed backward no longer matches loss_and_grads")
        for op, ms in clk.ms.items():
            op_runs[op].append(ms)
        del hidden, caches
    del ref_hidden, ref_grads

    pre = f"model.{name}."
    out = {}
    out[pre + "forward_ms"] = statistics.median(forward_ms)
    if train:
        drop = np.random.default_rng(seed)
        out[pre + "loss_and_grads_ms"] = _median_ms(
            lambda: m.loss_and_grads(state, ids, mask, labels, dropout_rng=drop), reps
        )
        _, cache = m.forward_batch(state, ids, mask, dropout_rng=drop)
        d_hidden = np.full((rows, tokens, cfg.hidden), 1e-3, dtype=state.dtype)
        out[pre + "backward_ms"] = _median_ms(lambda: m.backward_batch(state, d_hidden, cache), reps)
        del cache
        grads = m.loss_and_grads(state, ids, mask, labels)[1]
        adam_runs = []
        for _ in range(reps):
            st, g = copy.deepcopy(state), copy.deepcopy(grads)
            adam_runs.append(_timed(lambda: m.adam_step(st, g, LEARNING_RATE)) * 1e3)
        op_runs["adam"] = adam_runs

    ops = {op: statistics.median(v) for op, v in op_runs.items()}
    for op in FWD_OPS + (BWD_OPS if train else ()):
        out[pre + f"{op}_ms"] = ops[op]
    flops = op_flops(cfg, rows, tokens, int(sel.sum()))
    for op in MATMUL_OPS:
        out[pre + f"{op}_gflops"] = flops[op] / (ops[op] * 1e6)
    out[pre + "matmul_peak_frac"] = (
        sum(flops.values()) / (sum(ops[op] for op in MATMUL_OPS) * 1e6) / peak
    )
    nbytes = op_bytes(cfg, rows, tokens, state.dtype.itemsize)
    for op in ELEMENTWISE_OPS:
        out[pre + f"{op}_gbps"] = nbytes[op] / (ops[op] * 1e6)
    in_forward = sum(ops[op] for op in FWD_OPS if op != "head")
    out[pre + "op_coverage"] = in_forward / out[pre + "forward_ms"]
    return out, problems


def run(m, seed: int) -> tuple[dict, list[str]]:
    """All shapes; a drifted shape contributes its problem and no metrics."""
    peak = sgemm_peak_gflops()
    out = {"model.sgemm_peak_gflops": peak}
    problems = []
    for name, spec in SHAPES.items():
        reps = 3 if spec["rows"] * spec["tokens"] > 2048 else 7
        metrics, found = bench_shape(m, name, seed, peak, reps)
        problems += found
        if not found:
            out.update(metrics)
    return out, problems
