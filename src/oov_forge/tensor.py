"""Dense tensors with reverse-mode automatic differentiation.

The design is a tape: ops executed inside a ``with Graph():`` block append
nodes to the active graph in execution order, and ``backward(loss)`` walks
the tape in reverse, accumulating gradients into leaf tensors that were
created with ``requires_grad=True``. A backward rule returns a gradient for
every input; ``backward`` keeps only those of recorded nodes and
``requires_grad`` leaves. Ops executed with no active graph are plain numpy
computations (cheap inference path).

The ops work on whole batches: multi-head attention within padded
sequences that masks the padded keys, row gathers that pad with zeros, a
mean over contiguous segments and a char-CNN max-pool that ignores padded
time steps, so a model runs one op per layer rather than one per vector.

Deliberate restrictions, to keep the core auditable:

* no broadcasting except bias-add over the last axis (``add_bias``) and
  the dedicated per-row scaling op (``scale_rows``);
* every tensor is float64 (gradient checks stay meaningful);
* every op validates that its output is finite and raises NumericError
  otherwise, so NaN/Inf never propagate silently.

Each thread (and each asyncio task) has its own stack of active graphs, so
graphs built concurrently never share a tape. Tensors that are not attached
to a graph are immutable values and safe to share across threads.
"""

from __future__ import annotations

import math
import weakref
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

LAYER_NORM_EPS = 1e-5
COSINE_EPS = 1e-8

_GRAPH_STACK: ContextVar[tuple["Graph", ...]] = ContextVar("graph_stack", default=())


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite value produced")


class Tensor:
    """An n-dimensional float array, optionally attached to a graph node."""

    __slots__ = ("data", "grad", "node", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _require_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.node: Node | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs: finiteness already checked.
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.node = None
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


class Node:
    """One tape entry: the op kind, its inputs, and a backward rule.

    A node holds its graph weakly and not its output, so a tape forms no
    reference cycle: it is freed as soon as the last of its graph and its
    tensors is dropped, without waiting for the cyclic garbage collector.
    """

    __slots__ = ("op", "inputs", "backward_fn", "index", "_graph")

    def __init__(self, op: str, inputs: tuple,
                 backward_fn: Callable[[np.ndarray], tuple], graph: "Graph"):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.index = -1
        self._graph = weakref.ref(graph)

    @property
    def graph(self) -> "Graph | None":
        return self._graph()


class Graph:
    """Append-only op tape. Entering the context makes it the active graph
    of the current thread; keep a reference (``with Graph() as g``) to call
    ``backward`` after the block."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.set(_GRAPH_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _GRAPH_STACK.get()
        if not stack or stack[-1] is not self:
            raise GraphError("graphs must be exited in LIFO order")
        _GRAPH_STACK.set(stack[:-1])
        return False

    def _append(self, node: Node) -> None:
        node.index = len(self.nodes)
        self.nodes.append(node)


def _active_graph() -> Graph | None:
    stack = _GRAPH_STACK.get()
    return stack[-1] if stack else None


def _record(op: str, out_arr: np.ndarray, inputs: tuple,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _require_finite(out_arr, op)
    graph = _active_graph()
    tracked = graph is not None and any(t.requires_grad or t.node is not None
                                        for t in inputs)
    out = Tensor._wrap(out_arr, tracked)
    if tracked:
        node = Node(op, inputs, backward_fn, graph)
        out.node = node
        graph._append(node)
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from ``loss``.

    Repeated calls without zeroing accumulate. Intermediate (non-leaf)
    tensors do not retain gradients.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise GraphError("loss is not attached to a graph (no ops were recorded)")

    graph = loss.node.graph
    if graph is None:
        raise GraphError("the loss's graph is gone: call backward inside its "
                         "'with Graph()' block or keep the graph")
    adjoint: dict[Node, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    for node in reversed(graph.nodes[: loss.node.index + 1]):
        g_out = adjoint.pop(node, None)
        if g_out is None:
            continue
        for inp, g in zip(node.inputs, node.backward_fn(g_out)):
            if inp.node is not None:
                key = inp.node
                # never in place: a backward rule may hand one array to
                # several inputs, or a view of its own incoming gradient
                adjoint[key] = adjoint[key] + g if key in adjoint else g
            elif inp.requires_grad:
                inp._accumulate(g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")

    def bwd(g):
        return (g, g)

    return _record("add", a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return (g * bd, g * ad)

    return _record("mul", ad * bd, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(g):
        return (g * s,)

    return _record("scale", a.data * s, (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b broadcast over the last axis (the only broadcast allowed)."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} vs {b.shape}")
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        return (g, g.sum(axis=axes))

    return _record("add_bias", x.data + b.data, (x, b), bwd)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of x[L,n] by s[i] (per-position scalar weighting)."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: {x.shape} vs {s.shape}")
    xd, sd = x.data, s.data

    def bwd(g):
        return (g * sd[:, None], (g * xd).sum(axis=1))

    return _record("scale_rows", xd * sd[:, None], (x, s), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return (g @ bd.T, ad.T @ g)

    return _record("matmul", ad @ bd, (a, b), bwd)


def attention(qp: Tensor, kvp: Tensor, n_heads: int, queries, keys,
              sink: list | None = None) -> Tensor:
    """Multi-head scaled dot-product attention within padded sequences,
    from the query projection qp[Nq, d] and the key/value projection
    kvp[N, 2d] (every head's key columns, then every head's value columns)
    to one output row per query.

    ``queries`` [S, Lq] gives the qp row of each query slot of sequence s
    and ``keys`` [S, Lk] the kvp row of each key slot, -1 past its end.
    Scores are scaled by 1/sqrt(d) and padded keys get weight exactly 0
    and no gradient; every sequence needs a key. The result holds the
    query slots that are not padding in row-major order, [*, d]. ``sink``
    collects the softmax array [S, heads, Lq, Lk].
    """
    if qp.data.ndim != 2 or kvp.data.ndim != 2 or kvp.shape[1] != 2 * qp.shape[1] \
            or n_heads < 1 or qp.shape[1] % n_heads:
        raise ShapeError(f"attention: {qp.shape}, {kvp.shape} with {n_heads} heads")
    (n_q, d), n_kv = qp.shape, kvp.shape[0]
    q_ids, k_ids = (np.asarray(ids, dtype=np.intp) for ids in (queries, keys))
    if q_ids.ndim != 2 or k_ids.ndim != 2 or len(q_ids) != len(k_ids) \
            or (q_ids.size and not -1 <= q_ids.min() <= q_ids.max() < n_q) \
            or (k_ids.size and not -1 <= k_ids.min() <= k_ids.max() < n_kv) \
            or (k_ids < 0).all(axis=1).any():
        raise ShapeError(f"attention: slots {q_ids.shape}, {k_ids.shape} for {qp.shape}, "
                         f"{kvp.shape}: an id out of range or a sequence with no key")
    q_pad, k_pad = q_ids < 0, k_ids < 0
    heads = (n_heads, d // n_heads)
    kv = kvp.data.reshape((n_kv, 2) + heads)
    q = qp.data.reshape((n_q,) + heads)[np.where(q_pad, 0, q_ids)]
    k, v = (kv[np.where(k_pad, 0, k_ids), j] for j in range(2))
    q[q_pad] = k[k_pad] = v[k_pad] = 0.0
    s = 1.0 / math.sqrt(d)
    scores = np.einsum("slhe,smhe->shlm", q, k, optimize=True) * s
    scores = np.where(k_pad[:, None, None, :], -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    if sink is not None:
        sink.append(attn)
    out = np.einsum("shlm,smhe->slhe", attn, v, optimize=True)

    def bwd(g):
        g_out = np.zeros(out.shape)
        g_out[~q_pad] += g.reshape((-1,) + heads)
        g_attn = np.einsum("slhe,smhe->shlm", g_out, v, optimize=True)
        g_v = np.einsum("slhe,shlm->smhe", g_out, attn, optimize=True)
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * s
        g_q = np.einsum("shlm,smhe->slhe", g_scores, k, optimize=True)
        g_k = np.einsum("shlm,slhe->smhe", g_scores, q, optimize=True)
        g_qp = np.zeros((n_q,) + heads)
        np.add.at(g_qp, q_ids[~q_pad], g_q[~q_pad])
        g_kv = np.zeros(kv.shape)
        np.add.at(g_kv, k_ids[~k_pad], np.stack((g_k, g_v), axis=2)[~k_pad])
        return (g_qp.reshape(n_q, d), g_kv.reshape(n_kv, 2 * d))

    return _record("attention", out[~q_pad].reshape(-1, d), (qp, kvp), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return _record("relu", np.where(mask, x.data, 0.0), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(g):
        return (np.full(x.shape, g),)

    return _record("sum_all", np.asarray(x.data.sum()), (x,), bwd)


def segment_mean(x: Tensor, lengths: Sequence[int]) -> Tensor:
    """Mean of each run of consecutive rows of x[N, ...]: run i holds
    ``lengths[i]`` rows and the runs cover x exactly -> [len(lengths), ...].
    """
    counts = np.asarray(lengths, dtype=np.intp)
    if x.data.ndim < 1 or counts.ndim != 1 or not counts.size \
            or counts.min() < 1 or counts.sum() != x.shape[0]:
        raise ShapeError(f"segment_mean: lengths {counts.tolist()} for shape {x.shape}")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    denom = counts.reshape((-1,) + (1,) * (x.data.ndim - 1))

    def bwd(g):
        return (np.repeat(g / denom, counts, axis=0),)

    return _record("segment_mean", np.add.reduceat(x.data, starts, axis=0) / denom,
                   (x,), bwd)


def concat_cols(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate blocks [..., n_i] with equal leading dims along the last
    axis."""
    if not xs:
        raise ShapeError("concat_cols: empty input")
    lead = xs[0].shape[:-1]
    for x in xs:
        if x.data.ndim < 1 or x.shape[:-1] != lead:
            raise ShapeError(f"concat_cols: leading dims {xs[0].shape} vs {x.shape}")
    offsets = np.cumsum([0] + [x.shape[-1] for x in xs])

    def bwd(g):
        return tuple(g[..., offsets[j]:offsets[j + 1]] for j in range(len(xs)))

    return _record("concat_cols", np.concatenate([x.data for x in xs], axis=-1),
                   tuple(xs), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} vs last dim {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes),
                g.sum(axis=axes))

    return _record("layer_norm", xhat * gain.data + bias.data, (x, gain, bias), bwd)


def conv1d_maxpool(seq: Tensor, filters: Tensor,
                   lengths: Sequence[int] | np.ndarray | None = None) -> Tensor:
    """Valid cross-correlation of seq[..., W, c_in] with filters[w,c_in,c_out],
    max-pooled over time -> [..., c_out].

    ``lengths`` (shape ``seq.shape[:-2]``, each 1..W; default W) marks how
    many time steps of each sequence are real: the rest are treated as
    zeros and never pooled. A sequence shorter than the filter width is
    zero-padded on the right to one window. Pooling ties break toward the
    lowest time index, so the backward pass is deterministic: gradient flows
    only to the argmax position.
    """
    if seq.data.ndim < 2 or filters.data.ndim != 3:
        raise ShapeError(f"conv1d_maxpool: {seq.shape} with {filters.shape}")
    lead, (W, c_in) = seq.shape[:-2], seq.shape[-2:]
    w, f_cin, c_out = filters.shape
    if W < 1:
        raise ShapeError("conv1d_maxpool: empty sequence")
    if f_cin != c_in:
        raise ShapeError(f"conv1d_maxpool: channel mismatch {seq.shape} vs {filters.shape}")
    lens = np.full(lead, W, dtype=np.intp) if lengths is None \
        else np.asarray(lengths, dtype=np.intp)
    if lens.shape != lead or (lens.size and (lens.min() < 1 or lens.max() > W)):
        raise ShapeError(f"conv1d_maxpool: lengths {lens.shape} out of range for {seq.shape}")
    span = max(W, w)
    real = (np.arange(span) < lens[..., None])[..., None]       # [..., span, 1]
    padded = np.zeros(lead + (span, c_in))
    padded[..., :W, :] = seq.data
    padded *= real
    positions = span - w + 1
    fd = filters.data
    conv = padded[..., 0:positions, :] @ fd[0]
    for i in range(1, w):
        conv += padded[..., i:i + positions, :] @ fd[i]
    # a window must start at a real step and, when the sequence is long
    # enough, end at one: positions 0 .. max(len, w) - w
    valid = np.arange(positions) <= (np.maximum(lens, w) - w)[..., None]
    best = np.where(valid[..., None], conv, -np.inf).argmax(axis=-2)[..., None, :]
    out = np.take_along_axis(conv, best, axis=-2)[..., 0, :]

    def bwd(g):
        dconv = np.zeros_like(conv)
        np.put_along_axis(dconv, best, g[..., None, :], axis=-2)
        g_pad = np.zeros_like(padded)
        for i in range(w):
            g_pad[..., i:i + positions, :] += dconv @ fd[i].T
        flat_d = dconv.reshape(-1, c_out)
        g_fil = np.stack([padded[..., i:i + positions, :].reshape(-1, c_in).T @ flat_d
                          for i in range(w)])
        return ((g_pad * real)[..., :W, :], g_fil)

    return _record("conv1d_maxpool", out, (seq, filters), bwd)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Row-wise cos(u, v) over the last axis of same-shape u, v -> the
    leading shape (a scalar tensor for vectors), clamped to [-1, 1].

    Norms below COSINE_EPS are clamped in the denominator, which keeps the
    output exactly scale-invariant for any usable input; zero-norm inputs
    are rejected outright.
    """
    if u.data.ndim < 1 or u.shape != v.shape:
        raise ShapeError(f"cosine: {u.shape} vs {v.shape}")
    ud, vd = u.data, v.data
    nu = np.linalg.norm(ud, axis=-1)
    nv = np.linalg.norm(vd, axis=-1)
    if not (nu > 0.0).all():
        raise NumericError("cosine: zero-norm input u")
    if not (nv > 0.0).all():
        raise NumericError("cosine: zero-norm input v")
    mu = np.maximum(nu, COSINE_EPS)
    mv = np.maximum(nv, COSINE_EPS)
    d = (ud * vd).sum(axis=-1)
    out = np.clip(d / (mu * mv), -1.0, 1.0)

    def bwd(g):
        self_u = np.where(nu > COSINE_EPS, d / (nu * mu * mu * mv), 0.0)
        self_v = np.where(nv > COSINE_EPS, d / (nv * mv * mv * mu), 0.0)
        return (g[..., None] * ((vd / (mu * mv)[..., None]) - self_u[..., None] * ud),
                g[..., None] * ((ud / (mu * mv)[..., None]) - self_v[..., None] * vd))

    return _record("cosine", np.asarray(out), (u, v), bwd)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows of table[V, ...] selected by an integer array of any shape ->
    ids.shape + table.shape[1:]. Id -1 selects a zero row (padding); the
    backward pass scatter-adds into the selected rows.
    """
    if table.data.ndim < 1:
        raise ShapeError(f"gather_rows: expected an array of rows, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < -1 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows: ids out of range for {table.shape}")
    pad = idx < 0
    out = table.data[np.where(pad, 0, idx)]
    out[pad] = 0.0

    def bwd(g):
        gt = np.zeros(table.shape)
        np.add.at(gt, idx[~pad], g[~pad])
        return (gt,)

    return _record("gather_rows", out, (table,), bwd)

