"""Dense tensors with reverse-mode automatic differentiation.

The design is a tape: ops executed inside a ``with Graph():`` block append
nodes to the active graph in execution order, and ``backward(loss)`` walks
the tape in reverse, accumulating gradients into the parameters it reaches.
A parameter is an entry of a ``ParamVector``: its value and its gradient
are views of the vector's one value array and one gradient array. A
backward rule returns a gradient for every input; ``backward`` keeps only
those of recorded nodes and parameters. Ops executed with no active graph
are plain numpy computations (cheap inference path).

The ops work on whole batches: a self-attention encoding block over
padded sequences that masks the padded keys, row gathers that pad with
zeros, a mean over contiguous segments and a char-CNN whose max-pool
ignores padded time steps, so a model runs one op per layer rather than
one per vector.

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

    __slots__ = ("data", "node")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        _require_finite(arr, "tensor")
        self.data = arr
        self.node: Node | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs: finiteness already checked.
        t = cls.__new__(cls)
        t.data, t.node = arr, None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A leaf that receives gradients: entry ``index`` of a ``ParamVector``.
    Its ``data`` is a view of the vector's values that nothing rebinds, and
    its ``grad``, once a backward pass reaches it, a view of the vector's
    gradients."""

    __slots__ = ("grad", "index", "_view", "_grads")

    def __init__(self, grads: "_Grads", index: int, view: np.ndarray):
        self.index, self._view, self._grads = index, view, grads
        self.grad: np.ndarray | None = None
        self.node = None

    @property
    def data(self) -> np.ndarray:
        return self._view

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # the first gradient is copied in, so a -0.0 stays -0.0
        if self.grad is None:
            self.grad = self._grads.view(self.index)
            self.grad[...] = g
        else:
            self.grad += g


class _Grads:
    """The gradient vector of a ``ParamVector``, allocated by the first
    backward pass that reaches one of its parameters. The parameters hold
    this and not the vector, so that no reference cycle keeps a dropped
    model's values alive until the cyclic garbage collector runs."""

    __slots__ = ("size", "slots", "array", "views")

    def __init__(self, size: int):
        self.size = size
        self.slots: list[tuple[int, int, tuple[int, ...]]] = []  # lo, hi, shape
        self.array: np.ndarray | None = None
        self.views: list[np.ndarray] = []

    def view(self, index: int) -> np.ndarray:
        if self.array is None:
            self.array = np.empty(self.size)
            self.views = [self.array[lo:hi].reshape(shape) for lo, hi, shape in self.slots]
        return self.views[index]


class ParamVector:
    """Named parameters stored back to back, in the order they were added,
    in one float64 vector ``data``; their gradients live the same way in
    ``grad``, which the first backward pass that reaches one allocates.
    Iterating gives the (name, parameter) pairs."""

    def __init__(self, size: int):
        self.data = np.empty(size)
        self.bounds = [0]  # parameter i holds data[bounds[i]:bounds[i + 1]]
        self._params: list[tuple[str, Parameter]] = []
        self._grads = _Grads(size)

    @property
    def grad(self) -> np.ndarray | None:
        return self._grads.array

    def add(self, name: str, arr) -> Parameter:
        """Cast ``arr`` straight into the next slice, as a new parameter."""
        arr = np.asarray(arr)
        lo, hi = self.bounds[-1], self.bounds[-1] + arr.size
        view = self.data[lo:hi].reshape(arr.shape)
        np.copyto(view, arr, casting="unsafe")
        _require_finite(view, "tensor")
        self.bounds.append(hi)
        self._grads.slots.append((lo, hi, arr.shape))
        p = Parameter(self._grads, len(self._params), view)
        self._params.append((name, p))
        return p

    def __iter__(self):
        return iter(self._params)

    def zero_grads(self) -> None:
        for _, p in self._params:
            p.grad = None

    def live_runs(self) -> list[tuple[int, int]]:
        """The [lo, hi) spans of ``grad`` covered by runs of consecutive
        parameters that have a gradient."""
        runs: list[tuple[int, int]] = []
        for (_, p), lo, hi in zip(self._params, self.bounds, self.bounds[1:]):
            if p.grad is None:
                continue
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs

    def grads(self) -> np.ndarray:
        """``grad``, allocated if need be, with zeros in the slices of
        parameters that have no gradient."""
        for i, (_, p) in enumerate(self._params):
            if p.grad is None:
                self._grads.view(i)[...] = 0.0
        return self.grad


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
    tracked = graph is not None and any(t.node is not None or isinstance(t, Parameter)
                                        for t in inputs)
    out = Tensor._wrap(out_arr)
    if tracked:
        node = Node(op, inputs, backward_fn, graph)
        out.node = node
        graph._append(node)
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every parameter reachable from ``loss``.

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
            elif isinstance(inp, Parameter):
                inp._accumulate(g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Parameter:
    """A parameter that is the one entry of its own vector."""
    arr = np.asarray(data, dtype=np.float64)
    return ParamVector(arr.size).add("", arr)


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


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / sqrt(var + eps) over the last axis, and 1 / sqrt(var +
    eps): the variance is the mean of the same x - mean squared, as
    ``x.var`` computes it."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = np.square(centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return centered * inv, inv


def _normalize_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                    inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of x, gain and bias of ``xhat * gain + bias`` over the
    rows of a 2-D x, for the upstream gradient g."""
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=(0,)), g.sum(axis=(0,))


def _attend(qp: np.ndarray, kvp: np.ndarray, n_heads: int, q_mask: np.ndarray,
            k_mask: np.ndarray, sink: list | None):
    """``encoding_block``'s attention of the query rows qp[Nq, d] over the key
    and value rows kvp[N, 2d] -> (output [Nq, d], g -> (g_qp, g_kvp))."""
    (n_q, d), n_kv = qp.shape, kvp.shape[0]
    n_seq, heads = len(q_mask), (n_heads, d // n_heads)
    q = np.zeros(q_mask.shape + heads)
    q[q_mask] = qp.reshape((n_q,) + heads)
    kv, k_at = kvp.reshape((n_kv, 2) + heads), np.flatnonzero(k_mask)
    k, v = np.zeros(k_mask.shape + heads), np.zeros(k_mask.shape + heads)
    k.reshape((-1,) + heads)[k_at] = kv[:, 0]
    v.reshape((-1,) + heads)[k_at] = kv[:, 1]

    # products over (sequence, head) pairs, laid out as numpy's batched-matmul
    # einsum plans lay them out, so the reductions after them add in the
    # same order: fold permutes by ``axes`` and merges the first two axes
    def fold(x, axes):
        x = x.transpose(axes)
        return x.reshape((n_seq * n_heads,) + x.shape[2:])

    def unfold(x, axes):
        return x.reshape((n_seq, n_heads) + x.shape[1:]).transpose(axes)

    s = 1.0 / math.sqrt(d)
    q_shel = fold(q, (0, 2, 3, 1))
    scores = unfold(fold(k, (0, 2, 1, 3)) @ q_shel, (0, 1, 3, 2)) * s
    scores = np.where(~k_mask[:, None, None, :], -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    if sink is not None:
        sink.append(attn)
    attn_shml = fold(attn, (0, 1, 3, 2))
    out = unfold(fold(v, (0, 2, 3, 1)) @ attn_shml, (0, 3, 1, 2))

    # the gradients read from the slots add 0.0, as the scatters into zeros
    # they replace did, so a -0.0 comes out +0.0
    def bwd(g):
        g_out = np.zeros(q_mask.shape + heads)
        g_out[q_mask] = g.reshape((-1,) + heads)
        g_attn = unfold(fold(v, (0, 2, 1, 3)) @ fold(g_out, (0, 2, 3, 1)), (0, 1, 3, 2))
        g_v = unfold(attn_shml @ fold(g_out, (0, 2, 1, 3)), (0, 2, 1, 3))
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * s
        g_q = unfold(fold(k, (0, 2, 3, 1)) @ fold(g_scores, (0, 1, 3, 2)), (0, 3, 1, 2))
        g_k = unfold(q_shel @ fold(g_scores, (0, 1, 2, 3)), (0, 3, 1, 2))
        g_kv = np.empty((n_kv, 2) + heads)
        g_kv[:, 0], g_kv[:, 1] = g_k[k_mask], g_v[k_mask]
        g_kv += 0.0
        return (g_q[q_mask] + 0.0).reshape(n_q, d), g_kv.reshape(n_kv, 2 * d)

    return out[q_mask].reshape(-1, d), bwd


def encoding_block(x: Tensor, n_heads: int, k_mask, wq: Tensor, wkv: Tensor, wo: Tensor,
                   g1: Tensor, c1: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                   g2: Tensor, c2: Tensor, rows=None, sink: list | None = None) -> Tensor:
    """A self-attention encoding block over the packed rows x[N, d] of
    sequences -> one output row per query [Nq, d]:

        y = LN(xq + attention(xq @ wq, x @ wkv) @ wo; g1, c1)
        out = LN(y + relu(y @ w1 + b1) @ w2 + b2; g2, c2)

    The rows of x fill the slots of the boolean mask ``k_mask`` [S, L] in
    row-major order. ``rows`` [S, Lq] holds the row at each query slot (-1
    pads; default every row at its own slot), and xq those rows in order.
    Head h owns column block h of wq and of wkv's key and value halves;
    scores are scaled by 1/sqrt(d), and padded keys get weight 0. LN
    normalizes each row (eps ``LAYER_NORM_EPS``), then applies ``* g + c``.
    ``sink`` collects the softmax [S, n_heads, Lq, L].

    One node for the chain gather_rows (with ``rows``), matmul, matmul,
    attention, matmul, add, layer_norm, matmul, add_bias, relu, matmul,
    add_bias, add, layer_norm: it makes the chain's numpy calls in order and
    applies their backward rules in reverse, adding x's gradient terms as
    the tape did: (tail + keys/values) + queries, or with ``rows``,
    keys/values + the scatter of (tail + queries).
    """
    d, f = (t.shape[-1] if t.shape else -1 for t in (x, w1))
    weights = (wq, wkv, wo, g1, c1, w1, b1, w2, b2, g2, c2)
    shapes = [(d, d), (d, 2 * d), (d, d), (d,), (d,), (d, f), (f,), (f, d), (d,), (d,), (d,)]
    if x.data.ndim != 2 or not 0 < n_heads <= d or d % n_heads \
            or [t.shape for t in weights] != shapes:
        raise ShapeError(f"encoding_block: rows {x.shape} with {n_heads} heads and weights "
                         f"{[t.shape for t in weights]}")
    xd, n, k_mask = x.data, x.shape[0], np.asarray(k_mask)
    if k_mask.dtype != bool or k_mask.ndim != 2 or np.count_nonzero(k_mask) != n:
        raise ShapeError(f"encoding_block: key mask {k_mask.shape} {k_mask.dtype} is not a "
                         f"boolean [S, L] array with a slot for each of {n} rows")
    rows = None if rows is None else np.asarray(rows)
    if rows is not None and (rows.dtype.kind not in "iu" or rows.shape[:1] != k_mask.shape[:1]
                             or rows.ndim != 2 or not -1 <= rows.min(initial=-1)
                             or rows.max(initial=-1) >= n):
        raise ShapeError(f"encoding_block: query rows {rows.shape} {rows.dtype} are not ids "
                         f"of {n} rows for {len(k_mask)} sequences")
    q_mask = k_mask if rows is None else rows >= 0
    if not q_mask.any() or not k_mask.any(axis=1).all():
        raise ShapeError("encoding_block: no query, or a sequence with no key")
    picked = None if rows is None else rows[q_mask]
    xq = xd if picked is None else xd[picked]
    wqd, wkvd, wod, g1d, w1d, w2d, g2d = (t.data for t in (wq, wkv, wo, g1, w1, w2, g2))
    qp, kvp = xq @ wqd, xd @ wkvd
    for arr in (qp, kvp):
        _require_finite(arr, "encoding_block")
    att, att_bwd = _attend(qp, kvp, n_heads, q_mask, k_mask, sink)
    xhat1, inv1 = _normalize(xq + att @ wod)
    y1 = xhat1 * g1d + c1.data
    z1 = y1 @ w1d + b1.data
    # a non-finite value anywhere in the block makes qp, kvp, z1 or the
    # output, which are checked, non-finite; relu would hide a -inf or NaN
    _require_finite(z1, "encoding_block")
    active = z1 > 0
    h = np.where(active, z1, 0.0)
    xhat2, inv2 = _normalize(y1 + (h @ w2d + b2.data))

    def bwd(g):
        g_s2, g_g2, g_c2 = _normalize_grad(g, g2d, xhat2, inv2)
        g_z1 = (g_s2 @ w2d.T) * active
        g_s1, g_g1, g_c1 = _normalize_grad(g_s2 + g_z1 @ w1d.T, g1d, xhat1, inv1)
        g_qp, g_kvp = att_bwd(g_s1 @ wod.T)
        g_x, g_xq = g_kvp @ wkvd.T, g_qp @ wqd.T
        if picked is None:
            g_x = (g_s1 + g_x) + g_xq
        else:  # one bincount adds each row's gradients in index order from 0.0
            cells = (picked[:, None] * d + np.arange(d)).ravel()
            g_x = g_x + np.bincount(cells, weights=(g_s1 + g_xq).ravel(),
                                    minlength=xd.size).reshape(xd.shape)
        return (g_x, xq.T @ g_qp, xd.T @ g_kvp, att.T @ g_s1, g_g1, g_c1, y1.T @ g_z1,
                g_z1.sum(axis=(0,)), h.T @ g_s2, g_s2.sum(axis=(0,)), g_g2, g_c2)

    return _record("encoding_block", xhat2 * g2d + c2.data, (x, *weights), bwd)


def char_cnn(seq: Tensor, filters: Sequence[Tensor], biases: Sequence[Tensor],
             lengths: Sequence[int] | np.ndarray | None = None) -> Tensor:
    """Character CNN: for each filter bank filters[j] [w_j, c_in, c_j], the
    valid cross-correlation of seq[..., W, c_in] max-pooled over time plus
    biases[j]; the banks' results side by side, then relu -> [..., sum c_j].

    ``lengths`` (shape ``seq.shape[:-2]``, each 1..W; default W) marks how
    many time steps of each sequence are real: the rest are treated as
    zeros and never pooled. A sequence shorter than a filter is zero-padded
    on the right to one window. Pooling ties break toward the lowest time
    index, so the backward pass is deterministic: gradient flows only to the
    argmax position.

    One node for the chain of one conv1d_maxpool and one add_bias per bank,
    then concat_cols and relu: it makes the chain's numpy calls in the same
    order, except that the zero-padded, masked input is built once, as long
    as the widest bank needs, and bank j reads its prefix of max(W, w_j)
    steps. The backward pass applies the chain's rules in reverse, adding
    the banks' gradients of seq from the last bank to the first.
    """
    if seq.data.ndim < 2 or not filters or len(biases) != len(filters) \
            or any(f.data.ndim != 3 for f in filters):
        raise ShapeError(f"char_cnn: {seq.shape} with filters "
                         f"{[f.shape for f in filters]} and {len(biases)} biases")
    lead, (W, c_in) = seq.shape[:-2], seq.shape[-2:]
    if W < 1:
        raise ShapeError("char_cnn: empty sequence")
    for f, b in zip(filters, biases):
        if f.shape[1] != c_in or b.shape != f.shape[2:]:
            raise ShapeError(f"char_cnn: filters {f.shape} and bias {b.shape} "
                             f"for {seq.shape}")
    lens = np.full(lead, W, dtype=np.intp) if lengths is None \
        else np.asarray(lengths, dtype=np.intp)
    if lens.shape != lead or (lens.size and (lens.min() < 1 or lens.max() > W)):
        raise ShapeError(f"char_cnn: lengths {lens.shape} out of range for {seq.shape}")
    span = max(W, *(f.shape[0] for f in filters))
    real = (np.arange(span) < lens[..., None])[..., None]       # [..., span, 1]
    padded = np.zeros(lead + (span, c_in))
    padded[..., :W, :] = seq.data
    padded *= real
    banks, pooled = [], []
    for f, b in zip(filters, biases):
        fd, (w, _, c_out) = f.data, f.shape
        positions = max(W, w) - w + 1
        conv = padded[..., 0:positions, :] @ fd[0]
        for i in range(1, w):
            conv += padded[..., i:i + positions, :] @ fd[i]
        # a window must start at a real step and, when the sequence is long
        # enough, end at one: positions 0 .. max(len, w) - w
        valid = np.arange(positions) <= (np.maximum(lens, w) - w)[..., None]
        best = np.where(valid[..., None], conv, -np.inf).argmax(axis=-2)
        at = (np.arange(lens.size)[:, None], best.reshape(-1, c_out), np.arange(c_out))
        pooled.append(conv.reshape(-1, positions, c_out)[at].reshape(best.shape) + b.data)
        banks.append((fd, w, positions, conv.shape, at))
    pre = np.concatenate(pooled, axis=-1)
    _require_finite(pre, "char_cnn")  # relu would hide -inf and NaN
    active = pre > 0
    offsets = np.cumsum([0] + [f.shape[2] for f in filters])
    axes = tuple(range(pre.ndim - 1))

    def bwd(g):
        g_pre = g * active
        g_seq, g_filters, g_biases = None, [], []
        for j in reversed(range(len(banks))):
            fd, w, positions, conv_shape, at = banks[j]
            g_pool = g_pre[..., offsets[j]:offsets[j + 1]]
            dconv = np.zeros(conv_shape)
            dconv.reshape(-1, positions, conv_shape[-1])[at] = g_pool.reshape(-1, conv_shape[-1])
            g_pad = np.zeros(lead + (max(W, w), c_in))
            for i in range(w):
                g_pad[..., i:i + positions, :] += dconv @ fd[i].T
            flat_d = dconv.reshape(-1, conv_shape[-1])
            g_filters.append(np.stack([padded[..., i:i + positions, :].reshape(-1, c_in).T
                                       @ flat_d for i in range(w)]))
            g_biases.append(g_pool.sum(axis=axes))
            g_bank = (g_pad * real[..., :max(W, w), :])[..., :W, :]
            g_seq = g_bank if g_seq is None else g_seq + g_bank
        return (g_seq, *reversed(g_filters), *reversed(g_biases))

    return _record("char_cnn", np.where(active, pre, 0.0), (seq, *filters, *biases), bwd)


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

    # one bincount adds each row's gradients in index order from 0.0
    def bwd(g):
        width = math.prod(table.shape[1:])
        cells = (idx[~pad][:, None] * width + np.arange(width)).ravel()
        return (np.bincount(cells, weights=g[~pad].ravel(),
                            minlength=table.data.size).reshape(table.shape),)

    return _record("gather_rows", out, (table,), bwd)

