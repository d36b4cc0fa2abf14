"""Dense tensors with reverse-mode automatic differentiation.

The design is a tape: ops executed inside a ``with Graph():`` block append
nodes to the active graph in execution order, and ``backward(loss)`` walks
the tape in reverse, accumulating gradients into leaf tensors that were
created with ``requires_grad=True``. Ops executed with no active graph are
plain numpy computations (cheap inference path).

Deliberate restrictions, to keep the core auditable:

* no broadcasting except bias-add over the last axis (``add_bias``) and the
  dedicated per-row scaling op (``scale_rows``);
* float64 is the default dtype (gradient checks stay meaningful); float32
  tensors are allowed for inference-style use, but a single expression must
  not mix dtypes;
* every op validates that its output is finite and raises NumericError
  otherwise, so NaN/Inf never propagate silently.

A Graph is single-owner while it is being built. Tensors that are not
attached to a graph are immutable values and safe to share across threads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

LAYER_NORM_EPS = 1e-5
COSINE_EPS = 1e-8

_GRAPH_STACK: list["Graph"] = []


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite value produced")


class Tensor:
    """An n-dimensional float array, optionally attached to a graph node."""

    __slots__ = ("data", "grad", "node", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        arr = np.asarray(data, dtype=dtype)
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

    @property
    def dtype(self):
        return self.data.dtype

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
    """One tape entry: the op kind, its inputs, and a backward rule."""

    __slots__ = ("op", "inputs", "out", "backward_fn", "index", "graph")

    def __init__(self, op: str, inputs: tuple, out: Tensor,
                 backward_fn: Callable[[np.ndarray], tuple], graph: "Graph"):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn
        self.index = -1
        self.graph = graph


class Graph:
    """Append-only op tape. Entering the context makes it the active graph."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _GRAPH_STACK.pop()
        assert popped is self, "graphs must be exited in LIFO order"
        return False

    def _append(self, node: Node) -> None:
        node.index = len(self.nodes)
        self.nodes.append(node)


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _record(op: str, out_arr: np.ndarray, inputs: tuple,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _require_finite(out_arr, op)
    graph = _active_graph()
    tracked = graph is not None and any(
        t.requires_grad or t.node is not None for t in inputs
    )
    out = Tensor._wrap(out_arr, tracked)
    if tracked:
        node = Node(op, inputs, out, backward_fn, graph)
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
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes[: loss.node.index + 1]):
        g_out = adjoint.pop(id(node.out), None)
        if g_out is None:
            continue
        grads = node.backward_fn(g_out)
        for inp, g in zip(node.inputs, grads):
            if g is None:
                continue
            if inp.node is not None:
                key = id(inp)
                if key in adjoint:
                    adjoint[key] += g
                else:
                    adjoint[key] = g
            elif inp.requires_grad:
                inp._accumulate(g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def constant(data, dtype=np.float64) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=np.float64) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    na, nb = _needs(a), _needs(b)

    def bwd(g):
        return (g if na else None, g if nb else None)

    return _record("add", a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    na, nb = _needs(a), _needs(b)

    def bwd(g):
        return (g if na else None, -g if nb else None)

    return _record("sub", a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    na, nb = _needs(a), _needs(b)
    ad, bd = a.data, b.data

    def bwd(g):
        return (g * bd if na else None, g * ad if nb else None)

    return _record("mul", ad * bd, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    na = _needs(a)

    def bwd(g):
        return (g * s if na else None,)

    return _record("scale", a.data * s, (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b broadcast over the last axis (the only broadcast allowed)."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} vs {b.shape}")
    nx, nb = _needs(x), _needs(b)
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        gb = g.sum(axis=axes) if nb and axes else (g.copy() if nb else None)
        return (g if nx else None, gb)

    return _record("add_bias", x.data + b.data, (x, b), bwd)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of x[L,n] by s[i] (per-position scalar weighting)."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: {x.shape} vs {s.shape}")
    nx, ns = _needs(x), _needs(s)
    xd, sd = x.data, s.data

    def bwd(g):
        gx = g * sd[:, None] if nx else None
        gs = (g * xd).sum(axis=1) if ns else None
        return (gx, gs)

    return _record("scale_rows", xd * sd[:, None], (x, s), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    na, nb = _needs(a), _needs(b)
    ad, bd = a.data, b.data

    def bwd(g):
        ga = g @ bd.T if na else None
        gb = ad.T @ g if nb else None
        return (ga, gb)

    return _record("matmul", ad @ bd, (a, b), bwd)


def vecmat(v: Tensor, w: Tensor) -> Tensor:
    """v[m] @ w[m,n] -> [n]."""
    if v.data.ndim != 1 or w.data.ndim != 2 or v.shape[0] != w.shape[0]:
        raise ShapeError(f"vecmat: {v.shape} x {w.shape}")
    nv, nw = _needs(v), _needs(w)
    vd, wd = v.data, w.data

    def bwd(g):
        gv = wd @ g if nv else None
        gw = np.outer(vd, g) if nw else None
        return (gv, gw)

    return _record("vecmat", vd @ wd, (v, w), bwd)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2-D, got {x.shape}")
    nx = _needs(x)

    def bwd(g):
        return (g.T if nx else None,)

    return _record("transpose2d", x.data.T.copy(), (x,), bwd)


def relu(x: Tensor) -> Tensor:
    nx = _needs(x)
    mask = x.data > 0

    def bwd(g):
        return (g * mask if nx else None,)

    return _record("relu", np.where(mask, x.data, 0.0), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    nx = _needs(x)
    shape = x.shape
    dt = x.data.dtype

    def bwd(g):
        return (np.full(shape, g, dtype=dt) if nx else None,)

    return _record("sum_all", np.asarray(x.data.sum(), dtype=dt), (x,), bwd)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over axis 0 of x[k,n] -> [n]."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_rows: expected 2-D, got {x.shape}")
    nx = _needs(x)
    k = x.shape[0]

    def bwd(g):
        if not nx:
            return (None,)
        return (np.broadcast_to(g / k, (k, g.shape[0])).copy(),)

    return _record("mean_rows", x.data.mean(axis=0), (x,), bwd)


def take_row(x: Tensor, i: int) -> Tensor:
    if x.data.ndim != 2 or not 0 <= i < x.shape[0]:
        raise ShapeError(f"take_row: index {i} in shape {x.shape}")
    nx = _needs(x)
    shape = x.shape
    dt = x.data.dtype

    def bwd(g):
        if not nx:
            return (None,)
        gx = np.zeros(shape, dtype=dt)
        gx[i] = g
        return (gx,)

    return _record("take_row", x.data[i].copy(), (x,), bwd)


def stack_rows(vs: Sequence[Tensor]) -> Tensor:
    """Stack k vectors of length n into [k,n]."""
    if not vs:
        raise ShapeError("stack_rows: empty input")
    n = vs[0].shape
    for v in vs:
        if v.data.ndim != 1 or v.shape != n:
            raise ShapeError(f"stack_rows: mixed shapes {n} vs {v.shape}")
    needs = [_needs(v) for v in vs]

    def bwd(g):
        return tuple(g[j].copy() if needs[j] else None for j in range(len(vs)))

    return _record("stack_rows", np.stack([v.data for v in vs]), tuple(vs), bwd)


def concat_vecs(vs: Sequence[Tensor]) -> Tensor:
    if not vs:
        raise ShapeError("concat_vecs: empty input")
    for v in vs:
        if v.data.ndim != 1:
            raise ShapeError(f"concat_vecs: expected 1-D, got {v.shape}")
    needs = [_needs(v) for v in vs]
    sizes = [v.shape[0] for v in vs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            g[offsets[j]:offsets[j + 1]].copy() if needs[j] else None
            for j in range(len(vs))
        )

    return _record("concat_vecs", np.concatenate([v.data for v in vs]), tuple(vs), bwd)


def concat_cols(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate [L,n_i] blocks along the last axis."""
    if not xs:
        raise ShapeError("concat_cols: empty input")
    rows = xs[0].shape[0]
    for x in xs:
        if x.data.ndim != 2 or x.shape[0] != rows:
            raise ShapeError(f"concat_cols: row mismatch {xs[0].shape} vs {x.shape}")
    needs = [_needs(x) for x in xs]
    sizes = [x.shape[1] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            g[:, offsets[j]:offsets[j + 1]].copy() if needs[j] else None
            for j in range(len(xs))
        )

    return _record("concat_cols", np.concatenate([x.data for x in xs], axis=1),
                   tuple(xs), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax: subtracts the per-slice max first."""
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    nx = _needs(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if not nx:
            return (None,)
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", y, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ShapeError(f"layer_norm: eps must be positive, got {eps}")
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} vs last dim {n}"
        )
    nx, ng, nb = _needs(x), _needs(gain), _needs(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    axes = tuple(range(x.data.ndim - 1))
    gd = gain.data

    def bwd(g):
        g_gain = (g * xhat).sum(axis=axes) if ng and axes else \
                 ((g * xhat).copy() if ng else None)
        g_bias = g.sum(axis=axes) if nb and axes else (g.copy() if nb else None)
        if nx:
            dxhat = g * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        else:
            gx = None
        return (gx, g_gain, g_bias)

    return _record("layer_norm", xhat * gd + bias.data, (x, gain, bias), bwd)


def conv1d_maxpool(seq: Tensor, filters: Tensor) -> Tensor:
    """Valid cross-correlation of seq[L,c_in] with filters[w,c_in,c_out],
    max-pooled over time -> [c_out].

    Sequences shorter than the filter width are zero-padded on the right.
    Pooling ties break toward the lowest time index, so the backward pass is
    deterministic: gradient flows only to the argmax position.
    """
    if seq.data.ndim != 2 or filters.data.ndim != 3:
        raise ShapeError(f"conv1d_maxpool: {seq.shape} with {filters.shape}")
    L, c_in = seq.shape
    w, f_cin, c_out = filters.shape
    if L < 1:
        raise ShapeError("conv1d_maxpool: empty sequence")
    if f_cin != c_in:
        raise ShapeError(f"conv1d_maxpool: channel mismatch {seq.shape} vs {filters.shape}")
    ns, nf = _needs(seq), _needs(filters)

    if L < w:
        padded = np.zeros((w, c_in), dtype=seq.data.dtype)
        padded[:L] = seq.data
    else:
        padded = seq.data
    positions = padded.shape[0] - w + 1
    conv = np.zeros((positions, c_out), dtype=seq.data.dtype)
    for i in range(w):
        conv += padded[i:i + positions] @ filters.data[i]
    best = conv.argmax(axis=0)  # first max wins
    out = conv[best, np.arange(c_out)]
    fd = filters.data

    def bwd(g):
        dconv = np.zeros_like(conv)
        dconv[best, np.arange(c_out)] = g
        g_seq = None
        if ns:
            g_pad = np.zeros_like(padded)
            for i in range(w):
                g_pad[i:i + positions] += dconv @ fd[i].T
            g_seq = g_pad[:L]
        g_fil = None
        if nf:
            g_fil = np.empty_like(fd)
            for i in range(w):
                g_fil[i] = padded[i:i + positions].T @ dconv
        return (g_seq, g_fil)

    return _record("conv1d_maxpool", out, (seq, filters), bwd)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """cos(u, v) as a scalar tensor, clamped to [-1, 1].

    Norms below COSINE_EPS are clamped in the denominator, which keeps the
    output exactly scale-invariant for any usable input; zero-norm inputs
    are rejected outright.
    """
    if u.data.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu == 0.0:
        raise NumericError("cosine: zero-norm input u")
    if nv == 0.0:
        raise NumericError("cosine: zero-norm input v")
    needs_u, needs_v = _needs(u), _needs(v)
    mu = max(nu, COSINE_EPS)
    mv = max(nv, COSINE_EPS)
    d = float(u.data @ v.data)
    c = d / (mu * mv)
    out = np.asarray(np.clip(c, -1.0, 1.0), dtype=u.data.dtype)
    ud, vd = u.data, v.data

    def bwd(g):
        gs = float(g)
        gu = gv = None
        if needs_u:
            gu = gs * (vd / (mu * mv) - (d * ud / (nu * mu * mu * mv) if nu > COSINE_EPS else 0.0))
        if needs_v:
            gv = gs * (ud / (mu * mv) - (d * vd / (nv * mv * mv * mu) if nv > COSINE_EPS else 0.0))
        return (gu, gv)

    return _record("cosine", out, (u, v), bwd)


def gather_vec(v: Tensor, ids: Sequence[int]) -> Tensor:
    """Elements of v[n] selected by ids -> [len(ids)]; backward scatters."""
    if v.data.ndim != 1:
        raise ShapeError(f"gather_vec: expected 1-D, got {v.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= v.shape[0]):
        raise ShapeError(f"gather_vec: ids out of range for {v.shape}")
    nv = _needs(v)
    n = v.shape[0]
    dt = v.data.dtype

    def bwd(g):
        if not nv:
            return (None,)
        gv = np.zeros(n, dtype=dt)
        np.add.at(gv, idx, g)
        return (gv,)

    return _record("gather_vec", v.data[idx].copy(), (v,), bwd)


def gather_rows(matrix: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows of matrix[V,n] selected by ids -> [len(ids), n]; backward scatters."""
    if matrix.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D table, got {matrix.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= matrix.shape[0]):
        raise ShapeError(f"gather_rows: ids out of range for {matrix.shape}")
    nm = _needs(matrix)
    shape = matrix.shape
    dt = matrix.data.dtype

    def bwd(g):
        if not nm:
            return (None,)
        gm = np.zeros(shape, dtype=dt)
        np.add.at(gm, idx, g)
        return (gm,)

    return _record("gather_rows", matrix.data[idx].copy(), (matrix,), bwd)


def overlay_rows(base: np.ndarray, positions: Sequence[int],
                 donor: Tensor, donor_rows: Sequence[int]) -> Tensor:
    """A constant [L,n] block with rows at ``positions`` replaced by rows of
    the (learnable) donor table. Gradient reaches only the donor rows; the
    constant base can never receive one.
    """
    pos = np.asarray(positions, dtype=np.intp)
    rows = np.asarray(donor_rows, dtype=np.intp)
    if pos.shape != rows.shape:
        raise ShapeError("overlay_rows: positions and donor_rows differ in length")
    if donor.data.ndim != 2 or base.ndim != 2 or base.shape[1] != donor.shape[1]:
        raise ShapeError(f"overlay_rows: {base.shape} vs donor {donor.shape}")
    nd = _needs(donor)
    out = np.array(base, dtype=donor.data.dtype, copy=True)
    if pos.size:
        out[pos] = donor.data[rows]
    dshape = donor.shape
    dt = donor.data.dtype

    def bwd(g):
        if not nd:
            return (None,)
        gd = np.zeros(dshape, dtype=dt)
        if pos.size:
            np.add.at(gd, rows, g[pos])
        return (gd,)

    return _record("overlay_rows", out, (donor,), bwd)
