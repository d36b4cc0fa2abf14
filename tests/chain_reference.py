"""The op chains that ``tensor.encoding_block`` and ``tensor.char_cnn``
fold into one tape node, as plain numpy: each op of the chain is the tape
op it was (``gather_rows``, ``matmul``, ``attention``, ``add``,
``layer_norm``, ``add_bias``, ``relu``, ``conv1d_maxpool``,
``concat_cols``), with its output checked for finite values, and the
backward pass applies each op's rule in reverse, adding the gradients of a
shared input in the order the tape added them. The fused ops are checked
against these with ``np.array_equal``."""

import numpy as np

from attention_reference import attention_reference
from oov_forge.errors import NumericError, ShapeError
from oov_forge.tensor import LAYER_NORM_EPS


def _finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite value produced")
    return arr


def layer_norm(x, gain, bias):
    """(output, backward rule) of the tape's layer_norm over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x - mu) * inv
    axes = tuple(range(x.ndim - 1))

    def bwd(g):
        dxhat = g * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return _finite(xhat * gain + bias, "layer_norm"), bwd


def relu(x):
    mask = x > 0
    return _finite(np.where(mask, x, 0.0), "relu"), lambda g: g * mask


def encoder_tail_reference(x, a, g1, c1, w1, b1, w2, b2, g2, c2, g):
    """(output, gradients of x, a, g1, c1, w1, b1, w2, b2, g2, c2) of the
    chain add, layer_norm, matmul, add_bias, relu, matmul, add_bias, add,
    layer_norm, for the upstream gradient g of the output."""
    s1 = _finite(x + a, "add")
    y1, ln1_bwd = layer_norm(s1, g1, c1)
    m1 = _finite(y1 @ w1, "matmul")
    z1 = _finite(m1 + b1, "add_bias")
    h, relu_bwd = relu(z1)
    m2 = _finite(h @ w2, "matmul")
    f = _finite(m2 + b2, "add_bias")
    s2 = _finite(y1 + f, "add")
    out, ln2_bwd = layer_norm(s2, g2, c2)

    g_s2, g_g2, g_c2 = ln2_bwd(g)
    g_b2 = g_s2.sum(axis=(0,))
    g_h, g_w2 = g_s2 @ w2.T, h.T @ g_s2
    g_z1 = relu_bwd(g_h)
    g_b1 = g_z1.sum(axis=(0,))
    g_y1_ffn, g_w1 = g_z1 @ w1.T, y1.T @ g_z1
    g_y1 = g_s2 + g_y1_ffn  # the add node comes after the matmul on the tape
    g_s1, g_g1, g_c1 = ln1_bwd(g_y1)
    return out, (g_s1, g_s1, g_g1, g_c1, g_w1, g_b1, g_w2, g_b2, g_g2, g_c2)


def slot_ids(mask):
    """The row ids of a boolean slot mask, -1 past the end: row i fills the
    i-th slot in row-major order."""
    return np.where(mask, np.cumsum(mask).reshape(mask.shape) - 1, -1)


def encoding_block_reference(x, n_heads, k_mask, rows, wq, wkv, wo, g1, c1, w1, b1, w2,
                             b2, g2, c2, g):
    """(output, softmax, gradients of x, wq, wkv, wo, g1, c1, w1, b1, w2, b2,
    g2, c2) of the chain gather_rows (with ``rows``), matmul (queries),
    matmul (keys and values), attention (``attention_reference``), matmul
    (wo) and the tail (``encoder_tail_reference``), for the upstream
    gradient g of the output. x's gradient adds its terms in the order the
    tape met them: the tail's, then the keys and values', then the
    queries', which with ``rows`` reach x through the gather's scatter."""
    q_mask = k_mask if rows is None else rows >= 0
    xq = x if rows is None else x[rows[q_mask]]
    qp, kvp = _finite(xq @ wq, "matmul"), _finite(x @ wkv, "matmul")
    att, attn, att_bwd = attention_reference(qp, kvp, n_heads, slot_ids(q_mask),
                                             slot_ids(k_mask))
    a = _finite(_finite(att, "attention") @ wo, "matmul")
    out, (g_xq, g_a, *g_tail) = encoder_tail_reference(xq, a, g1, c1, w1, b1, w2, b2,
                                                       g2, c2, g)
    g_att, g_wo = g_a @ wo.T, att.T @ g_a
    g_qp, g_kvp = att_bwd(g_att)
    g_x, g_wkv = g_kvp @ wkv.T, x.T @ g_kvp
    g_xq_q, g_wq = g_qp @ wq.T, xq.T @ g_qp
    if rows is None:
        g_x = (g_xq + g_x) + g_xq_q
    else:
        scattered = np.zeros(x.shape)
        np.add.at(scattered, rows[q_mask], g_xq + g_xq_q)
        g_x = g_x + scattered
    return out, attn, (g_x, g_wq, g_wkv, g_wo, *g_tail)


def conv1d_maxpool(seq, filters, lengths=None):
    """(output, backward rule) of the tape's conv1d_maxpool: the valid
    cross-correlation of seq[..., W, c_in] with filters[w, c_in, c_out],
    max-pooled over the real time steps, ties to the lowest index."""
    lead, (W, c_in) = seq.shape[:-2], seq.shape[-2:]
    w, _, c_out = filters.shape
    if W < 1:
        raise ShapeError("conv1d_maxpool: empty sequence")
    lens = np.full(lead, W, dtype=np.intp) if lengths is None \
        else np.asarray(lengths, dtype=np.intp)
    span = max(W, w)
    real = (np.arange(span) < lens[..., None])[..., None]
    padded = np.zeros(lead + (span, c_in))
    padded[..., :W, :] = seq
    padded *= real
    positions = span - w + 1
    conv = padded[..., 0:positions, :] @ filters[0]
    for i in range(1, w):
        conv += padded[..., i:i + positions, :] @ filters[i]
    valid = np.arange(positions) <= (np.maximum(lens, w) - w)[..., None]
    best = np.where(valid[..., None], conv, -np.inf).argmax(axis=-2)[..., None, :]
    out = np.take_along_axis(conv, best, axis=-2)[..., 0, :]

    def bwd(g):
        dconv = np.zeros_like(conv)
        np.put_along_axis(dconv, best, g[..., None, :], axis=-2)
        g_pad = np.zeros_like(padded)
        for i in range(w):
            g_pad[..., i:i + positions, :] += dconv @ filters[i].T
        flat_d = dconv.reshape(-1, c_out)
        g_fil = np.stack([padded[..., i:i + positions, :].reshape(-1, c_in).T @ flat_d
                          for i in range(w)])
        return (g_pad * real)[..., :W, :], g_fil

    return _finite(out, "conv1d_maxpool"), bwd


def char_cnn_reference(seq, filters, biases, lengths, g):
    """(output, gradient of seq, gradients of the filters, gradients of the
    biases) of one conv1d_maxpool and one add_bias per filter bank, then
    concat_cols and relu, for the upstream gradient g of the output."""
    pooled, conv_bwds = [], []
    for f, b in zip(filters, biases):
        p, conv_bwd = conv1d_maxpool(seq, f, lengths)
        pooled.append(_finite(p + b, "add_bias"))
        conv_bwds.append(conv_bwd)
    out, relu_bwd = relu(_finite(np.concatenate(pooled, axis=-1), "concat_cols"))

    g_pre = relu_bwd(g)
    offsets = np.cumsum([0] + [f.shape[2] for f in filters])
    axes = tuple(range(g_pre.ndim - 1))
    g_seq, g_filters, g_biases = None, [], []
    for j in reversed(range(len(filters))):  # the tape meets the last bank first
        g_pool = g_pre[..., offsets[j]:offsets[j + 1]]
        g_biases.insert(0, g_pool.sum(axis=axes))
        g_bank, g_fil = conv_bwds[j](g_pool)
        g_filters.insert(0, g_fil)
        g_seq = g_bank if g_seq is None else g_seq + g_bank
    return out, g_seq, g_filters, g_biases
