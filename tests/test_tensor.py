import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import oov_forge.tensor as tc
from fd import check_grads
from oov_forge.errors import GraphError, NumericError, ShapeError
from oov_forge.tensor import (Graph, Tensor, backward, constant, cosine,
                              conv1d_maxpool, layer_norm, matmul, parameter,
                              sum_all)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    eye = constant(np.eye(2))
    m = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand():
    a = constant([[1.0, 2.0]])
    b = constant([[3.0], [4.0]])
    assert np.array_equal(matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_carries_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradients_match_finite_differences(rng):
    a = parameter(rng.normal(size=(4, 5)))
    b = parameter(rng.normal(size=(5, 3)))
    w = constant(rng.normal(size=(4, 3)))
    err = check_grads(lambda: sum_all(tc.mul(matmul(a, b), w)), [a, b])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# attention: the softmax of its scores
# ---------------------------------------------------------------------------

def _attention_weights(qp, kvp, n_heads, queries, keys):
    sink = []
    out = tc.attention(constant(qp), constant(kvp), n_heads, queries, keys, sink)
    return out.data, sink[0]


def test_softmax_uniform_on_equal_inputs(rng):
    # three keys equal in every head: each query spreads its weight evenly
    kvp = rng.normal(size=(3, 8))
    kvp[:, :4] = kvp[0, :4]
    out, weights = _attention_weights(rng.normal(size=(2, 4)), kvp, 2, [[0, 1]], [[0, 1, 2]])
    assert weights.shape == (1, 2, 2, 3)
    assert np.allclose(weights, 1 / 3, atol=1e-12)
    assert np.allclose(out, np.tile(kvp[:, 4:].mean(axis=0), (2, 1)), atol=1e-12)


def test_softmax_shift_invariance_hand_case():
    # one head of width 1: the query 1 scores the keys c and c + log 2
    for c in (-50.0, 0.0, 3.25, 700.0):
        out, weights = _attention_weights([[1.0]], [[c, 3.0], [c + math.log(2.0), 6.0]],
                                          1, [[0]], [[0, 1]])
        assert np.allclose(weights[0, 0, 0], [1 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(out, [[5.0]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    # a vector added to every key shifts each query's scores by one constant
    queries, keys = [[0, 1, 2, -1, -1], [3, 4, 5, 6, 7]], [[0, 1, 2, -1, -1], [3, 4, 5, 6, 7]]
    for _ in range(50):
        qp, kvp = rng.normal(size=(8, 6)) * 3, rng.normal(size=(8, 12)) * 3
        out, y = _attention_weights(qp, kvp, 3, queries, keys)
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-9
        assert (y[1] > 0).all() and (y[0, :, :, :3] > 0).all()
        shifted = kvp.copy()
        shifted[:, :6] += rng.normal(size=6) * 3
        out_shift, y_shift = _attention_weights(qp, shifted, 3, queries, keys)
        assert np.abs(y - y_shift).max() < 1e-9
        assert np.abs(out - out_shift).max() < 1e-9


def test_softmax_jacobian_matches_finite_differences(rng):
    # two sequences of 3 and 2 rows, with and without a subset of query rows
    keys = [[0, 1, 2], [3, 4, -1]]
    kvp = parameter(rng.normal(size=(5, 8)))
    for queries in ([[0, 1, 2], [3, 4, -1]], [[-1, 0, -1], [1, -1, -1]]):
        n_q = int((np.asarray(queries) >= 0).sum())
        qp = parameter(rng.normal(size=(n_q, 4)))
        w = constant(rng.normal(size=(n_q, 4)))
        err = check_grads(
            lambda: sum_all(tc.mul(tc.attention(qp, kvp, 2, queries, keys), w)), [qp, kvp])
        assert err < 1e-6


def test_softmax_key_mask_zeroes_masked_entries(rng):
    # sequence 0 has keys 0-2, sequence 1 keys 3-4; kvp row 5 is no key
    queries, keys = [[0, 1, 2], [3, 4, -1]], [[0, 1, 2], [3, 4, -1]]
    qp, kvp = rng.normal(size=(5, 4)), rng.normal(size=(6, 8))
    out, y = _attention_weights(qp, kvp, 2, queries, keys)
    assert np.array_equal(y[1, :, :, 2], np.zeros((2, 3)))
    alone, y_alone = _attention_weights(qp[3:], kvp[3:5], 2, [[0, 1]], [[0, 1]])
    assert np.abs(y[1, :, :2, :2] - y_alone[0]).max() < 1e-15
    assert np.abs(out[3:] - alone).max() < 1e-15

    # another sequence's rows never reach a sequence's output
    edited_q, edited_kv = qp.copy(), kvp.copy()
    edited_q[:3] = rng.normal(size=(3, 4))
    edited_kv[:3] = rng.normal(size=(3, 8))
    assert np.array_equal(_attention_weights(edited_q, edited_kv, 2, queries, keys)[0][3:],
                          out[3:])

    # a loss on sequence 1 alone: its padded key slot passes nothing back
    q_t, kv_t = parameter(qp), parameter(kvp)
    w = rng.normal(size=(5, 4))
    w[:3] = 0.0
    with Graph():
        backward(sum_all(tc.mul(tc.attention(q_t, kv_t, 2, queries, keys), constant(w))))
    assert np.array_equal(q_t.grad[:3], np.zeros((3, 4)))
    assert np.array_equal(kv_t.grad[[0, 1, 2, 5]], np.zeros((4, 8)))
    assert (kv_t.grad[3:5] != 0).all()


def test_attention_matches_a_loop_over_sequences_and_heads(rng):
    queries, keys = [[-1, 0, 1], [2, -1, -1]], [[0, 1, 2], [3, 4, -1]]
    qp, kvp = rng.normal(size=(3, 6)), rng.normal(size=(5, 12))
    out, _ = _attention_weights(qp, kvp, 3, queries, keys)
    expected = []
    for q_rows, k_rows in zip(queries, keys):
        k_rows = [r for r in k_rows if r >= 0]
        for r in (r for r in q_rows if r >= 0):
            heads = []
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                scores = np.array([qp[r, cols] @ kvp[m, :6][cols] for m in k_rows])
                e = np.exp(scores / math.sqrt(6) - (scores / math.sqrt(6)).max())
                heads.append(sum(wt * kvp[m, 6:][cols] for wt, m in zip(e / e.sum(), k_rows)))
            expected.append(np.concatenate(heads))
    assert np.abs(out - np.array(expected)).max() < 1e-12


def test_attention_rejects_bad_shapes_and_slots():
    qp, kvp = constant(np.zeros((2, 4))), constant(np.zeros((3, 8)))
    ok = ([[0, 1]], [[0, 1, 2]])
    for bad_qp, bad_kvp, heads in ((np.zeros(4), kvp.data, 2), (qp.data, np.zeros((3, 6)), 2),
                                   (qp.data, kvp.data, 3), (qp.data, kvp.data, 0)):
        with pytest.raises(ShapeError):
            tc.attention(constant(bad_qp), constant(bad_kvp), heads, *ok)
    for queries, keys in (([[0, 2]], ok[1]), ([[-2, 0]], ok[1]), (ok[0], [[0, 1, 3]]),
                          ([0, 1], ok[1]), ([[0], [1]], ok[1]), (ok[0], [[-1, -1, -1]])):
        with pytest.raises(ShapeError):
            tc.attention(qp, kvp, 2, queries, keys)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def _ln_args(n):
    return parameter(np.ones(n)), parameter(np.zeros(n))


def test_layer_norm_constant_row_is_absorbed_by_eps():
    gain, bias = _ln_args(4)
    y = layer_norm(constant([5.0, 5.0, 5.0, 5.0]), gain, bias)
    assert np.allclose(y.data, np.zeros(4), atol=1e-12)


def test_layer_norm_fixed_point():
    # variance chosen so that var + eps == 1: the affine-free map is identity
    rng = np.random.default_rng(3)
    row = rng.normal(size=8)
    row = row - row.mean()
    row = row * math.sqrt((1.0 - tc.LAYER_NORM_EPS) / row.var())
    gain, bias = _ln_args(8)
    y = layer_norm(constant(row), gain, bias)
    assert np.abs(y.data - row).max() < 1e-6
    # a plain unit-variance row moves only by the eps contraction
    row2 = row / math.sqrt(row.var())
    y2 = layer_norm(constant(row2), gain, bias)
    assert np.abs(y2.data - row2).max() < 2e-5


def test_layer_norm_gradients(rng):
    x = parameter(rng.normal(size=(3, 6)))
    gain = parameter(rng.normal(size=6))
    bias = parameter(rng.normal(size=6))
    w = constant(rng.normal(size=(3, 6)))
    err = check_grads(lambda: sum_all(tc.mul(layer_norm(x, gain, bias), w)),
                      [x, gain, bias])
    assert err < 1e-5


# ---------------------------------------------------------------------------
# conv1d_maxpool
# ---------------------------------------------------------------------------

def test_conv_zero_sequence_gives_zero_vector(rng):
    seq = constant(np.zeros((5, 3)))
    filt = constant(rng.normal(size=(3, 3, 4)))
    assert np.array_equal(conv1d_maxpool(seq, filt).data, np.zeros(4))


def test_conv_single_position_pool_equals_conv(rng):
    seq = constant(rng.normal(size=(1, 3)))
    filt = constant(rng.normal(size=(1, 3, 4)))
    out = conv1d_maxpool(seq, filt)
    assert np.allclose(out.data, seq.data[0] @ filt.data[0], atol=1e-12)


def test_conv_pads_short_sequences(rng):
    seq = rng.normal(size=(2, 3))
    filt = rng.normal(size=(4, 3, 2))
    out = conv1d_maxpool(constant(seq), constant(filt))
    padded = np.zeros((4, 3))
    padded[:2] = seq
    expected = sum(padded[i] @ filt[i] for i in range(4))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_conv_gradients(rng):
    for width in (2, 3, 4):
        seq = parameter(rng.normal(size=(9, 4)))
        filt = parameter(rng.normal(size=(width, 4, 5)))
        w = constant(rng.normal(size=5))
        err = check_grads(
            lambda: sum_all(tc.mul(conv1d_maxpool(seq, filt), w)), [seq, filt])
        assert err < 1e-5


def test_conv_tie_gradient_goes_to_lowest_time_index():
    # two time positions produce the same max; position 0 must win
    seq = parameter(np.array([[1.0], [1.0], [0.0]]))
    filt = parameter(np.array([[[1.0]]]))
    with Graph():
        backward(sum_all(conv1d_maxpool(seq, filt)))
    assert np.array_equal(seq.grad, [[1.0], [0.0], [0.0]])


def test_conv_rejects_empty_sequence(rng):
    with pytest.raises(ShapeError):
        conv1d_maxpool(constant(np.zeros((0, 3))), constant(rng.normal(size=(2, 3, 1))))


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_identity_antipodal_orthogonal():
    v = constant([1.0, 2.0, -1.5])
    assert cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)
    assert cosine(v, tc.scale(v, -1.0)).item() == pytest.approx(-1.0, abs=1e-12)
    assert cosine(constant([1.0, 0.0]), constant([0.0, 1.0])).item() == 0.0


def test_cosine_zero_norm_names_argument():
    good = constant([1.0, 0.0])
    zero = constant([0.0, 0.0])
    with pytest.raises(NumericError, match="u"):
        cosine(zero, good)
    with pytest.raises(NumericError, match="v"):
        cosine(good, zero)


def test_cosine_scale_invariance_and_range(rng):
    for _ in range(100):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        c = cosine(constant(u), constant(v)).item()
        assert -1.0 <= c <= 1.0
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            assert abs(cosine(constant(alpha * u), constant(v)).item() - c) < 1e-9


def test_cosine_gradients(rng):
    u = parameter(rng.normal(size=6))
    v = parameter(rng.normal(size=6))
    err = check_grads(lambda: cosine(u, v), [u, v])
    assert err < 1e-6


def test_cosine_gradient_orthogonal_to_input(rng):
    # scale invariance implies grad . u == 0; at u == t the gradient vanishes
    u = parameter(rng.normal(size=5))
    t = constant(rng.normal(size=5))
    with Graph():
        backward(cosine(u, t))
    assert abs(float(u.grad @ u.data)) < 1e-12

    p = parameter(np.array([0.3, -1.2, 2.0]))
    with Graph():
        backward(cosine(p, constant(p.data.copy())))
    assert np.abs(p.grad).max() < 1e-12


# ---------------------------------------------------------------------------
# backward / graph semantics
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones(rng):
    p = parameter(rng.normal(size=(3, 4)))
    with Graph():
        backward(sum_all(p))
    assert np.array_equal(p.grad, np.ones((3, 4)))


def test_backward_requires_scalar(rng):
    p = parameter(rng.normal(size=3))
    with Graph():
        y = tc.relu(p)
        with pytest.raises(GraphError):
            backward(y)


def test_backward_without_graph_raises():
    p = parameter([1.0])
    with pytest.raises(GraphError):
        backward(sum_all(p))  # nothing recorded outside a Graph


def test_repeated_backward_accumulates(rng):
    p = parameter(rng.normal(size=4))
    with Graph():
        loss = sum_all(p)
        backward(loss)
        backward(loss)
    assert np.array_equal(p.grad, 2 * np.ones(4))


# each op of criterion 1's case list that takes two or more tensors: the op
# and the shapes of its operands
MULTI_OPERAND_OPS = {
    "add": (tc.add, [(4, 3), (4, 3)]),
    "mul": (tc.mul, [(4, 3), (4, 3)]),
    "add_bias": (tc.add_bias, [(4, 3), (3,)]),
    "scale_rows": (tc.scale_rows, [(4, 3), (4,)]),
    "matmul": (matmul, [(4, 5), (5, 3)]),
    "attention": (lambda q, kv: tc.attention(q, kv, 2, [[0, -1], [1, 2]],
                                             [[0, 1, -1, -1], [2, 3, 4, 5]]),
                  [(3, 4), (6, 8)]),
    "layer_norm": (layer_norm, [(4, 3), (3,), (3,)]),
    "conv1d_maxpool": (lambda s, f: conv1d_maxpool(s, f, [5, 2, 1]), [(3, 5, 3), (3, 3, 4)]),
    "cosine": (cosine, [(3, 5), (3, 5)]),
    "concat_cols": (lambda *xs: tc.concat_cols(xs), [(4, 3), (4, 2), (4, 1)]),
}


@pytest.mark.parametrize("name", sorted(MULTI_OPERAND_OPS))
def test_a_constant_operand_leaves_the_other_gradients_unchanged(rng, name):
    op, shapes = MULTI_OPERAND_OPS[name]
    arrays = [rng.normal(size=shape) for shape in shapes]
    weight = constant(rng.normal(size=op(*map(constant, arrays)).shape))

    def operands(const_at):
        ts = [constant(a) if j == const_at else parameter(a) for j, a in enumerate(arrays)]
        with Graph():
            backward(sum_all(tc.mul(op(*ts), weight)))
        return ts

    reference = operands(None)
    for i in range(len(arrays)):
        ts = operands(i)
        assert ts[i].grad is None
        for j, t in enumerate(ts):
            if j != i:
                assert np.array_equal(t.grad, reference[j].grad), (name, i, j)


def test_composite_two_layer_net_gradients(rng):
    w1 = parameter(rng.normal(size=(5, 8)) * 0.5)
    b1 = parameter(rng.normal(size=8) * 0.1)
    w2 = parameter(rng.normal(size=(8, 3)) * 0.5)
    x = constant(rng.normal(size=(2, 5)))
    t = constant(rng.normal(size=(1, 3)))

    def build():
        h = tc.relu(tc.add_bias(matmul(x, w1), b1))
        return sum_all(cosine(tc.segment_mean(matmul(h, w2), [2]), t))

    err = check_grads(build, [w1, b1, w2])
    assert err < 1e-4


def test_graph_append_order_and_input_precedence(rng):
    a = parameter(rng.normal(size=(2, 2)))
    with Graph() as g:
        b = matmul(a, a)
        c = tc.add(b, b)
        d = sum_all(c)
    assert [n.index for n in g.nodes] == list(range(len(g.nodes)))
    for node in g.nodes:
        for inp in node.inputs:
            if inp.node is not None:
                assert inp.node.index < node.index
    assert d.node is g.nodes[-1]


def test_ops_outside_graph_do_not_record(rng):
    a = parameter(rng.normal(size=(2, 2)))
    out = matmul(a, a)
    assert out.node is None and not out.requires_grad


def test_backward_is_deterministic(rng):
    def run():
        r = np.random.default_rng(99)
        w = parameter(r.normal(size=(6, 6)))
        x = constant(r.normal(size=(4, 6)))
        with Graph():
            y = tc.relu(matmul(x, w))
            backward(sum_all(y))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_nonfinite_result_raises():
    big = constant(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        tc.mul(big, big)
    with pytest.raises(NumericError):
        Tensor([np.inf, 1.0])


# ---------------------------------------------------------------------------
# remaining ops: gradient sweeps
# ---------------------------------------------------------------------------

def test_elementwise_and_shaping_op_gradients(rng):
    x = parameter(rng.normal(size=(4, 3)))
    y = parameter(rng.normal(size=(4, 3)))
    b = parameter(rng.normal(size=3))
    s = parameter(rng.normal(size=4))
    v = parameter(rng.normal(size=4))
    w43 = constant(rng.normal(size=(4, 3)))
    w23 = constant(rng.normal(size=(2, 3)))
    w46 = constant(rng.normal(size=(4, 6)))
    w226 = constant(rng.normal(size=(2, 2, 6)))
    x3 = parameter(rng.normal(size=(2, 2, 3)))
    y3 = parameter(rng.normal(size=(2, 2, 3)))
    m43 = constant(rng.normal(size=(4, 3)))

    cases = [
        (lambda: sum_all(tc.mul(tc.add(x, y), w43)), [x, y]),
        (lambda: sum_all(tc.mul(tc.mul(x, y), w43)), [x, y]),
        (lambda: sum_all(tc.mul(tc.scale(x, 2.5), w43)), [x]),
        (lambda: sum_all(tc.mul(tc.add_bias(x, b), w43)), [x, b]),
        (lambda: sum_all(tc.mul(tc.scale_rows(x, s), w43)), [x, s]),
        (lambda: sum_all(tc.mul(tc.relu(x), w43)), [x]),
        (lambda: sum_all(tc.mul(tc.segment_mean(x, [3, 1]), w23)), [x]),
        (lambda: sum_all(tc.mul(tc.scale_rows(m43, v), w43)), [v]),
        (lambda: sum_all(tc.mul(tc.concat_cols([x, y]), w46)), [x, y]),
        (lambda: sum_all(tc.mul(tc.concat_cols([x3, y3]), w226)), [x3, y3]),
    ]
    for build, params in cases:
        assert check_grads(build, params) < 1e-5


def test_gather_ops_scatter_add_duplicates(rng):
    table = parameter(rng.normal(size=(5, 3)))
    ids = [1, 3, 1, 1]
    w = constant(rng.normal(size=(4, 3)))
    err = check_grads(lambda: sum_all(tc.mul(tc.gather_rows(table, ids), w)), [table])
    assert err < 1e-6

    vec = parameter(rng.normal(size=6))
    wv = constant(rng.normal(size=3))
    err = check_grads(lambda: sum_all(tc.mul(tc.gather_rows(vec, [2, 2, 5]), wv)), [vec])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# batched ops
# ---------------------------------------------------------------------------

def test_gather_rows_pads_id_minus_one_with_zeros(rng):
    table = parameter(rng.normal(size=(4, 3)))
    ids = np.array([[2, -1], [0, 2]])
    out = tc.gather_rows(table, ids)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 1], np.zeros(3))
    assert np.array_equal(out.data[1, 1], table.data[2])
    with Graph():
        backward(sum_all(tc.gather_rows(table, ids)))
    assert np.array_equal(table.grad, [[1.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3])
    for bad in ([-2], [4]):
        with pytest.raises(ShapeError):
            tc.gather_rows(table, bad)


def test_segment_mean_of_consecutive_runs(rng):
    x = rng.normal(size=(6, 2))
    out = tc.segment_mean(constant(x), [1, 3, 2]).data
    expected = [x[0], x[1:4].mean(axis=0), x[4:].mean(axis=0)]
    assert np.abs(out - np.stack(expected)).max() < 1e-15
    for bad in ([1, 3], [0, 6], [7, -1]):
        with pytest.raises(ShapeError):
            tc.segment_mean(constant(x), bad)


def test_conv_batch_with_lengths_matches_each_sequence(rng):
    filt = rng.normal(size=(3, 2, 4))
    lengths = [5, 1, 3, 2]
    seqs = rng.normal(size=(4, 5, 2))  # steps past each length are garbage
    out = conv1d_maxpool(constant(seqs), constant(filt), lengths).data
    for i, n in enumerate(lengths):
        alone = conv1d_maxpool(constant(seqs[i, :n]), constant(filt)).data
        assert np.abs(out[i] - alone).max() < 1e-12

    seq = parameter(seqs)
    fil = parameter(filt)
    w = constant(rng.normal(size=(4, 4)))
    err = check_grads(lambda: sum_all(tc.mul(conv1d_maxpool(seq, fil, lengths), w)),
                      [seq, fil])
    assert err < 1e-5
    with Graph():
        backward(sum_all(tc.mul(conv1d_maxpool(seq, fil, lengths), w)))
    assert np.array_equal(seq.grad[1, 1:], np.zeros((4, 2)))
    for bad in ([0, 1, 1, 1], [6, 1, 1, 1], [1, 1]):
        with pytest.raises(ShapeError):
            conv1d_maxpool(constant(seqs), constant(filt), bad)


def test_cosine_is_row_wise(rng):
    u = rng.normal(size=(3, 2, 5))
    v = rng.normal(size=(3, 2, 5))
    out = cosine(constant(u), constant(v)).data
    assert out.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert out[i, j] == pytest.approx(cosine(constant(u[i, j]),
                                                     constant(v[i, j])).item(), abs=1e-15)
    pu, pv = parameter(u), parameter(v)
    w = constant(rng.normal(size=(3, 2)))
    assert check_grads(lambda: sum_all(tc.mul(cosine(pu, pv), w)), [pu, pv]) < 1e-6
    v[1, 0] = 0.0
    with pytest.raises(NumericError, match="v"):
        cosine(constant(u), constant(v))


def test_graphs_of_concurrent_threads_stay_separate():
    # each thread builds and backprops its own tapes; a shared graph stack
    # would interleave their nodes and trip the LIFO check
    def reference(seed):
        r = np.random.default_rng(seed)
        w = parameter(r.normal(size=(4, 4)))
        x = constant(r.normal(size=(3, 4)))
        return w, x

    def grad_of(w, x):
        w.zero_grad()
        with Graph() as g:
            backward(sum_all(tc.relu(matmul(x, w))))
        return g, w.grad.copy()

    expected = {seed: grad_of(*reference(seed))[1] for seed in range(4)}
    errors, barrier = [], threading.Barrier(4, timeout=10)

    def work(seed):
        try:
            w, x = reference(seed)
            barrier.wait()
            for _ in range(300):
                g, grad = grad_of(w, x)
                assert [n.op for n in g.nodes] == ["matmul", "relu", "sum_all"]
                assert np.array_equal(grad, expected[seed])
        except BaseException as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]


def test_graph_exit_out_of_order_raises():
    outer, inner = Graph(), Graph()
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(GraphError):
        outer.__exit__(None, None, None)
    inner.__exit__(None, None, None)
    outer.__exit__(None, None, None)


def test_a_dropped_tape_is_freed_without_the_garbage_collector(rng):
    # no reference cycles: the tape goes when its graph and loss go
    p = parameter(rng.normal(size=(3, 3)))
    gc.disable()
    try:
        with Graph() as g:
            loss = sum_all(tc.relu(matmul(p, p)))
            backward(loss)
        refs = [weakref.ref(g), weakref.ref(loss.node.inputs[0].data)]
        del g, loss
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
    with Graph():
        loss = sum_all(p)
    with pytest.raises(GraphError):
        backward(loss)  # its graph is gone
