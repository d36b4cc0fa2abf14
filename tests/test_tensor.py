import collections
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import oov_forge.tensor as tc
from chain_reference import (char_cnn_reference, encoder_tail_reference,
                             encoding_block_reference, slot_ids)
from fd import check_grads, mul
from oov_forge.errors import GraphError, NumericError, ShapeError
from oov_forge.tensor import (Graph, ParamVector, Tensor, backward, constant, cosine,
                              matmul, parameter, sum_all)


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
    err = check_grads(lambda: sum_all(mul(matmul(a, b), w)), [a, b])
    assert err < 1e-6


def test_a_parameter_is_an_entry_of_a_vector():
    vec = ParamVector(7)
    a = vec.add("a", np.array([[1.0, -2.0], [3.0, 4.0]]))
    b = vec.add("b", np.array([0.5, 0.25, -1.0], dtype=np.float32))
    assert [name for name, _ in vec] == ["a", "b"] and vec.bounds == [0, 4, 7]
    assert np.array_equal(vec.data, [1.0, -2.0, 3.0, 4.0, 0.5, 0.25, -1.0])
    assert a.data.base is vec.data and b.data.base is vec.data
    with pytest.raises(AttributeError):
        a.data = np.zeros((2, 2))  # no code rebinds a parameter's value
    with pytest.raises(NumericError):
        ParamVector(2).add("x", [1.0, np.inf])
    assert vec.grad is None  # nothing has asked for a gradient yet
    with Graph():
        backward(tc.sum_all(tc.scale(b, -0.0)))
    # the first gradient is copied in, so -0.0 stays -0.0; a has none
    assert a.grad is None and b.grad.base is vec.grad
    assert np.signbit(b.grad).all() and vec.live_runs() == [(4, 7)]
    assert np.array_equal(vec.grads(), [0.0] * 4 + [-0.0] * 3)
    with Graph():
        backward(tc.sum_all(tc.add(tc.scale(b, 2.0), b)))
    assert np.array_equal(b.grad, [3.0] * 3)  # later gradients are added


# ---------------------------------------------------------------------------
# encoding_block: attention, residuals, layer norms and FFN in one node; the
# tests named for attention, softmax, layer_norm and encoder_tail check that
# part of the block, an op that the block folds
# ---------------------------------------------------------------------------

def _same(a, b):
    """Equal arrays of one shape, down to the sign of each zero."""
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


def _slots(lengths):
    """The key slot mask of packed sequences of ``lengths``."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max()) < lengths[:, None]


def _weights(rng, d, f):
    """Random wq, wkv, wo, g1, c1, w1, b1, w2, b2, g2, c2 for rows of width d
    and an FFN of width f, each matrix scaled by 1/sqrt(its rows)."""
    n = rng.normal
    return [n(size=(d, d)) / math.sqrt(d), n(size=(d, 2 * d)) / math.sqrt(d),
            n(size=(d, d)) / math.sqrt(d), n(size=d), n(size=d), n(size=(d, f)) / math.sqrt(d),
            n(size=f), n(size=(f, d)) / math.sqrt(f), n(size=d), n(size=d), n(size=d)]


def _plain(d, f):
    """Zero projections and FFN, and norms with gain 1 and bias 0: the block
    maps its query rows xq to LN(LN(xq))."""
    return [np.zeros((d, d)), np.zeros((d, 2 * d)), np.zeros((d, d)), np.ones(d), np.zeros(d),
            np.zeros((d, f)), np.zeros(f), np.zeros((f, d)), np.zeros(d), np.ones(d), np.zeros(d)]


def _block(x, n_heads, k_mask, weights, rows=None, sink=None):
    """tc.encoding_block of arrays (as constants) or tensors."""
    def tensor(a):
        return a if isinstance(a, Tensor) else constant(a)
    return tc.encoding_block(tensor(x), n_heads, k_mask, *map(tensor, weights), rows=rows,
                             sink=sink)


def _tail_of(xq, att, weights):
    """The block's output for the query rows xq whose attention output,
    before wo, is att: the chain's tail."""
    _, _, wo, *tail = weights
    return encoder_tail_reference(xq, att @ wo, *tail, np.zeros(xq.shape))[0]


def test_softmax_uniform_on_equal_inputs(rng):
    # zero key weights give every key the same score: each query spreads its
    # weight evenly, and its attention output is the mean value
    x, weights = rng.normal(size=(3, 8)), _weights(rng, 8, 5)
    weights[1][:, :8] = 0.0
    sink = []
    out = _block(x, 2, _slots([3]), weights, sink=sink).data
    assert sink[0].shape == (1, 2, 3, 3)
    assert np.allclose(sink[0], 1 / 3, atol=1e-12)
    mean_value = np.tile((x @ weights[1][:, 8:]).mean(axis=0), (3, 1))
    assert np.allclose(out, _tail_of(x, mean_value, weights), atol=1e-12)


def test_softmax_shift_invariance_hand_case():
    # one head of width 3: row 0's query scores the keys c and c + log 2,
    # whose values are 3 and 6 in the first column
    for c in (-50.0, 0.0, 3.25, 700.0):
        x = np.array([[1.0, 0.0, c], [0.0, 1.0, c + math.log(2.0)]])
        weights = _plain(3, 2)
        weights[0][:2, 0] = math.sqrt(3.0)          # each query is (sqrt 3, 0, 0)
        weights[1][2, 0] = 1.0                      # row i's key is (x[i, 2], 0, 0)
        weights[1][:2, 3] = [3.0, 6.0]              # row i's value is (3 or 6, 0, 0)
        weights[2] = np.eye(3)
        sink = []
        out = _block(x, 1, _slots([2]), weights, np.array([[0]]), sink).data
        assert np.allclose(sink[0][0, 0, 0], [1 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(out, _tail_of(x[:1], np.array([[5.0, 0.0, 0.0]]), weights),
                           atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    # x's last column is 1, so adding a vector to wkv's last key row adds it
    # to every key: each query's scores shift by one constant
    k_mask, rows = _slots([3, 5]), np.array([[0, 1, 2, -1, -1], [3, 4, 5, 6, 7]])
    for _ in range(50):
        x = rng.normal(size=(8, 6)) * 3
        x[:, -1] = 1.0
        weights = _weights(rng, 6, 4)
        sink = []
        out = _block(x, 3, k_mask, weights, rows, sink).data
        y = sink[0]
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-9
        assert (y[1] > 0).all() and (y[0, :, :, :3] > 0).all()
        weights[1] = weights[1].copy()
        weights[1][-1, :6] += rng.normal(size=6) * 3
        shifted_sink = []
        shifted = _block(x, 3, k_mask, weights, rows, shifted_sink).data
        assert np.abs(y - shifted_sink[0]).max() < 1e-9
        assert np.abs(out - shifted).max() < 1e-9


def test_softmax_jacobian_matches_finite_differences(rng):
    # every input is a parameter: two sequences of 3 and 2 rows, with every
    # row, a subset of the rows and a row asked twice as the queries
    k_mask = _slots([3, 2])
    for rows in (None, np.array([[-1, 0, -1], [4, -1, -1]]), np.array([[2, 2], [3, -1]])):
        ts = [parameter(a) for a in [rng.normal(size=(5, 4))] + _weights(rng, 4, 6)]
        w = constant(rng.normal(size=(5 if rows is None else int((rows >= 0).sum()), 4)))
        err = check_grads(lambda: sum_all(mul(_block(ts[0], 2, k_mask, ts[1:], rows), w)),
                          ts)
        assert err < 1e-5


def test_softmax_key_mask_zeroes_masked_entries(rng):
    # sequence 0 has rows 0-2, sequence 1 rows 3-4 and a padded slot
    k_mask, x, weights = _slots([3, 2]), rng.normal(size=(5, 4)), _weights(rng, 4, 6)
    sink, alone_sink = [], []
    out = _block(x, 2, k_mask, weights, sink=sink).data
    assert np.array_equal(sink[0][1, :, :, 2], np.zeros((2, 3)))
    alone = _block(x[3:], 2, _slots([2]), weights, sink=alone_sink).data
    assert np.abs(sink[0][1, :, :2, :2] - alone_sink[0][0]).max() < 1e-15
    assert np.abs(out[3:] - alone).max() < 1e-15

    # another sequence's rows never reach a sequence's output
    edited = x.copy()
    edited[:3] = rng.normal(size=(3, 4))
    assert np.array_equal(_block(edited, 2, k_mask, weights).data[3:], out[3:])

    # a loss on sequence 1 alone sends nothing to sequence 0's rows
    ts = [parameter(a) for a in [x] + weights]
    w = rng.normal(size=(5, 4))
    w[:3] = 0.0
    with Graph():
        backward(sum_all(mul(_block(ts[0], 2, k_mask, ts[1:]), constant(w))))
    assert np.array_equal(ts[0].grad[:3], np.zeros((3, 4)))
    assert (ts[0].grad[3:] != 0).all()


def test_attention_matches_a_loop_over_sequences_and_heads(rng):
    k_mask, rows = _slots([3, 2]), np.array([[-1, 1, 2], [3, -1, -1]])
    x, weights = rng.normal(size=(5, 6)), _weights(rng, 6, 4)
    out = _block(x, 3, k_mask, weights, rows).data
    qp, kvp = x @ weights[0], x @ weights[1]
    expected = []
    for q_rows, k_rows in zip(rows, ([0, 1, 2], [3, 4])):
        for r in (r for r in q_rows if r >= 0):
            heads = []
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                scores = np.array([qp[r, cols] @ kvp[m, :6][cols] for m in k_rows])
                e = np.exp(scores / math.sqrt(6) - (scores / math.sqrt(6)).max())
                heads.append(sum(wt * kvp[m, 6:][cols] for wt, m in zip(e / e.sum(), k_rows)))
            expected.append(np.concatenate(heads))
    assert np.abs(out - _tail_of(x[[1, 2, 3]], np.array(expected), weights)).max() < 1e-12


def test_attention_rejects_bad_shapes_and_slots(rng):
    x, k_mask, good = rng.normal(size=(3, 4)), _slots([2, 1]), _weights(rng, 4, 5)
    _block(x, 2, k_mask, good)
    bad_cases = [(x[0], 2, good), (x, 3, good), (x, 0, good), (x, 8, good)]
    for i in range(3):  # wq, wkv and wo
        bad_cases.append((x, 2, good[:i] + [good[i][..., :-1]] + good[i + 1:]))
    for rows_in, heads, weights in bad_cases:
        with pytest.raises(ShapeError, match="encoding_block: rows"):
            _block(rows_in, heads, k_mask, weights)
    # a key mask is boolean [S, L], and query rows are integer [S, Lq]
    for bad_mask in ([[0, 1], [2, -1]], k_mask.astype(int), k_mask[0], k_mask[None]):
        with pytest.raises(ShapeError, match="boolean"):
            _block(x, 2, bad_mask, good)
    for rows in ([[0.0], [2.0]], [[True], [False]], [0, 2], [[0]], [[0], [2], [1]]):
        with pytest.raises(ShapeError, match="query rows"):
            _block(x, 2, k_mask, good, np.array(rows))
    with pytest.raises(ShapeError, match="no key"):
        _block(x[:2], 2, [[True, True], [False, False]], good)


def test_attention_refuses_masks_whose_slot_counts_are_not_the_row_counts(rng):
    # a key mask holds one slot for each row, no more and no fewer, so no
    # row fills two slots; a query row is an id of a row, or -1
    x, weights, ok = rng.normal(size=(3, 4)), _weights(rng, 4, 5), _slots([2, 1])
    for k_mask in (_slots([2, 2]), _slots([1, 1]), _slots([4]), _slots([1, 1, 1, 1])):
        with pytest.raises(ShapeError, match="a slot for each of 3 rows"):
            _block(x, 2, k_mask, weights)
    for rows in ([[0], [3]], [[0], [-2]], [[5, -1], [1, 2]]):
        with pytest.raises(ShapeError, match="query rows"):
            _block(x, 2, ok, weights, np.array(rows))
    _block(x, 2, ok, weights, np.array([[2, -1], [-1, -1]]))  # a query from another sequence


def test_attention_with_no_query_slot_is_a_shape_error(rng):
    x, weights, ok = rng.normal(size=(3, 4)), _weights(rng, 4, 5), _slots([2, 1])
    for rows in (np.full((2, 1), -1), np.zeros((2, 0), dtype=int)):
        with pytest.raises(ShapeError, match="no query"):
            _block(x, 2, ok, weights, rows)
    with pytest.raises(ShapeError, match="no query"):
        _block(np.zeros((0, 4)), 2, np.zeros((1, 2), bool), weights)


def test_encoder_tail_rejects_bad_shapes(rng):
    x, k_mask, good = rng.normal(size=(3, 4)), _slots([2, 1]), _weights(rng, 4, 5)
    for i in range(3, len(good)):  # the norms and the FFN
        with pytest.raises(ShapeError, match="encoding_block: rows"):
            _block(x, 2, k_mask, good[:i] + [good[i][..., :-1]] + good[i + 1:])
    for i, shape in ((5, (5, 4)), (7, (4, 5))):  # w1 and w2 transposed
        with pytest.raises(ShapeError, match="encoding_block: rows"):
            _block(x, 2, k_mask, good[:i] + [np.zeros(shape)] + good[i + 1:])


def _query_rows(rng, lengths, queries):
    """``rows`` for packed sequences of ``lengths``: None for every row
    ("all"), one row of each sequence as the mask pool reads them ("pool"),
    or a random subset of each sequence's rows in order ("subset")."""
    lengths = np.asarray(lengths)
    if queries == "all":
        return None
    if queries == "pool":
        return (np.cumsum(lengths) - lengths + rng.integers(0, lengths))[:, None]
    keys = _slots(lengths)
    picked = keys & (rng.random(keys.shape) < 0.5)
    picked[0, 0] = True
    return np.where(picked, slot_ids(keys), -1)


def _block_against_reference(rng, lengths, queries, n_heads, width, f=None, scale=2.0,
                             g=None):
    """(tc.encoding_block's output, softmax and every gradient; the chain's)
    on random inputs and a random upstream gradient, or ``g``."""
    k_mask, rows, d = _slots(lengths), _query_rows(rng, lengths, queries), n_heads * width
    x = rng.normal(size=(int(np.sum(lengths)), d)) * scale
    weights = _weights(rng, d, f or 2 * d)
    if g is None:
        g = rng.normal(size=(len(x) if rows is None else int((rows >= 0).sum()), d))
    ts, sink = [parameter(a) for a in [x] + weights], []
    with Graph():
        out = _block(ts[0], n_heads, k_mask, ts[1:], rows, sink)
        backward(sum_all(mul(out, constant(g))))
    want, attn, grads = encoding_block_reference(x, n_heads, k_mask, rows, *weights, g)
    return [out.data, sink[0]] + [t.grad for t in ts], [want, attn, *grads]


_REFERENCE_LENGTHS = ([1], [1, 1, 1], [3, 1, 5], [12, 25, 7, 1, 25, 16])


@pytest.mark.parametrize("queries", ["all", "pool", "subset"])
@pytest.mark.parametrize("width", [2, 4, 75])
def test_attention_equals_the_einsum_reference(rng, width, queries):
    for n_heads in (1, 2, 4):
        for lengths in _REFERENCE_LENGTHS + (rng.integers(1, 26, size=5),):
            got, want = _block_against_reference(rng, lengths, queries, n_heads, width)
            for a, b in zip(got, want):
                assert _same(a, b)


@pytest.mark.parametrize("queries", ["all", "pool", "subset"])
def test_attention_of_width_one_heads_is_within_rounding_of_the_reference(rng, queries):
    # numpy's einsum multiplies width-1 heads by broadcasting, so its scores
    # are laid out with the keys contiguous and the softmax and gradient
    # sums over them add in another order. Two heads are left out: layer
    # norm maps a row of width 2 to +-1 whatever the row, so the gradients
    # through it are the rounding left by a cancellation, ~1e-11 of the
    # terms, and no relative bound between two summation orders holds.
    for n_heads in (1, 3, 4):
        for lengths in _REFERENCE_LENGTHS + (rng.integers(1, 41, size=5),):
            got, want = _block_against_reference(rng, lengths, queries, n_heads, 1)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_encoder_tail_equals_the_chain_on_rows_of_every_scale(rng):
    for lengths, n_heads, width, f in (([1], 1, 1, 4), ([2, 3], 1, 3, 12),
                                       ([9, 16, 15], 4, 4, 64), ([3, 4], 4, 75, 1200)):
        for scale in (1e-3, 1.0, 30.0):
            for queries in ("all", "pool"):
                got, want = _block_against_reference(rng, lengths, queries, n_heads, width,
                                                      f, scale)
                for a, b in zip(got, want):
                    assert _same(a, b)


def test_attention_gradient_of_minus_zero_comes_out_plus_zero(rng):
    # an upstream -0.0 and inputs of one sign leave many products -0.0 before
    # the sums and the scatters into zeros of the chain; the block gives the
    # chain's zeros, signs and all
    for queries in ("all", "pool", "subset"):
        lengths = [3, 1, 4]
        k_mask, rows = _slots(lengths), _query_rows(rng, lengths, queries)
        arrays = [-np.abs(a) for a in [rng.normal(size=(8, 4))] + _weights(rng, 4, 8)]
        g = np.full((8 if rows is None else int((rows >= 0).sum()), 4), -0.0)
        ts = [parameter(a) for a in arrays]
        with Graph():
            backward(sum_all(mul(_block(ts[0], 2, k_mask, ts[1:], rows), constant(g))))
        grads = encoding_block_reference(arrays[0], 2, k_mask, rows, *arrays[1:], g)[2]
        for t, want in zip(ts, grads):
            assert _same(t.grad, want) and not np.signbit(t.grad).any()


def test_layer_norm_constant_row_is_absorbed_by_eps():
    y = _block(np.full((1, 4), 5.0), 1, _slots([1]), _plain(4, 3))
    assert np.allclose(y.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_fixed_point():
    # variance chosen so that var + eps == 1: the affine-free norm is identity
    rng = np.random.default_rng(3)
    row = rng.normal(size=8)
    row = row - row.mean()
    row = row * math.sqrt((1.0 - tc.LAYER_NORM_EPS) / row.var())
    y = _block(row[None], 1, _slots([1]), _plain(8, 5))
    assert np.abs(y.data[0] - row).max() < 1e-6
    # a plain unit-variance row moves only by the eps contraction of each norm
    row2 = row / math.sqrt(row.var())
    y2 = _block(row2[None], 1, _slots([1]), _plain(8, 5))
    once = row2 / math.sqrt(1.0 + tc.LAYER_NORM_EPS)
    assert np.abs(y2.data[0] - once / math.sqrt(once.var() + tc.LAYER_NORM_EPS)).max() < 1e-12
    assert np.abs(y2.data[0] - row2).max() < 2e-5


def test_layer_norm_gradients(rng):
    # every input of the block, with one gain and bias for both norms, so
    # each gets two gradient terms
    x, (wq, wkv, wo, g, c, w1, b1, w2, b2, _, _) = rng.normal(size=(4, 6)), _weights(rng, 6, 5)
    ts = [parameter(a) for a in (x, wq, wkv, wo, g, c, w1, b1, w2, b2)]
    w = constant(rng.normal(size=(4, 6)))
    err = check_grads(lambda: sum_all(mul(_block(ts[0], 2, _slots([1, 3]), ts[1:] + ts[4:6]),
                                             w)), ts)
    assert err < 1e-5


def test_encoder_tail_raises_where_the_chain_raised(rng):
    # overflowing inputs drive the chain's values to +-inf or NaN at
    # different ops; the block raises exactly when one of the chain's ops did
    raised_at = collections.Counter()
    for _ in range(400):
        lengths = rng.integers(1, 4, size=rng.integers(1, 3))
        n_heads, f = rng.integers(1, 3), rng.integers(1, 6)
        d, k_mask = n_heads * rng.choice([2, 4]), _slots(lengths)
        rows = _query_rows(rng, lengths, rng.choice(["all", "pool"]))
        arrays = [rng.normal(size=(int(lengths.sum()), d))] + _weights(rng, d, f)
        g = rng.normal(size=(int(lengths.sum()) if rows is None else len(rows), d))
        with np.errstate(all="ignore"):
            for i in rng.choice(len(arrays), size=rng.integers(1, 5), replace=False):
                big = arrays[i] * rng.choice([1e100, 1e160, 1e300, 1e308])
                arrays[i] = np.clip(big, -1.7e308, 1.7e308)
            try:
                want = encoding_block_reference(arrays[0], n_heads, k_mask, rows,
                                                *arrays[1:], g)[0]
            except NumericError as e:
                want = None
                raised_at[str(e).split(":")[0]] += 1
            try:
                out = _block(arrays[0], n_heads, k_mask, arrays[1:], rows)
            except NumericError:
                assert want is None
            else:
                assert want is not None and _same(out.data, want)
    assert raised_at.keys() >= {"add", "layer_norm", "matmul"}, raised_at
    assert 30 < sum(raised_at.values()) < 370, raised_at


def _raises_where_the_chain_raised(x, weights, at):
    """The block and the chain raise for ``weights`` with the array
    ``weights[at[0]]`` overflowing at ``at[1]``, and pass without it."""
    d = x.shape[1]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="matmul"):
            encoding_block_reference(x, 1, _slots([2]), None, *weights, np.ones((2, d)))
        with pytest.raises(NumericError, match="encoding_block"):
            _block(x, 1, _slots([2]), weights)
    weights[at[0]][at[1]] = 0.0  # the same inputs without the overflow pass
    _block(x, 1, _slots([2]), weights)


def test_encoder_tail_raises_on_a_value_its_relu_would_hide():
    # zero projections make the attention output 0 and gains of 0 every
    # normed row c1 = 1; the FFN's first column sums four -1e308 products to
    # -inf, which relu would turn into 0
    d, f = 4, 3
    weights = _plain(d, f)
    weights[3], weights[4], weights[7] = np.zeros(d), np.ones(d), np.ones((f, d))
    weights[5][:, 0] = -1e308
    _raises_where_the_chain_raised(np.ones((2, d)), weights, (5, (slice(None), 0)))


def test_attention_raises_on_a_key_its_softmax_would_hide():
    # row 1's key sums two -1e308 products to -inf; each query's positive
    # first entry gives it the score -inf, which the softmax turns into
    # weight 0
    d, f = 4, 3
    x, weights = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]]), _plain(d, f)
    weights[0][:, 0] = 1.0
    weights[1][1:3, 0] = -1e308
    _raises_where_the_chain_raised(x, weights, (1, (slice(1, 3), 0)))


# ---------------------------------------------------------------------------
# char_cnn: conv + max-pool per filter bank, concat, relu
# ---------------------------------------------------------------------------

def _cnn(seq, filt, lengths=None):
    """char_cnn with one filter bank and a zero bias."""
    return tc.char_cnn(seq, [filt], [constant(np.zeros(filt.shape[2]))], lengths)


def test_conv_zero_sequence_gives_zero_vector(rng):
    seq = constant(np.zeros((5, 3)))
    filt = constant(rng.normal(size=(3, 3, 4)))
    assert np.array_equal(_cnn(seq, filt).data, np.zeros(4))


def test_conv_single_position_pool_equals_conv(rng):
    seq = constant(rng.normal(size=(1, 3)))
    filt = constant(rng.normal(size=(1, 3, 4)))
    out = _cnn(seq, filt)
    assert np.allclose(out.data, np.maximum(seq.data[0] @ filt.data[0], 0.0), atol=1e-12)


def test_conv_pads_short_sequences(rng):
    seq = rng.normal(size=(2, 3))
    filt = rng.normal(size=(4, 3, 2))
    out = _cnn(constant(seq), constant(filt))
    padded = np.zeros((4, 3))
    padded[:2] = seq
    expected = sum(padded[i] @ filt[i] for i in range(4))
    assert np.allclose(out.data, np.maximum(expected, 0.0), atol=1e-12)


def test_conv_gradients(rng):
    for widths in ((2,), (3,), (4,), (2, 3, 4)):
        seq = parameter(rng.normal(size=(9, 4)))
        filts = [parameter(rng.normal(size=(w, 4, 5))) for w in widths]
        biases = [parameter(rng.normal(size=5)) for _ in widths]
        w = constant(rng.normal(size=5 * len(widths)))
        err = check_grads(lambda: sum_all(mul(tc.char_cnn(seq, filts, biases), w)),
                          [seq, *filts, *biases])
        assert err < 1e-5


def test_conv_tie_gradient_goes_to_lowest_time_index():
    # two time positions produce the same max; position 0 must win
    seq = parameter(np.array([[1.0], [1.0], [0.0]]))
    filt = parameter(np.array([[[1.0]]]))
    with Graph():
        backward(sum_all(_cnn(seq, filt)))
    assert np.array_equal(seq.grad, [[1.0], [0.0], [0.0]])


def test_conv_rejects_empty_sequence(rng):
    with pytest.raises(ShapeError):
        _cnn(constant(np.zeros((0, 3))), constant(rng.normal(size=(2, 3, 1))))


def test_char_cnn_rejects_bad_banks(rng):
    seq = constant(rng.normal(size=(2, 5, 3)))
    f, b = constant(rng.normal(size=(2, 3, 4))), constant(np.zeros(4))
    for filters, biases in (([], []), ([f], []), ([f], [b, b]),
                            ([constant(rng.normal(size=(2, 2, 4)))], [b]),
                            ([constant(rng.normal(size=(3, 4)))], [b]),
                            ([f], [constant(np.zeros(3))]), ([f], [constant(np.zeros((1, 4)))])):
        with pytest.raises(ShapeError, match="char_cnn"):
            tc.char_cnn(seq, filters, biases)


def _cnn_against_reference(rng, seq, widths, lengths, c_out=5, draw=None):
    """Assert char_cnn's output and every gradient equal the chain's."""
    draw = draw or (lambda size: rng.normal(size=size))
    c_in = seq.shape[-1]
    filters = [draw((w, c_in, c_out)) for w in widths]
    biases = [draw((c_out,)) for _ in widths]
    g = draw(seq.shape[:-2] + (c_out * len(widths),))
    ts = [parameter(seq)] + [parameter(a) for a in filters + biases]
    with Graph():
        out = tc.char_cnn(ts[0], ts[1:1 + len(widths)], ts[1 + len(widths):], lengths)
        backward(sum_all(mul(out, constant(g))))
    want, g_seq, g_filters, g_biases = char_cnn_reference(seq, filters, biases, lengths, g)
    assert _same(out.data, want)
    for t, w in zip(ts, [g_seq] + g_filters + g_biases):
        assert _same(t.grad, w)


@pytest.mark.parametrize("case", ["model", "longest-word-shorter-than-a-filter",
                                  "one-letter-words", "ties", "no-lengths"])
def test_char_cnn_equals_the_chain(rng, case):
    for _ in range(20):
        if case == "model":  # a 32-word batch of the default model
            lengths = rng.integers(1, 13, size=32)
            _cnn_against_reference(rng, rng.normal(size=(32, lengths.max(), 16)),
                                   (2, 3, 4), lengths, 32)
        elif case == "longest-word-shorter-than-a-filter":
            lengths = rng.integers(1, 4, size=6)
            _cnn_against_reference(rng, rng.normal(size=(6, 3, 4)), (2, 3, 4), lengths)
        elif case == "one-letter-words":
            _cnn_against_reference(rng, rng.normal(size=(5, 1, 4)), (4, 2, 1, 3),
                                   np.ones(5, dtype=int))
        elif case == "ties":  # small integers: equal windows and zero sums
            lengths = rng.integers(1, 7, size=(3, 4))
            ints = lambda size: rng.integers(-1, 2, size=size).astype(float)  # noqa: E731
            _cnn_against_reference(rng, ints((3, 4, 6, 2)), (1, 2, 4), lengths, 3, ints)
        else:
            _cnn_against_reference(rng, rng.normal(size=(7, 3)), (3, 2), None)


@pytest.mark.parametrize("hidden", ["-inf", "nan"])
def test_char_cnn_raises_on_a_pooled_value_its_relu_would_hide(hidden):
    # every window of bank 0 sums two -1e308 products to -inf; for NaN, its
    # first tap gives +inf and its second -inf. The other bank stays finite.
    seq = np.ones((2, 3, 2))
    first = np.full((2, 2, 1), -1e308)
    if hidden == "nan":
        first[0] = 1e308
    filters, biases = [first, np.ones((2, 2, 1))], [np.zeros(1), np.zeros(1)]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="conv1d_maxpool"):
            char_cnn_reference(seq, filters, biases, None, np.ones((2, 2)))
        with pytest.raises(NumericError, match="char_cnn"):
            tc.char_cnn(constant(seq), list(map(constant, filters)), list(map(constant, biases)))
    filters[0] = np.ones((2, 2, 1))
    tc.char_cnn(constant(seq), list(map(constant, filters)), list(map(constant, biases)))


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
        y = tc.scale(p, 2.0)
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
_BLOCK_SHAPES = [(6, 4), (4, 4), (4, 8), (4, 4), (4,), (4,), (4, 5), (5,), (5, 4), (4,), (4,), (4,)]
_BLOCK_FIXED = [np.random.default_rng(11).normal(size=shape) for shape in _BLOCK_SHAPES]


def _block_case(first, count):
    """An operand-table case of tc.encoding_block whose operands are the
    block's operands first..first+count-1, the rest fixed constants: the
    attention's x, wq and wkv, or the tail's wo, norms and FFN."""
    def op(*ts):
        ops = _BLOCK_FIXED[:first] + list(ts) + _BLOCK_FIXED[first + count:]
        return _block(ops[0], 2, _slots([2, 4]), ops[1:], np.array([[0, -1], [1, 5]]))
    return op, _BLOCK_SHAPES[first:first + count]


MULTI_OPERAND_OPS = {
    "add": (tc.add, [(4, 3), (4, 3)]),
    "mul": (mul, [(4, 3), (4, 3)]),
    "add_bias": (tc.add_bias, [(4, 3), (3,)]),
    "scale_rows": (tc.scale_rows, [(4, 3), (4,)]),
    "matmul": (matmul, [(4, 5), (5, 3)]),
    "encoding_block": _block_case(0, 12),
    "attention": _block_case(0, 3),
    "encoder_tail": _block_case(3, 9),
    "char_cnn": (lambda s, f2, f3, b2, b3: tc.char_cnn(s, [f2, f3], [b2, b3], [5, 2, 1]),
                 [(3, 5, 3), (2, 3, 4), (3, 3, 2), (4,), (2,)]),
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
            backward(sum_all(mul(op(*ts), weight)))
        return ts

    reference = operands(None)
    for i in range(len(arrays)):
        ts = operands(i)
        assert not hasattr(ts[i], "grad")  # only a parameter has a gradient
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
        pre = tc.add_bias(matmul(x, w1), b1)
        h = mul(pre, pre)  # a squaring hidden layer
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
    assert out.node is None and type(out) is Tensor


def test_backward_is_deterministic(rng):
    def run():
        r = np.random.default_rng(99)
        w = parameter(r.normal(size=(6, 6)))
        x = constant(r.normal(size=(4, 6)))
        with Graph():
            y = matmul(x, w)
            backward(sum_all(mul(y, y)))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_nonfinite_result_raises():
    big = constant(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        mul(big, big)
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
        (lambda: sum_all(mul(tc.add(x, y), w43)), [x, y]),
        (lambda: sum_all(mul(mul(x, y), w43)), [x, y]),
        (lambda: sum_all(mul(tc.scale(x, 2.5), w43)), [x]),
        (lambda: sum_all(mul(tc.add_bias(x, b), w43)), [x, b]),
        (lambda: sum_all(mul(tc.scale_rows(x, s), w43)), [x, s]),
        (lambda: sum_all(mul(tc.segment_mean(x, [3, 1]), w23)), [x]),
        (lambda: sum_all(mul(tc.scale_rows(m43, v), w43)), [v]),
        (lambda: sum_all(mul(tc.concat_cols([x, y]), w46)), [x, y]),
        (lambda: sum_all(mul(tc.concat_cols([x3, y3]), w226)), [x3, y3]),
    ]
    for build, params in cases:
        assert check_grads(build, params) < 1e-5


def test_gather_ops_scatter_add_duplicates(rng):
    table = parameter(rng.normal(size=(5, 3)))
    ids = [1, 3, 1, 1]
    w = constant(rng.normal(size=(4, 3)))
    err = check_grads(lambda: sum_all(mul(tc.gather_rows(table, ids), w)), [table])
    assert err < 1e-6

    vec = parameter(rng.normal(size=6))
    wv = constant(rng.normal(size=3))
    err = check_grads(lambda: sum_all(mul(tc.gather_rows(vec, [2, 2, 5]), wv)), [vec])
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


def test_gather_rows_gradient_equals_add_at_into_zeros(rng):
    # np.add.at on zeros adds each row's gradients in id order from 0.0, so
    # a -0.0 comes out +0.0; the one bincount of the backward pass must too
    for table_shape, ids_shape in (((7,), (30,)), ((5, 3), (4, 6)), ((4, 2, 3), (9,))):
        ids = rng.integers(-1, table_shape[0], size=ids_shape)
        g = rng.normal(size=ids_shape + table_shape[1:])
        g *= 10.0 ** rng.integers(-20, 20, size=g.shape)
        g[rng.random(g.shape) < 0.2] = -0.0
        table = parameter(rng.normal(size=table_shape))
        with Graph():
            backward(sum_all(mul(tc.gather_rows(table, ids), constant(g))))
        want = np.zeros(table_shape)
        np.add.at(want, ids[ids >= 0], g[ids >= 0])
        assert _same(table.grad, want)
    table = parameter(np.ones((3, 2)))
    with Graph():
        backward(sum_all(mul(tc.gather_rows(table, [[-1, 2], [2, -1]]),
                                constant(np.full((2, 2, 2), -0.0)))))
    assert _same(table.grad, np.zeros((3, 2)))


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
    out = _cnn(constant(seqs), constant(filt), lengths).data
    for i, n in enumerate(lengths):
        alone = _cnn(constant(seqs[i, :n]), constant(filt)).data
        assert np.abs(out[i] - alone).max() < 1e-12

    seq = parameter(seqs)
    fil = parameter(filt)
    w = constant(rng.normal(size=(4, 4)))
    err = check_grads(lambda: sum_all(mul(_cnn(seq, fil, lengths), w)),
                      [seq, fil])
    assert err < 1e-5
    with Graph():
        backward(sum_all(mul(_cnn(seq, fil, lengths), w)))
    assert np.array_equal(seq.grad[1, 1:], np.zeros((4, 2)))
    for bad in ([0, 1, 1, 1], [6, 1, 1, 1], [1, 1]):
        with pytest.raises(ShapeError):
            _cnn(constant(seqs), constant(filt), bad)


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
    assert check_grads(lambda: sum_all(mul(cosine(pu, pv), w)), [pu, pv]) < 1e-6
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
        w.grad = None
        with Graph() as g:
            backward(sum_all(tc.scale(matmul(x, w), -0.5)))
        return g, w.grad.copy()

    expected = {seed: grad_of(*reference(seed))[1] for seed in range(4)}
    errors, barrier = [], threading.Barrier(4, timeout=10)

    def work(seed):
        try:
            w, x = reference(seed)
            barrier.wait()
            for _ in range(300):
                g, grad = grad_of(w, x)
                assert [n.op for n in g.nodes] == ["matmul", "scale", "sum_all"]
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
            loss = sum_all(tc.scale(matmul(p, p), 2.0))
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
