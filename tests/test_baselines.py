import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from oov_forge import baselines
from oov_forge.baselines import (AlaCarteModel, NgramTable, additive,
                                 alacarte_fit, alacarte_infer, ngram_fit,
                                 ngram_sum, word_ngrams, _exact_mean)
from oov_forge.corpus import EmbeddingTable
from oov_forge.episode import MASK_TOKEN
from oov_forge.errors import FormatError, NumericError, OovForgeError


def table_of(vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dim=dim,
        vectors={w: np.asarray(v, dtype=np.float32) for w, v in vectors.items()},
    )


# ---------------------------------------------------------------------------
# additive
# ---------------------------------------------------------------------------

def test_additive_single_contributor_is_that_vector():
    table = table_of({"car": [1.0, 2.0]})
    res = additive([["car", MASK_TOKEN, "zzz"]], table)
    assert np.allclose(res.vector, [1.0, 2.0])
    assert not res.empty


def test_additive_means_of_context_means():
    table = table_of({"a": [2.0, 0.0], "b": [0.0, 2.0], "c": [4.0, 4.0]})
    res = additive([["a", "b"], ["c"]], table)
    m1 = np.array([1.0, 1.0])
    m2 = np.array([4.0, 4.0])
    assert np.allclose(res.vector, (m1 + m2) / 2)


def test_additive_skips_empty_contexts_and_flags_total_emptiness():
    table = table_of({"a": [1.0, 0.0]})
    res = additive([["a"], ["zzz", MASK_TOKEN]], table)
    assert np.allclose(res.vector, [1.0, 0.0])  # not halved by the empty context
    assert not res.empty
    empty = additive([[MASK_TOKEN, "zzz"]], table)
    assert empty.empty and np.array_equal(empty.vector, [0.0, 0.0])


def test_additive_is_permutation_invariant_exactly():
    rngl = np.random.default_rng(0)
    words = [f"w{i}" for i in range(6)]
    table = table_of({w: rngl.normal(size=3) for w in words})
    contexts = [["w0", "w1", "w2"], ["w3", "w4"], ["w5", "w0"]]
    base = additive(contexts, table).vector
    assert np.array_equal(base, additive(contexts[::-1], table).vector)
    # tokens within one context are summed, so order there is exact too
    shuffled = [list(reversed(c)) for c in contexts]
    assert np.array_equal(base, additive(shuffled, table).vector)


def _fsum_mean(x: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(col) / len(x) for col in x.T.tolist()])


@st.composite
def _blocks(draw):
    """float32 or float64 [n, d] blocks with signed zeros: each column's values
    lie within 2^27 above a scale of 2^-149 to 2^100 (so float32 subnormals
    too), so some columns pass the exactness test and some fail it."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    scales = draw(st.lists(st.integers(-149, 100), min_size=d, max_size=d))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1))
    x = [[math.ldexp(draw(value), s + draw(st.integers(0, 27))) for s in scales]
         for _ in range(n)]
    return np.array(x).astype(dtype)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_blocks())
def test_exact_mean_is_fsum_bit_for_bit(x):
    assert _exact_mean(list(x)).tobytes() == _fsum_mean(x).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("column", [
    [-0.0, -0.0, -0.0],              # numpy may sum to -0.0, fsum to 0.0
    [0.0, 0.0, 0.0],
    [0.0, -0.0, 0.0],
    [2.0 ** 100, 1.0, -2.0 ** 100],  # cancels: only an exact sum keeps the 1
    [0.75, -0.5, -0.25],             # cancels to zero
    [2.0 ** -149, 2.0 ** -149, -2.0 ** -148],
])
def test_exact_mean_named_columns_are_fsum(dtype, column):
    x = np.array([column, [1.0, 2.0, 3.0]], dtype=dtype).T
    assert _exact_mean(list(x)).tobytes() == _fsum_mean(x).tobytes()


def test_exact_mean_overflow_is_fsum_overflow():
    x = np.array([[1e308, 1.0], [1e308, 2.0]])
    with pytest.raises(OverflowError):
        _fsum_mean(x)
    with pytest.raises(OverflowError):
        _exact_mean(list(x))


def test_exact_mean_of_float32_table_rows_needs_no_fsum(monkeypatch):
    rows = list(np.random.default_rng(3).normal(size=(12, 300)).astype(np.float32))
    want = _fsum_mean(np.stack(rows))
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(baselines.math, "fsum", lambda col: calls.append(1) or fsum(col))
    assert _exact_mean(rows).tobytes() == want.tobytes()
    assert calls == []


def test_additive_stopword_filter_uses_strict_subset():
    table = table_of({"the": [9.0, 9.0], "car": [1.0, 0.0], "of": [5.0, 5.0]})
    contexts = [["the", "car", "of"]]
    full = additive(contexts, table)
    filtered = additive(contexts, table, drop_stopwords=True)
    assert np.allclose(full.vector, [5.0, 14.0 / 3.0])
    assert np.allclose(filtered.vector, [1.0, 0.0])


def test_additive_and_alacarte_homogeneity():
    rngl = np.random.default_rng(1)
    words = [f"w{i}" for i in range(5)]
    vecs = {w: rngl.normal(size=4) for w in words}
    contexts = [["w0", "w1"], ["w2", "w3", "w4"]]
    base = additive(contexts, table_of(vecs)).vector
    scaled_table = table_of({w: 3.0 * v for w, v in vecs.items()})
    scaled = additive(contexts, scaled_table).vector
    assert np.allclose(scaled, 3.0 * base, rtol=1e-6)
    model = AlaCarteModel(matrix=rngl.normal(size=(4, 4)))
    assert np.allclose(alacarte_infer(contexts, model, scaled_table),
                       3.0 * alacarte_infer(contexts, model, table_of(vecs)),
                       rtol=1e-6)


def test_additive_requires_a_context():
    with pytest.raises(OovForgeError):
        additive([], table_of({"a": [1.0]}))


# ---------------------------------------------------------------------------
# a la carte
# ---------------------------------------------------------------------------

def test_alacarte_identity_solution(rng):
    # additive vectors already equal the oracles on a spanning sample
    xs = rng.normal(size=(40, 5))
    pairs = [(x, x.copy()) for x in xs]
    model = alacarte_fit(pairs, ridge=1e-10)
    assert np.abs(model.matrix - np.eye(5)).max() < 1e-8


def test_alacarte_fit_beats_identity_residual(rng):
    xs = rng.normal(size=(60, 4))
    m = rng.normal(size=(4, 4))
    pairs = [(x, m @ x + 0.01 * rng.normal(size=4)) for x in xs]
    model = alacarte_fit(pairs)
    res_identity = np.linalg.norm(
        np.stack([x for x, _ in pairs]) - np.stack([y for _, y in pairs]))
    assert model.residual <= res_identity


def test_alacarte_recovers_planted_matrix(rng):
    xs = rng.normal(size=(400, 6))
    m = rng.normal(size=(6, 6))
    noise = 0.01
    pairs = [(x, m @ x + noise * rng.normal(size=6)) for x in xs]
    model = alacarte_fit(pairs, ridge=1e-8)
    assert np.abs(model.matrix - m).max() < 10 * noise


def test_alacarte_singular_without_damping(rng):
    x = rng.normal(size=4)
    pairs = [(x, x)] * 3  # rank-1 sample
    from oov_forge.errors import NumericError
    with pytest.warns(UserWarning), pytest.raises(NumericError):
        alacarte_fit(pairs, ridge=0.0)


def test_alacarte_rank_warning(rng):
    pairs = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(3)]
    with pytest.warns(UserWarning, match="rank"):
        alacarte_fit(pairs)


def test_alacarte_infer_identity_equals_additive(rng):
    words = [f"w{i}" for i in range(5)]
    table = table_of({w: rng.normal(size=3) for w in words})
    contexts = [["w0", "w1"], ["w2", "w3"]]
    base = additive(contexts, table).vector
    ident = AlaCarteModel(matrix=np.eye(3))
    assert np.allclose(alacarte_infer(contexts, ident, table), base)
    zero = AlaCarteModel(matrix=np.zeros((3, 3)))
    assert np.array_equal(alacarte_infer(contexts, zero, table), np.zeros(3))


def test_alacarte_roundtrip(tmp_path, rng):
    model = alacarte_fit([(rng.normal(size=4), rng.normal(size=4))
                          for _ in range(20)])
    path = tmp_path / "model.alc"
    model.save(path)
    loaded = AlaCarteModel.load(path)
    assert np.array_equal(loaded.matrix.astype(np.float32),
                          model.matrix.astype(np.float32))
    assert loaded.samples == model.samples
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(FormatError):
        AlaCarteModel.load(path)


def _small_fitted_file(path, kind: str) -> bytes:
    rng = np.random.default_rng(0)
    if kind == "alc":
        AlaCarteModel(rng.normal(size=(4, 4)), ridge=0.5, samples=3, residual=0.25).save(path)
    else:
        NgramTable(4, {g: rng.normal(size=4) for g in ("<ca", "car", "ar>")}, 1e-3).save(path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["alc", "ngr"]), at=st.integers(0, 1000),
       byte=st.none() | st.integers(0, 255))
def test_a_corrupted_baseline_file_loads_or_is_a_format_error(tmp_path_factory, kind, at, byte):
    # one byte replaced (or, for byte None, the file cut there)
    path = tmp_path_factory.getbasetemp() / f"corrupted.{kind}"
    blob = _small_fitted_file(path, kind)
    at %= len(blob)
    path.write_bytes(blob[:at] if byte is None else blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        (AlaCarteModel if kind == "alc" else NgramTable).load(path)
    except FormatError:
        pass


# ---------------------------------------------------------------------------
# n-gram sum
# ---------------------------------------------------------------------------

def test_word_ngrams_enumeration():
    # "<ab>" has length 4: 3-grams "<ab", "ab>", one 4-gram "<ab>"
    assert word_ngrams("ab") == ["<ab", "ab>", "<ab>"]


def test_ngram_sum_single_covered_trigram():
    table = NgramTable(dim=2, vectors={"<ab": np.array([1.0, -1.0])})
    res = ngram_sum("ab", table)
    assert np.array_equal(res.vector, [1.0, -1.0])
    assert res.covered == 1 and not res.empty


def test_ngram_sum_matches_bruteforce_enumeration(rng):
    vocab = {}
    for word in ("scooter", "cooter", "footer", "potato"):
        for g in word_ngrams(word):
            vocab.setdefault(g, rng.normal(size=3))
    table = NgramTable(dim=3, vectors=vocab)
    for word in ("scooter", "root", "zzz"):
        res = ngram_sum(word, table)
        marked = f"<{word}>"
        expected = np.zeros(3)
        count = 0
        for n in range(3, 7):
            for i in range(len(marked) - n + 1):
                g = marked[i:i + n]
                if g in vocab:
                    expected += vocab[g]
                    count += 1
        assert np.allclose(res.vector, expected)
        assert res.covered == count
        assert res.empty == (count == 0)


def test_ngram_sum_shares_structure_with_lookalikes(rng):
    table = NgramTable(dim=4)
    for g in word_ngrams("cooter"):
        table.vectors[g] = rng.normal(size=4)
    res = ngram_sum("scooter", table)   # shares "oote"-style grams
    assert not res.empty
    assert np.linalg.norm(res.vector) > 0


def test_ngram_fit_reconstructs_training_words(rng):
    words = ["car", "cart", "care", "bike", "bird", "band", "cord", "core"]
    table = table_of({w: rng.normal(size=6) for w in words})
    ngrams = ngram_fit(words, table, ridge=1e-6)
    for w in words:
        rec = ngram_sum(w, ngrams).vector
        target = table[w].astype(np.float64)
        cos = rec @ target / (np.linalg.norm(rec) * np.linalg.norm(target))
        assert cos > 0.95


def test_ngram_table_roundtrip(tmp_path, rng):
    words = ["car", "bike", "band"]
    table = table_of({w: rng.normal(size=3) for w in words})
    ngrams = ngram_fit(words, table)
    path = tmp_path / "grams.ngr"
    ngrams.save(path)
    loaded = NgramTable.load(path)
    assert set(loaded.vectors) == set(ngrams.vectors)
    for g in ngrams.vectors:
        assert np.array_equal(loaded.vectors[g].astype(np.float32),
                              ngrams.vectors[g].astype(np.float32))
    with pytest.raises(FormatError):
        AlaCarteModel.load(path)  # wrong magic is a typed error


@pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
def test_ngram_fit_rejects_a_negative_or_non_finite_ridge(ridge):
    table = table_of({"car": [1.0, 2.0], "cart": [0.5, 1.0]})
    with pytest.raises(NumericError, match="ridge"):
        ngram_fit(["car", "cart"], table, ridge=ridge)


def _lsmr_design(rng, m, n):
    """A count matrix like ngram_fit's, with its last row repeating the
    first (a repeated word, so rank-deficient) and three rows on two
    columns of their own: row m alone on column n, so a target on that row
    is fitted exactly in one step (beta = 0), and rows m + 1 and m + 2
    both on column n + 1 (alpha = 0 after one step)."""
    dense = np.where(rng.random((m, n)) < 0.25, rng.integers(1, 3, (m, n)), 0)
    dense[-1] = dense[0]
    own = np.array([[2, 0], [0, 1], [0, 1]])
    full = np.block([[dense, np.zeros((m, 2))], [np.zeros((3, n)), own]])
    return scipy.sparse.csr_matrix(full.astype(np.float64))


@pytest.mark.parametrize("damp", [0.0, 0.05])
@pytest.mark.parametrize("m,n", [(12, 30), (30, 12)])
def test_block_lsmr_equals_scipy_lsmr_column_by_column(rng, m, n, damp):
    design = _lsmr_design(rng, m, n)
    k = baselines.LSMR_CHUNK + 6  # the second chunk holds 6 columns
    targets = rng.normal(size=(m + 3, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
    targets[:, 0] = 0.0  # normb == 0
    targets[:, 1] = 0.0
    targets[0, 1], targets[m - 1, 1] = 1.0, -1.0  # design.T @ b == 0: normar == 0
    targets[:, 2] = design @ rng.normal(size=n + 2)  # a consistent system
    targets[:, 3] = 0.0
    targets[m, 3] = 3.0  # beta == 0 after the first step
    targets[:, 4] = 0.0
    targets[m + 1, 4] = 1.0  # alpha == 0 after the first step
    sol, itns = baselines._lsmr_columns(design, targets, damp)
    expected = [scipy.sparse.linalg.lsmr(design, targets[:, j], damp=damp)
                for j in range(k)]
    for j, (x, _, itn, *_) in enumerate(expected):
        assert np.array_equal(sol[:, j], x), f"column {j}"
        assert itns[j] == itn, f"column {j}"
    assert itns[0] == itns[1] == 0
    assert len(set(itns[5:].tolist())) > 1  # columns stop at different iterations
