import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from oov_forge import baselines
from oov_forge.baselines import (AlaCarteModel, NgramTable, additive,
                                 alacarte_fit, alacarte_infer, ngram_fit,
                                 ngram_sum, word_ngrams, WIDE_ACC,
                                 _exact_means)
from oov_forge.corpus import EmbeddingTable, load_stopwords
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


def _padded(segments: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The zero-padded [S, L, d] block of [n_s, d] segments, and the n_s."""
    counts = np.array([len(seg) for seg in segments])
    x = np.zeros((len(segments), counts.max(), segments[0].shape[1]),
                 dtype=segments[0].dtype)
    for s, seg in enumerate(segments):
        x[s, :len(seg)] = seg
    return x, counts


ACCUMULATORS = sorted({np.float64, WIDE_ACC}, key=lambda t: np.finfo(t).nmant)


@st.composite
def _segments(draw):
    """1-5 segments of 1-8 float32 or float64 rows, d 1-5, with signed zeros,
    and an accumulator. Each column's values lie within 2^spread above a
    scale of 2^-1074 (float64) or 2^-149 (float32) to 2^(127 - spread), so
    subnormals too; the spread is 27 or one below, at or one above the q - p
    bound of the certificate, so some cells pass it and some fail it. A
    segment may be rows followed by their negations: its columns cancel."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    acc = draw(st.sampled_from(ACCUMULATORS))
    bound = np.finfo(acc).nmant - np.finfo(dtype).nmant
    d = draw(st.integers(1, 5))
    spread = draw(st.sampled_from([27, max(bound - 1, 0), bound, bound + 1]))
    least = -1074 if dtype is np.float64 else -149
    scales = draw(st.lists(st.integers(least, 127 - spread), min_size=d, max_size=d))
    # full mantissas at both ends of the spread put sums at the bound
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1), st.floats(0.5, 1))
    offset = st.one_of(st.sampled_from([0, spread]), st.integers(0, spread))
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        cancel = draw(st.booleans())
        n = draw(st.integers(1, 4 if cancel else 8))
        rows = np.array([[math.ldexp(draw(value), s + draw(offset))
                          for s in scales] for _ in range(n)]).astype(dtype)
        segments.append(np.concatenate([rows, -rows[::-1]]) if cancel else rows)
    return segments, acc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_segments())
def test_exact_mean_is_fsum_bit_for_bit(case):
    segments, acc = case
    want = np.stack([_fsum_mean(seg) for seg in segments])
    assert _exact_means(*_padded(segments), acc).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("column", [
    [-0.0, -0.0, -0.0],              # numpy may sum to -0.0, fsum to 0.0
    [0.0, 0.0, 0.0],
    [0.0, -0.0, 0.0],
    [2.0 ** 100, 1.0, -2.0 ** 100],  # cancels: only an exact sum keeps the 1
    [0.75, -0.5, -0.25],             # cancels to zero
    [2.0 ** -149, 2.0 ** -149, -2.0 ** -148],
    # a bit past the certificate's bound (float64, then the long double): a
    # sum in row order rounds twice, and fsum's sum is 1.5 + 2^-52, 2048 + 2^-41
    [0.5 + 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53],
    [2047.0, 0.5 + 2.0 ** -53, 0.5 + 2.0 ** -42],
])
def test_exact_mean_named_columns_are_fsum(dtype, column):
    x = np.array([column, [1.0, 2.0, 3.0]], dtype=dtype).T
    for acc in ACCUMULATORS:
        # the column's segment comes after a shorter one, so its neighbour is padded
        got = _exact_means(*_padded([np.ones((2, 2), dtype=dtype), x]), acc)
        assert got[1].tobytes() == _fsum_mean(x).tobytes()


def test_exact_mean_overflow_is_fsum_overflow():
    x = np.array([[1e308, 1.0], [1e308, 2.0]])
    with pytest.raises(OverflowError):
        _fsum_mean(x)
    for acc in ACCUMULATORS:  # the long double holds 2e308; its cast to float64 does not
        with pytest.raises(OverflowError):
            _exact_means(*_padded([x]), acc)


def test_exact_mean_of_float32_table_rows_needs_no_fsum(monkeypatch):
    rows = np.random.default_rng(3).normal(size=(12, 300)).astype(np.float32)
    segments = [rows[:5], rows[5:6], rows[6:]]
    want = np.stack([_fsum_mean(seg) for seg in segments])
    calls = _count_fsum(monkeypatch)
    assert _exact_means(*_padded(segments)).tobytes() == want.tobytes()
    assert calls == []


def _count_fsum(monkeypatch) -> list:
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(baselines.math, "fsum", lambda col: calls.append(1) or fsum(col))
    return calls


def _additive_reference(contexts, table, drop_stopwords):
    """The fsum mean of each context's contributing rows, then the fsum mean
    of those means."""
    skip = load_stopwords() if drop_stopwords else set()
    means = [_fsum_mean(np.stack([table[t] for t in ctx]))
             for ctx in ([t for t in c if t != MASK_TOKEN and t not in skip and t in table]
                         for c in contexts) if ctx]
    return _fsum_mean(np.stack(means)) if means else None


@pytest.mark.parametrize("drop_stopwords", [False, True])
def test_additive_equals_the_fsum_reference(drop_stopwords):
    rngl = np.random.default_rng(11)
    words = ["the", "of", "and"] + [f"w{i}" for i in range(30)]
    table = table_of({w: rngl.normal(size=7) * 2.0 ** rngl.integers(-30, 30)
                      for w in words})
    # missing words, the mask marker and repeats; some contexts have no contributor
    pool = words + ["zzz", "qqq", MASK_TOKEN]
    for _ in range(200):
        contexts = [[pool[i] for i in rngl.integers(0, len(pool), rngl.integers(0, 9))]
                    for _ in range(rngl.integers(1, 6))]
        want = _additive_reference(contexts, table, drop_stopwords)
        got = additive(contexts, table, drop_stopwords=drop_stopwords)
        if want is None:
            assert got.empty and np.array_equal(got.vector, np.zeros(7))
        else:
            assert not got.empty and got.vector.tobytes() == want.tobytes()
    empty = additive([[MASK_TOKEN, "zzz"], [], ["the", "of"] if drop_stopwords else []],
                     table, drop_stopwords=drop_stopwords)
    assert empty.empty and empty.vector.tobytes() == np.zeros(7).tobytes()


def _typical_calls(rngl, words):
    """25 calls of four contexts of 16 words each."""
    return [[[words[i] for i in rngl.integers(0, len(words), 16)] for _ in range(4)]
            for _ in range(25)]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="no IEEE extended or quad long double")
def test_means_of_context_means_rarely_need_fsum(monkeypatch):
    rngl = np.random.default_rng(5)
    words = [f"w{i}" for i in range(2000)]
    table = EmbeddingTable.from_rows(words, rngl.normal(size=(2000, 300)))
    calls = _count_fsum(monkeypatch)
    for contexts in _typical_calls(rngl, words):
        additive(contexts, table)
    assert len(calls) <= 0.01 * 25 * 300


def test_a_float64_accumulator_still_gives_fsum_bits(monkeypatch):
    rngl = np.random.default_rng(6)
    words = [f"w{i}" for i in range(500)]
    table = EmbeddingTable.from_rows(words, rngl.normal(size=(500, 300)))
    monkeypatch.setattr(baselines, "WIDE_ACC", np.float64)
    calls = _count_fsum(monkeypatch)
    for contexts in _typical_calls(rngl, words)[:5]:
        got = additive(contexts, table).vector
        assert got.tobytes() == _additive_reference(contexts, table, False).tobytes()
    assert calls  # with q = 53 the mean of means mostly falls back to fsum


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


@pytest.mark.parametrize("shift", [0, 12])
def test_block_lsmr_equals_scipy_lsmr_on_columns_scaled_over_twelve_decades(shift):
    # scipy's condition estimate starts its largest rbar at 1 and keeps the
    # first rbar out of its smallest: columns scaled by 10**-12..1 make it
    # stop on conlim (istop 3), columns scaled by 1..10**12 need the guard
    rng = np.random.default_rng(30)
    m, n = 11, 13
    dense = np.where(rng.random((m, n)) < 0.25, rng.integers(1, 3, (m, n)), 0)
    design = scipy.sparse.csr_matrix(dense * 10.0 ** (rng.uniform(-12, 0, size=n) + shift))
    targets = rng.normal(size=(m, baselines.LSMR_CHUNK + 6))
    sol, itns = baselines._lsmr_columns(design, targets, 0.0)
    expected = [scipy.sparse.linalg.lsmr(design, t) for t in targets.T]
    for j, (x, istop, itn, *_) in enumerate(expected):
        assert np.array_equal(sol[:, j], x), f"column {j}"
        assert itns[j] == itn, f"column {j}"
    if shift == 0:
        assert any(istop == 3 for _, istop, *_ in expected)
