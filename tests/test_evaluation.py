import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oov_forge.cli import main
from oov_forge.corpus import EmbeddingTable
from oov_forge.errors import (EvaluationError, FormatError, InferenceError,
                              IngestionError, OovForgeError)
from oov_forge.evaluation import (EvalItem, average_ranks, cosine_np,
                                  evaluate_method, import_chimera,
                                  load_benchmark_tsv, mask_contexts,
                                  nearest_neighbors, save_benchmark_tsv,
                                  spearman)


def brute_force_spearman(a, b):
    """Independent oracle: O(n^2) tie-averaged ranks + textbook Pearson."""
    def ranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            # ranks occupied: less+1 .. less+equal; average them
            out.append(less + (equal + 1) / 2.0)
        return out

    ra, rb = ranks(list(a)), ranks(list(b))
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    da = math.sqrt(sum((x - ma) ** 2 for x in ra))
    db = math.sqrt(sum((y - mb) ** 2 for y in rb))
    return num / (da * db)


def test_spearman_identity_and_reversal_exact():
    a = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert spearman(a, a) == 1.0
    ranks = average_ranks(a)
    reversed_ranks = (len(a) + 1) - ranks  # strictly reverses the ordering
    assert spearman(a, reversed_ranks) == -1.0


def test_spearman_constant_input_is_an_error():
    with pytest.raises(EvaluationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(EvaluationError):
        spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


def test_spearman_shape_contracts():
    with pytest.raises(EvaluationError):
        spearman([1.0], [2.0])
    with pytest.raises(EvaluationError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_matches_bruteforce_on_random_tied_pairs(rng):
    for trial in range(1000):
        n = int(rng.integers(2, 12))
        # integer draws inject plenty of ties
        a = rng.integers(0, max(2, n // 2 + 1), size=n).astype(float)
        b = rng.integers(0, max(2, n // 2 + 1), size=n).astype(float)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        assert abs(spearman(a, b) - brute_force_spearman(a, b)) < 1e-12


def test_spearman_symmetry_and_monotone_invariance(rng):
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    assert spearman(a, b) == spearman(b, a)
    assert spearman(np.exp(a), b) == spearman(a, b)
    assert spearman(a, 100 + 3 * b) == spearman(a, b)


def test_average_ranks_tie_policy():
    assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]),
                          [1.0, 2.5, 2.5, 4.0])


# ---------------------------------------------------------------------------
# evaluate_method
# ---------------------------------------------------------------------------

def _synthetic_benchmark(rng, n_items=6, dim=5):
    """Human ratings generated from cosines to a planted vector: the method
    that returns the planted vector scores a perfect mean rho."""
    words = [f"p{i}" for i in range(8)]
    table = EmbeddingTable(
        dim=dim,
        vectors={w: rng.normal(size=dim).astype(np.float32) for w in words},
    )
    items, planted = [], {}
    for i in range(n_items):
        pw = f"nonce{i}"
        vec = rng.normal(size=dim)
        planted[pw] = vec
        human = [cosine_np(vec, table[w].astype(np.float64))
                 for w in words]
        items.append(EvalItem(
            pseudo_word=pw,
            contexts=[f"the {pw} is here", f"we saw a {pw} today"],
            probes=list(words),
            human=human,
            shot=2 if i % 2 == 0 else 4,
        ))
    return items, table, planted


def test_evaluate_method_planted_perfection(rng):
    items, table, planted = _synthetic_benchmark(rng)
    report = evaluate_method(items, lambda w, ctxs: planted[w], table,
                             method="oracle-stub")
    assert report.failed == 0
    for shot, rho in report.mean_by_shot.items():
        assert rho == pytest.approx(1.0, abs=1e-12)


def test_evaluate_method_per_item_rho_recomputable(rng):
    items, table, planted = _synthetic_benchmark(rng)

    def fuzzy(w, ctxs):
        return planted[w] + 0.5 * np.sin(np.arange(len(planted[w])))

    report = evaluate_method(items, fuzzy, table, method="fuzzy")
    for item, res in zip(items, report.items):
        vec = fuzzy(item.pseudo_word, None)
        machine = [cosine_np(vec, table[p].astype(np.float64))
                   for p in item.probes]
        assert res.rho == pytest.approx(spearman(machine, item.human), abs=1e-15)


def test_evaluate_method_drops_missing_probes_and_counts(rng):
    items, table, planted = _synthetic_benchmark(rng, n_items=2)
    items[0].probes[0] = "notintable"
    report = evaluate_method(items, lambda w, ctxs: planted[w], table)
    assert report.dropped_probes == 1
    assert report.items[0].dropped_probes == 1
    assert not report.items[0].failed


def test_evaluate_method_records_failures_without_dying(rng):
    items, table, planted = _synthetic_benchmark(rng, n_items=4)

    def flaky(w, ctxs):
        if w == "nonce1":
            raise InferenceError("boom")
        return planted[w]

    report = evaluate_method(items, flaky, table)
    assert report.failed == 1
    failed = [r for r in report.items if r.failed]
    assert failed[0].pseudo_word == "nonce1"
    assert failed[0].reason == "boom"
    scored = [r.rho for r in report.items if not r.failed]
    assert all(r == pytest.approx(1.0, abs=1e-12) for r in scored)


def test_evaluate_method_fails_an_item_with_a_wrong_dimension_vector(rng):
    items, table, planted = _synthetic_benchmark(rng, n_items=2)

    def short(w, ctxs):
        return planted[w][:3] if w == "nonce1" else planted[w]

    report = evaluate_method(items, short, table)
    assert report.failed == 1
    failed = [r for r in report.items if r.failed]
    assert failed[0].pseudo_word == "nonce1"
    assert "shape" in failed[0].reason
    with pytest.raises(EvaluationError):
        cosine_np(np.ones(3), np.ones(5))
    with pytest.raises(EvaluationError):  # not an empty neighbour list
        nearest_neighbors(np.ones(3), table, 2)


def test_evaluate_method_lets_a_bug_propagate(rng):
    items, table, planted = _synthetic_benchmark(rng, n_items=2)

    def buggy(w, ctxs):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        evaluate_method(items, buggy, table)


def test_mask_contexts_replaces_target():
    out = mask_contexts("nonce", ["The nonce appeared.", "a nonce, again"])
    from oov_forge.episode import MASK_TOKEN
    assert out[0] == ["the", MASK_TOKEN, "appeared"]
    assert out[1] == ["a", MASK_TOKEN, "again"]


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------

def test_nearest_neighbors_excludes_query_word(rng):
    table = EmbeddingTable(dim=3, vectors={
        "a": np.array([1.0, 0.0, 0.0], dtype=np.float32),
        "b": np.array([0.9, 0.1, 0.0], dtype=np.float32),
        "c": np.array([0.0, 1.0, 0.0], dtype=np.float32),
    })
    got = nearest_neighbors(table["a"].astype(np.float64), table, 2,
                            exclude=("a",))
    assert [w for w, _ in got] == ["b", "c"]


def test_nearest_neighbors_tie_breaks_lexicographically():
    table = EmbeddingTable(dim=3, vectors={
        "zeta": np.array([0.0, 1.0, 0.0], dtype=np.float32),
        "alpha": np.array([0.0, 0.0, 1.0], dtype=np.float32),
        "query": np.array([1.0, 0.0, 0.0], dtype=np.float32),
    })
    got = nearest_neighbors(np.array([1.0, 0.0, 0.0]), table, 3, exclude=("query",))
    assert [w for w, _ in got] == ["alpha", "zeta"]  # cosine ties at 0


def test_nearest_neighbors_matches_full_scan(rng):
    words = [f"w{i}" for i in range(40)]
    table = EmbeddingTable(
        dim=6, vectors={w: rng.normal(size=6).astype(np.float32) for w in words})
    q = rng.normal(size=6)
    got = nearest_neighbors(q, table, 7)
    brute = sorted(
        ((w, cosine_np(q, v.astype(np.float64))) for w, v in table.items()),
        key=lambda wc: (-wc[1], wc[0]))[:7]
    assert [w for w, _ in got] == [w for w, _ in brute]
    with pytest.raises(EvaluationError):
        nearest_neighbors(q, table, 0)


def per_row_nearest(vector, table, top_k, exclude=()):
    """The reference: cosine_np against every row, zero-norm rows skipped,
    sorted by (-cosine, word)."""
    scored = []
    for word in table:
        if word in exclude:
            continue
        try:
            scored.append((word, cosine_np(vector, table[word])))
        except EvaluationError:
            continue
    scored.sort(key=lambda wc: (-wc[1], wc[0]))
    return scored[:top_k]


@st.composite
def _neighbor_cases(draw):
    """Tables drawn from a few distinct rows, so exact duplicates, zero rows
    and rows too small or too large to screen in float32 all occur."""
    dim = draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-30, 1e30]),
                      st.floats(-4, 4, width=32))
    row = st.lists(value, min_size=dim, max_size=dim).map(
        lambda r: np.array(r, dtype=np.float32))
    pool = draw(st.lists(row, min_size=1, max_size=4)) + [np.zeros(dim, np.float32)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    names = draw(st.permutations([f"w{i:02d}" for i in range(len(picks))]))
    table = EmbeddingTable(dim=dim, vectors={n: pool[p] for n, p in zip(names, picks)})
    query = draw(st.one_of(row, st.sampled_from(names).map(lambda w: table[w])))
    query = query.astype(draw(st.sampled_from([np.float32, np.float64])))
    exclude = tuple(draw(st.lists(st.sampled_from(names + ["absent"]), max_size=3)))
    return table, query, draw(st.integers(1, len(names) + 2)), exclude


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e30 rows
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_neighbor_cases())
def test_nearest_neighbors_equals_the_per_row_scan(case):
    table, query, top_k, exclude = case
    if not np.isfinite(np.linalg.norm(query)):  # a float32 query of 1e30s
        with pytest.raises(EvaluationError, match="overflows"):
            nearest_neighbors(query, table, top_k, exclude=exclude)
        return
    assert (nearest_neighbors(query, table, top_k, exclude=exclude)
            == per_row_nearest(query, table, top_k, exclude))


def test_nearest_neighbors_equals_the_per_row_scan_among_near_ties(rng):
    # 400 rows within a few float32 ulps of one direction: every score near
    # the k-th lies inside the screening bound and is settled exactly
    base = rng.normal(size=24)
    rows = base * (1 + rng.integers(-8, 9, size=(400, 24)) * 2.0 ** -23)
    other = rng.normal(size=(600, 24))
    table = EmbeddingTable(dim=24, vectors={
        f"r{i:04d}": v.astype(np.float32)
        for i, v in enumerate(rng.permutation(np.vstack([rows, other])))})
    for query in (base, base.astype(np.float32), rng.normal(size=24)):
        for top_k in (1, 10, 450, 2000):
            assert (nearest_neighbors(query, table, top_k, exclude=("r0003",))
                    == per_row_nearest(query, table, top_k, ("r0003",)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cosine_of_a_float32_row_whose_square_sum_overflows():
    v = np.full(4, 1e20, np.float32)  # finite, but its float32 square sum is not
    assert cosine_np(v, v) == 1.0
    assert cosine_np(v.astype(np.float64), v) == 1.0
    assert cosine_np(-v, v) == -1.0
    assert cosine_np(np.array([1.0, 0.0, 0.0, 0.0]), v) == 0.5
    for bad in ([np.inf, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0], [1e300] * 4):
        with pytest.raises(EvaluationError, match="not finite"):
            cosine_np(np.array(bad), v)
    # a neighbour search scores such a row exactly
    table = EmbeddingTable(dim=4, vectors={"big": v, "unit": np.eye(4, dtype=np.float32)[1]})
    assert nearest_neighbors(np.ones(4), table, 2) == [("big", 1.0), ("unit", 0.5)]


def test_cosine_of_finite_inputs_keeps_its_arithmetic(rng):
    # the benchmark generator copies this arithmetic so that ranks agree
    for dtype in (np.float32, np.float64):
        for _ in range(50):
            u, v = rng.normal(size=(2, 300)) * 10.0 ** rng.integers(-8, 9)
            u, v = u.astype(dtype), v.astype(np.float64)
            want = float(np.clip(float(u @ v) / (float(np.linalg.norm(u))
                                                 * float(np.linalg.norm(v))), -1.0, 1.0))
            assert cosine_np(u, v) == want


@pytest.mark.parametrize("query", [[np.nan, 1.0], [np.inf, 0.0], [1e300, 1e300]],
                         ids=["nan", "inf", "norm-overflow"])
def test_nearest_neighbors_rejects_an_unusable_query(query):
    table = EmbeddingTable(dim=2, vectors={"a": np.array([1, 0], np.float32),
                                           "b": np.array([1, 1], np.float32)})
    with pytest.raises(EvaluationError):
        nearest_neighbors(np.array(query), table, 1)


# ---------------------------------------------------------------------------
# benchmark files
# ---------------------------------------------------------------------------

def test_benchmark_tsv_roundtrip(tmp_path, rng):
    items, _, _ = _synthetic_benchmark(rng, n_items=3)
    path = tmp_path / "bench.tsv"
    save_benchmark_tsv(items, path)
    loaded = load_benchmark_tsv(path)
    assert len(loaded) == 3
    for a, b in zip(items, loaded):
        assert a.pseudo_word == b.pseudo_word
        assert a.contexts == b.contexts
        assert a.probes == b.probes
        assert a.human == b.human
        assert a.shot == b.shot


def test_benchmark_tsv_malformed_reports_line(tmp_path):
    path = tmp_path / "bench.tsv"
    path.write_text("word\t2\tctx with word\tp1,p2\n")  # only 4 fields
    with pytest.raises(FormatError, match="line 1"):
        load_benchmark_tsv(path)
    path.write_text("word\t2\tword here\tp1,p2\tx,y\n")
    with pytest.raises(FormatError, match="line 1"):
        load_benchmark_tsv(path)
    path.write_text("word\t2\tword here\tp1,p2,p3\t1.0,nan,2.0\n")
    with pytest.raises(FormatError, match="line 1: .*non-finite rating"):
        load_benchmark_tsv(path)
    path.write_bytes(b"word\xff\t2\tword here\tp1,p2\t1.0,2.0\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        load_benchmark_tsv(path)


def test_a_shot_below_one_is_refused_on_load_and_save(tmp_path):
    path = tmp_path / "bench.tsv"
    for shot in (0, -2):
        item = EvalItem("zorp", ["a zorp here"], ["x", "y"], [1.0, 2.0], shot)
        with pytest.raises(FormatError, match=f"'zorp': shot {shot} is below 1"):
            item.validate()
        with pytest.raises(FormatError, match="cannot write item 'zorp'"):
            save_benchmark_tsv([item], path)
        assert not path.exists()
        path.write_text(f"zorp\t{shot}\ta zorp here\tx,y\t1.0,2.0\n")
        with pytest.raises(FormatError, match="line 1: .*shot"):
            load_benchmark_tsv(path)
        path.unlink()
    path.write_text("zorp\t1\ta zorp here\tx,y\t1.0,2.0\n")
    assert load_benchmark_tsv(path)[0].shot == 1


def test_benchmark_item_context_must_contain_word(tmp_path):
    path = tmp_path / "bench.tsv"
    path.write_text("word\t2\tnothing relevant\tp1,p2\t1.0,2.0\n")
    with pytest.raises(FormatError):
        load_benchmark_tsv(path)


def test_import_chimera_normalizes(tmp_path):
    raw = ("VEHICLE_x\tWe saw the ___ parked. @@ A ___ drove by!\t"
           "car, bus\t3.5,2.0\n")
    path = tmp_path / "raw.txt"
    path.write_text(raw)
    items = import_chimera(path, shot=2)
    assert len(items) == 1
    item = items[0]
    assert item.pseudo_word == "vehicle_x"
    assert len(item.contexts) == 2
    assert all("vehicle_x" in c for c in item.contexts)
    assert item.probes == ["car", "bus"]
    assert item.human == [3.5, 2.0]
    assert item.shot == 2
    path.write_bytes(raw.replace("2.0", "inf").encode())
    with pytest.raises(FormatError, match="non-finite rating"):
        import_chimera(path, shot=2)
    path.write_bytes(raw.encode() + b"\xff\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        import_chimera(path, shot=2)


def test_chimera_files_import_save_load_and_evaluate(tmp_path):
    # the documented route to the paper's benchmark: import_chimera on the
    # L2, L4 and L6 files, save_benchmark_tsv, then `oov-forge eval`
    items = []
    for shot in (2, 4, 6):
        raw = tmp_path / f"L{shot}.txt"
        raw.write_text("".join(
            f"Word{shot}_{i}\t" + " @@ ".join(f"The ___ saw {i} car{n}." for n in range(shot))
            + f"\tcar, bus, tree\t{i + 1}.0,2.5,0.5\n" for i in range(2)))
        items.extend(import_chimera(raw, shot=shot))
    assert [(item.pseudo_word, item.shot, len(item.contexts)) for item in items] == [
        (f"word{shot}_{i}", shot, shot) for shot in (2, 4, 6) for i in range(2)]
    tsv = tmp_path / "chimera.tsv"
    save_benchmark_tsv(items, tsv)
    assert load_benchmark_tsv(tsv) == items
    words = ["the", "saw", "car", "bus", "tree"] + [f"car{n}" for n in range(6)]
    vectors = np.random.default_rng(0).standard_normal((len(words), 4))
    emb = tmp_path / "emb.txt"
    emb.write_text(f"{len(words)} 4\n" + "".join(
        f"{w} {' '.join(map(repr, v.tolist()))}\n" for w, v in zip(words, vectors)))
    assert main(["eval", str(tsv), "--embeddings", str(emb), "--methods", "additive",
                 "--out-dir", str(tmp_path / "rep")]) == 0
    rows = [line.split(",") for line in (tmp_path / "rep" / "eval_summary.csv")
            .read_text().splitlines() if line and not line.startswith("#")][1:]
    assert [(row[1], row[4], row[5]) for row in rows] == [
        ("2", "2", "0"), ("4", "2", "0"), ("6", "2", "0")]


@st.composite
def _benchmark_items(draw, hostile):
    """Writable items; in a hostile one, the word, a context or a probe may
    hold a tab, a line break or a separator of its field."""
    bad = ["|", "|||", "\t", "\n", ""] if hostile else []
    word = draw(st.sampled_from(["qqqq", "zorp", "bl,ick", "x|y", "a.b"] + bad))
    filler = st.lists(st.sampled_from(["the", "a", "here", ".", ",", "\r", "\x85", "\u2028",
                                       "x|y"] + bad), max_size=3).map(" ".join)
    context = st.builds("{} {} {}".format, filler, st.just(word), filler)
    contexts = draw(st.lists(context | filler if hostile else context,
                             min_size=1 - hostile, max_size=3))
    probes = draw(st.lists(st.sampled_from(["car", "bike", "a b", "x|y", ""]
                                           + (["a,b"] + bad if hostile else [])),
                           min_size=2 - hostile, max_size=4))
    human = draw(st.lists(st.floats(allow_nan=False, allow_infinity=hostile)
                          | st.sampled_from([-0.0, 1e300, 5e-324]),
                          min_size=len(probes), max_size=len(probes) + hostile))
    return EvalItem(word, contexts, probes, human, draw(st.integers(-2, 10)))


@pytest.mark.parametrize("hostile", [False, True])
@settings(max_examples=75, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_written_benchmark_loads_back_equal_or_the_write_is_refused(tmp_path_factory,
                                                                      hostile, data):
    items = data.draw(st.lists(_benchmark_items(hostile), max_size=3))
    path = tmp_path_factory.getbasetemp() / "fuzz-bench.tsv"
    try:
        save_benchmark_tsv(items, path)
    except FormatError:
        assert hostile or any(item.shot < 1 for item in items)
        return
    assert load_benchmark_tsv(path) == items


@settings(max_examples=150, deadline=None, derandomize=True)
@given(at=st.integers(0, 400), byte=st.none() | st.sampled_from(b"\t\n\r,|.-0e ")
       | st.integers(0, 255))
def test_a_corrupted_benchmark_loads_or_is_a_typed_error(tmp_path_factory, at, byte):
    # one byte of a valid file replaced (or, for byte None, the file cut there)
    path = tmp_path_factory.getbasetemp() / "corrupted-bench.tsv"
    save_benchmark_tsv([EvalItem("qqqq", ["the qqqq is here", "a qqqq."], ["car", "bike"],
                                 [1.5, -2.0], 2),
                        EvalItem("zorp", ["zorp"], ["x", "y", "z"], [0.0, 3.0, 1e-9], 1)], path)
    blob = path.read_bytes()
    at %= len(blob)
    path.write_bytes(blob[:at] if byte is None else blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        items = load_benchmark_tsv(path)
    except OovForgeError:
        return
    for item in items:
        item.validate()
