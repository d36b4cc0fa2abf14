"""Fast checks of the benchmark's own machinery (no workload is run)."""

import os
import shutil
import subprocess
import sys

import numpy as np

import gen
import spans
import workload
from oov_forge import baselines, evaluation
from oov_forge.corpus import EmbeddingTable, load_embeddings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    ix = spans._Index(tracer)
    outer, inner, leaf = range(3)
    assert ix.root == [outer, outer, outer]
    assert ix.self_time[inner] == ix.dur[inner] - ix.dur[leaf]
    assert ix.self_time[outer] == ix.dur[outer] - ix.dur[inner]
    assert ix.count("leaf", roots={"outer"}, parent="inner") == 1


class _HalfSpeed:
    """A reference that always reads twice its full-speed time."""

    @staticmethod
    def time():
        return 2.0

    scale = staticmethod(workload.Reference.scale)


def test_stage_rate_is_units_over_scaled_time():
    run = workload.Run(spans.NullTracer())
    times = iter([0.25, 0.5, 0.25])
    run.stage("s", lambda: (10, next(times)), 0.0, 3, "units/s", _HalfSpeed)
    st = run.stages["s"]
    assert st["ops"] == 3 and run.attempted == 3 and run.failed == 0
    assert st["wall_rate"] == 30 / 1.0
    assert st["rate"] == 30 / 0.5  # each time halved: the host ran at half speed


def test_a_failed_check_is_a_failed_operation():
    run = workload.Run(spans.NullTracer())

    def op():
        workload.check(False, "wrong output")

    run.stage("s", op, 0.0, 2, "units/s", _HalfSpeed)
    assert run.attempted == 2 and run.failed == 2
    assert run.stages["s"]["ops"] == 0 and "wrong output" in run.errors[0]


def test_generated_table_loads_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    words, vectors = gen.planted_vectors(rng, 3, 4, 7)
    m32 = gen.write_table(tmp_path / "t.txt", words, vectors)
    table = load_embeddings(tmp_path / "t.txt")
    assert table.words() == words
    assert all(table[w].tobytes() == m32[i].tobytes() for i, w in enumerate(words))


def test_generated_items_give_the_oracle_rho_one(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "BIG_TOPICS", 6)
    monkeypatch.setattr(gen, "EVAL_ITEMS_PER_SHOT", 2)
    rng = np.random.default_rng(5)
    words, vectors = gen.planted_vectors(rng, 6, gen.BIG_WORDS_PER_TOPIC, 8)
    m32 = gen.write_table(tmp_path / "t.txt", words, vectors)
    gen.write_lines(tmp_path / "items.tsv", gen.eval_items(rng, words, m32))
    table = load_embeddings(tmp_path / "t.txt")
    items = evaluation.load_benchmark_tsv(tmp_path / "items.tsv")
    assert sorted({it.shot for it in items}) == list(gen.EVAL_SHOTS)
    rep = evaluation.evaluate_method(
        items, lambda w, ctxs: table[w].astype(np.float64), table)
    assert rep.failed == 0 and all(r.rho == 1.0 for r in rep.items)


def _tiny_table():
    rng = np.random.default_rng(11)
    words = [f"w{i:02d}" for i in range(30)]
    vectors = {w: rng.normal(size=5).astype(np.float32) for w in words}
    vectors["w07"] = vectors["w03"].copy()  # an exact tie
    return EmbeddingTable(dim=5, vectors=vectors)


def test_nn_reference_matches_the_program_with_ties():
    table = _tiny_table()
    words = np.array(table.words())
    matrix = np.stack([table[w] for w in words]).astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    query = table["w03"].astype(np.float64)
    _, ref = workload.nn_reference(query, words, matrix, norms, 5, ("w10",))
    got = evaluation.nearest_neighbors(query, table, 5, exclude=("w10",))
    assert [w for w, _ in ref] == [w for w, _ in got]
    assert [w for w, _ in ref][:2] == ["w03", "w07"]


def test_additive_reference_matches_the_program():
    table = _tiny_table()
    ctxs = [["w01", "<mask>", "w02", "zz"], ["w05", "<mask>"], ["nope"]]
    ref = workload.additive_reference(ctxs, table)
    got = baselines.additive(ctxs, table).vector
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "train-planted", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
