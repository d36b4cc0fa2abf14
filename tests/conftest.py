import os
import sys

# One BLAS thread, set before numpy loads: the summation order of a d=300
# matmul, and so the last bits of the golden arrays, depend on the count.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from oov_forge.corpus import EmbeddingTable, SentenceStore  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_table():
    rng = np.random.default_rng(7)
    words = ["car", "bike", "road", "wheel", "engine", "music", "piano",
             "violin", "band", "song", "the", "and", "of", "we", "like"]
    return EmbeddingTable(
        dim=6,
        vectors={w: rng.normal(size=6).astype(np.float32) for w in words},
        source="<tiny>",
    )


@pytest.fixture
def tiny_corpus():
    sentences = [
        "the car has a wheel and an engine",
        "we like the car on the road",
        "the bike is on the road",
        "a band plays a song",
        "the piano and the violin make music",
        "the song of the band",
        "the car and the bike share the road",
        "music from the piano",
    ]
    token_lists = [s.split() for s in sentences]
    store = SentenceStore.from_tokens(token_lists, min_count=1)
    return store.vocab, store
