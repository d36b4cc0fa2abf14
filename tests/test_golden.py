"""Today's results, pinned: every value ``tests/golden/make.py`` computes
must equal its stored reference exactly (arrays in dtype, shape and bytes,
so -0.0 is not 0.0 and one NaN payload is not another; files and stdout
byte for byte)."""

import json

import numpy as np
import pytest

from golden import make

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return make.outputs(tmp_path_factory.mktemp("golden"))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_arrays_match_the_reference(computed):
    arrays, _ = computed
    with np.load(make.ARRAYS) as ref:
        assert sorted(arrays) == sorted(ref.files)
        differ = [name for name in ref.files if not _same_bits(arrays[name], ref[name])]
    assert not differ, f"arrays differ from the reference: {differ}"


def test_files_and_stdout_match_the_reference(computed):
    _, texts = computed
    ref = json.loads(make.TEXTS.read_text())
    assert sorted(texts) == sorted(ref)
    for name in ref:
        assert texts[name] == ref[name], name
