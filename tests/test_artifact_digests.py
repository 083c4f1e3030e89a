"""The byte-identity rules of ``tools/artifact_digests.py``, on hand-written
files (no CLI command runs)."""

import hashlib
import importlib
import json
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(scope="module")
def digests():
    with pytest.MonkeyPatch.context() as patch:
        # the tool pins BLAS to one thread when imported; undo it after these tests
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(var, "1")
        patch.syspath_prepend(TOOLS)
        yield importlib.import_module("artifact_digests")


def summary(root, **changes):
    """A summary payload of a run written under the output root ``root``."""
    payload = {"command": "train", "elapsed_seconds": 1.25,
               "out_dir": os.path.join(root, "train"), "final_metrics": {"tar": 0.5}}
    payload.update(changes)
    return payload


def digest_of(digests, root, payload, name="summary.json"):
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return digests._file_digest(path, root)


def test_summary_ignores_elapsed_seconds_and_output_root(digests, tmp_path):
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert (digest_of(digests, first, summary(first))
            == digest_of(digests, second, summary(second, elapsed_seconds=9.5)))


@pytest.mark.parametrize("field, value", [
    ("command", "compare"),
    ("out_dir", "elsewhere"),
    ("final_metrics", {"tar": 0.25}),
    ("seed", 1),
])
def test_summary_digest_sees_every_other_field(digests, tmp_path, field, value):
    root = str(tmp_path)
    assert (digest_of(digests, root, summary(root))
            != digest_of(digests, root, summary(root, **{field: value})))


@pytest.mark.parametrize("name", ["loss.csv", "checkpoint.txt"])
def test_other_files_are_hashed_raw(digests, tmp_path, name):
    root = str(tmp_path)
    payload = summary(root)            # holds the output root and elapsed_seconds
    digest = digest_of(digests, root, payload, name)
    with open(os.path.join(root, name), "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()


def test_short_drops_the_path_values(digests):
    argv = ["analyze", "--checkpoint", "/tmp/a/checkpoint.txt", "--m0", "0",
            "--out", "/tmp/a/analyze"]
    assert digests._short(argv) == "analyze --m0 0"
    argv = ["dimstudy", "--config", "/tmp/a/crowded.cfg", "--dims", "8,12", "--seed", "0",
            "--out", "/tmp/a/dimstudy"]
    assert digests._short(argv) == "dimstudy --dims 8,12 --seed 0"
