"""Checkpoint properties: an exact round trip, and clean rejection of files
that were cut short or hold a non-numeric or non-finite tensor entry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from marginlab.config import parse_config_text
from marginlab.errors import ConfigParseError
from marginlab.model import EmbeddingNet
from marginlab.reports import load_checkpoint, save_checkpoint

# zeros of both signs, the smallest and largest subnormals, and the ends of
# the finite range
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308)
VALUES = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def checkpoints(draw):
    """(experiment, model, class_weights, epochs_trained) of a small random
    net whose parameters are arbitrary finite floats."""
    input_dim = draw(st.integers(1, 4))
    widths = [input_dim, *draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))]
    n_classes = draw(st.integers(2, 5))
    experiment = parse_config_text(
        f"dataset.input_dim = {input_dim}\n"
        f"model.layer_widths = {','.join(map(str, widths))}\n"
        f"dataset.n_classes = {n_classes}\n")
    model = EmbeddingNet(experiment.model)
    model.set_params([draw(arrays(np.float64, p.shape, elements=VALUES)) for p in model.params])
    class_weights = draw(arrays(np.float64, (n_classes, widths[-1]), elements=VALUES))
    return experiment, model, class_weights, draw(st.integers(0, 10**6))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("checkpoint") / "checkpoint.txt")


def saved_bytes(path, checkpoint):
    experiment, model, class_weights, epochs = checkpoint
    save_checkpoint(path, model, class_weights, experiment, epochs)
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=150, deadline=None)
@given(checkpoints())
def test_save_then_load_is_bit_exact(path, checkpoint):
    experiment, model, class_weights, epochs = checkpoint
    saved_bytes(path, checkpoint)
    loaded_experiment, loaded_model, loaded_weights, loaded_epochs = load_checkpoint(path)
    assert loaded_epochs == epochs
    assert loaded_experiment.flat_values() == experiment.flat_values()
    for saved, loaded in zip([*model.params, class_weights],
                             [*loaded_model.params, loaded_weights]):
        assert loaded.dtype == np.float64 and loaded.shape == saved.shape
        assert loaded.tobytes() == saved.tobytes()


@settings(max_examples=150, deadline=None)
@given(checkpoints(), st.data())
def test_any_cut_before_the_end_line_is_rejected(path, checkpoint, data):
    content = saved_bytes(path, checkpoint)
    assert content.endswith(b"\nend\n")
    cut = data.draw(st.integers(0, len(content) - len(b"end\n")), label="cut")
    with open(path, "wb") as fh:
        fh.write(content[:cut])
    with pytest.raises(ConfigParseError):
        load_checkpoint(path)


def _not_a_float(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


# one whitespace-free token that float() rejects, or one it reads as a
# non-finite value
NON_NUMERIC = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]),
    st.text(st.characters(blacklist_categories=("C", "Z")), min_size=1).filter(_not_a_float))


@settings(max_examples=150, deadline=None)
@given(checkpoints(), NON_NUMERIC, st.data())
def test_non_numeric_tensor_entry_is_rejected(path, checkpoint, token, data):
    lines = saved_bytes(path, checkpoint).decode("utf-8").split("\n")
    first_tensor = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    rows = [i for i in range(first_tensor, len(lines))
            if lines[i] and lines[i] != "end" and not lines[i].startswith("tensor ")]
    row = data.draw(st.sampled_from(rows), label="row")
    entries = lines[row].split(" ")
    entries[data.draw(st.integers(0, len(entries) - 1), label="entry")] = token
    lines[row] = " ".join(entries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    with pytest.raises(ConfigParseError):
        load_checkpoint(path)
