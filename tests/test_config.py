from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.config import (
    SCHEMA,
    EvalConfig,
    build_config,
    parse_config_text,
    variant_values,
)
from marginlab.data import SyntheticDatasetSpec
from marginlab.errors import ConfigParseError
from marginlab.losses import LossConfig, Variant
from marginlab.model import ModelSpec
from marginlab.optim import OptimizerState, TrainingSchedule


def test_defaults_from_empty_text():
    cfg = parse_config_text("")
    assert cfg.seed == 0
    assert cfg.loss.variant is Variant.NPCFACE
    assert cfg.loss.s == 64.0
    assert cfg.loss.t == 1.1 and cfg.loss.alpha == 0.25
    assert cfg.loss.m0 == 0.4 and cfg.loss.m1 == 0.2
    assert cfg.schedule.milestones == (16, 24, 28)
    assert cfg.momentum == 0.9 and cfg.weight_decay == 0.0005
    assert cfg.dataset.n_classes == 200 and cfg.dataset.samples_per_class == 20
    assert cfg.model.layer_widths[-1] == 16


# the README's config table; the seeds are derive_seed(0, "dataset" | "model")
EMPTY_CONFIG_VALUES = {
    "seed": 0,
    "output_dir": "runs/experiment",
    "dataset.n_classes": 200,
    "dataset.samples_per_class": 20,
    "dataset.input_dim": 32,
    "dataset.concentration": 16.0,
    "dataset.crowding": 0.0,
    "dataset.min_center_cosine": 0.8,
    "dataset.seed": 679524067,
    "model.layer_widths": "32,32,16",
    "model.activation": "relu",
    "model.init_scale": 1.0,
    "model.seed": 3539822255,
    "loss.variant": "npcface",
    "loss.s": 64.0,
    "loss.m": 0.5,
    "loss.t": 1.1,
    "loss.alpha": 0.25,
    "loss.m0": 0.4,
    "loss.m1": 0.2,
    "loss.mv_positive": "arc",
    "schedule.total_epochs": 30,
    "schedule.lr_initial": 0.1,
    "schedule.milestones": "16,24,28",
    "schedule.decay_factor": 10.0,
    "schedule.batch_size": 128,
    "optimizer.momentum": 0.9,
    "optimizer.weight_decay": 0.0005,
    "eval.samples_per_class": 4,
    "eval.n_positive_pairs": 500,
    "eval.n_negative_pairs": 500,
    "eval.n_distractors": 200,
    "eval.far_targets": "0.1,0.01",
    "eval.kfold": 10,
}


def test_every_default_and_the_key_order_pinned():
    assert list(parse_config_text("").flat_values().items()) == list(EMPTY_CONFIG_VALUES.items())


def test_python_built_specs_match_an_empty_config():
    """A spec built from Python agrees with the config file's defaults,
    except in the keys derived from other keys (the sub-seeds, the widths)."""
    cfg = parse_config_text("")
    assert SyntheticDatasetSpec(seed=cfg.dataset.seed) == cfg.dataset
    assert ModelSpec(layer_widths=cfg.model.layer_widths, seed=cfg.model.seed) == cfg.model
    assert LossConfig() == cfg.loss
    assert TrainingSchedule() == cfg.schedule
    assert EvalConfig() == cfg.eval
    optimizer = OptimizerState(lr=cfg.schedule.lr_initial)
    assert (optimizer.momentum, optimizer.weight_decay) == (cfg.momentum, cfg.weight_decay)


def test_values_comments_and_echo():
    text = "# comment\nseed = 9\nloss.variant = arcface  # inline\nloss.s = 32\n"
    cfg = parse_config_text(text)
    assert cfg.seed == 9
    assert cfg.loss.variant is Variant.ARCFACE
    assert cfg.loss.s == 32.0
    assert cfg.raw_text == text


def test_unknown_key_reports_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("seed = 1\nloss.bogus = 2\n")
    assert err.value.line == 2
    assert err.value.field == "loss.bogus"


def test_bad_value_reports_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("schedule.total_epochs = soon\n")
    assert err.value.line == 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError):
        parse_config_text("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigParseError):
        parse_config_text("just some words\n")


def test_margin_default_depends_on_variant():
    assert parse_config_text("loss.variant = arcface\n").loss.m == 0.5
    assert parse_config_text("loss.variant = cosface\n").loss.m == 0.35
    assert parse_config_text("loss.variant = cosface\nloss.m = 0.2\n").loss.m == 0.2


def test_widths_must_match_input_dim():
    with pytest.raises(ConfigParseError):
        parse_config_text("dataset.input_dim = 10\nmodel.layer_widths = 8,4\n")


def test_default_milestones_clipped_to_short_runs():
    cfg = parse_config_text("schedule.total_epochs = 10\n")
    assert cfg.schedule.milestones == ()
    with pytest.raises(ConfigParseError):
        parse_config_text("schedule.total_epochs = 10\nschedule.milestones = 16\n")


def test_sub_seeds_derived_and_overridable():
    a = parse_config_text("seed = 1\n")
    b = parse_config_text("seed = 2\n")
    assert a.dataset.seed != b.dataset.seed
    assert a.model.seed != a.dataset.seed
    pinned = parse_config_text("seed = 1\ndataset.seed = 7\n")
    assert pinned.dataset.seed == 7


def test_invalid_loss_values_rejected():
    with pytest.raises(ConfigParseError):
        parse_config_text("loss.t = 0.5\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("loss.s = -1\n")


def test_duplicate_far_targets_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("eval.far_targets = 0.01,1e-2\n")
    assert "far_targets" in str(err.value)


def test_flat_values_roundtrip_through_schema():
    cfg = parse_config_text("seed = 3\nloss.variant = mv_softmax\n")
    flat = cfg.flat_values()
    assert flat["loss.variant"] == "mv_softmax"
    assert flat["seed"] == 3
    rebuilt = build_config({"seed": 3})
    assert rebuilt.seed == 3


class TestVariantTokens:
    def test_plain_name(self):
        base = parse_config_text("")
        loss = base.override(variant_values("arcface")).loss
        assert loss.variant is Variant.ARCFACE
        assert loss.m == 0.5

    def test_overrides(self):
        base = parse_config_text("")
        loss = base.override(variant_values("npcface:t=1;alpha=0;m1=0")).loss
        assert loss.t == 1.0 and loss.alpha == 0.0 and loss.m1 == 0.0
        assert loss.m0 == base.loss.m0

    def test_margin_override(self):
        base = parse_config_text("")
        assert base.override(variant_values("arcface:m=0.3")).loss.m == 0.3

    def test_explicit_config_margin_survives(self):
        base = parse_config_text("loss.m = 0.25\n")
        assert base.override(variant_values("cosface")).loss.m == 0.25

    def test_bad_token_rejected(self):
        base = parse_config_text("")
        with pytest.raises(ConfigParseError):
            base.override(variant_values("npcface:bogus=1")).loss
        with pytest.raises(ConfigParseError):
            base.override(variant_values("sphereface")).loss
        with pytest.raises(ConfigParseError):
            base.override(variant_values("npcface:variant=arcface")).loss

    def test_overrides_use_the_schema_parsers(self):
        base = parse_config_text("")
        loss = base.override(variant_values("mv_softmax:mv_positive= cos ;s= 30")).loss
        assert loss.mv_positive == "cos" and loss.s == 30.0
        for token in ("npcface:s=nan", "arcface:m=inf", "npcface:alpha=-inf"):
            with pytest.raises(ConfigParseError, match="not a finite number"):
                base.override(variant_values(token)).loss


@pytest.mark.parametrize("key", ["loss.s", "dataset.concentration", "schedule.lr_initial",
                                 "optimizer.momentum", "eval.far_targets"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_rejected_with_line(key, value):
    with pytest.raises(ConfigParseError) as err:
        parse_config_text(f"seed = 1\n{key} = {value}\n")
    assert err.value.line == 2
    assert "not a finite number" in str(err.value)


# (spec, the arguments it requires, the float field set to NaN or +inf)
NAN_FIELDS = [
    (LossConfig, {}, "t"), (LossConfig, {}, "alpha"), (LossConfig, {}, "m1"),
    (TrainingSchedule, {"total_epochs": 30}, "lr_initial"),
    (TrainingSchedule, {"total_epochs": 30}, "decay_factor"),
    (SyntheticDatasetSpec, {"n_classes": 4, "samples_per_class": 2, "input_dim": 3},
     "concentration"),
    (SyntheticDatasetSpec, {"n_classes": 4, "samples_per_class": 2, "input_dim": 3},
     "min_center_cosine"),
    (ModelSpec, {"layer_widths": (3, 2)}, "init_scale"),
    (OptimizerState, {"lr": 0.1}, "lr"), (OptimizerState, {"lr": 0.1}, "weight_decay"),
]

NAN_FIELD_IDS = [f"{spec.__name__}.{name}" for spec, _, name in NAN_FIELDS]


@pytest.mark.parametrize("spec, required, name", NAN_FIELDS, ids=NAN_FIELD_IDS)
def test_spec_built_from_python_rejects_nan(spec, required, name):
    with pytest.raises(ValueError, match=name):
        spec(**{**required, name: float("nan")})


@pytest.mark.parametrize("spec, required, name", NAN_FIELDS, ids=NAN_FIELD_IDS)
def test_spec_built_from_python_rejects_infinity(spec, required, name):
    with pytest.raises(ValueError, match=name):
        spec(**{**required, name: float("inf")})


# text a config line can hold: no comment mark, no line break, nothing the
# parser strips from either end
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#")).filter(
    lambda text: text == text.strip() and len(text.splitlines()) <= 1)
FLOAT_KEYS = {
    "dataset.concentration": (1e-3, 1e3), "dataset.crowding": (0.0, 1.0),
    "dataset.min_center_cosine": (-1.0, 1.0), "model.init_scale": (1e-3, 10.0),
    "loss.s": (1e-3, 1e3), "loss.m": (0.0, 3.0), "loss.t": (1.0, 3.0),
    "loss.alpha": (0.0, 2.0), "loss.m0": (0.0, 1.5), "loss.m1": (0.0, 1.5),
    "schedule.lr_initial": (1e-6, 10.0), "schedule.decay_factor": (1e-3, 1e3),
    "optimizer.momentum": (0.0, 0.999), "optimizer.weight_decay": (0.0, 1.0),
}
INT_KEYS = {
    "seed": (0, 2**40), "dataset.seed": (0, 2**32), "model.seed": (0, 2**32),
    "dataset.n_classes": (2, 5000), "dataset.samples_per_class": (1, 100),
    "schedule.batch_size": (1, 1024), "eval.samples_per_class": (2, 20),
    "eval.n_positive_pairs": (1, 5000), "eval.n_negative_pairs": (1, 5000),
    "eval.n_distractors": (0, 500), "eval.kfold": (2, 20),
}


@st.composite
def config_texts(draw):
    """Config text that sets a random subset of the schema keys to valid values."""
    values = {key: repr(draw(st.floats(low, high))) for key, (low, high) in FLOAT_KEYS.items()}
    values.update({key: str(draw(st.integers(low, high)))
                   for key, (low, high) in INT_KEYS.items()})
    input_dim = draw(st.integers(1, 64))
    values["dataset.input_dim"] = str(input_dim)
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    values["model.layer_widths"] = ",".join(map(str, [input_dim, *widths]))
    epochs = draw(st.integers(0, 40))
    values["schedule.total_epochs"] = str(epochs)
    milestones = draw(st.sets(st.integers(1, epochs - 1), max_size=4)) if epochs > 1 else ()
    values["schedule.milestones"] = ",".join(map(str, sorted(milestones)))
    targets = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4,
                            unique_by=lambda far: f"{far:g}"))
    values["eval.far_targets"] = ",".join(map(repr, targets))
    values["output_dir"] = draw(LINE_TEXT)
    values["model.activation"] = draw(st.sampled_from(["relu", "tanh"]))
    values["loss.variant"] = draw(st.sampled_from([v.value for v in Variant]))
    values["loss.mv_positive"] = draw(st.sampled_from(["arc", "cos"]))
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    # explicit widths and milestones are valid only next to what they were drawn for
    for key, needs in (("model.layer_widths", "dataset.input_dim"),
                       ("schedule.milestones", "schedule.total_epochs")):
        if key in keys:
            keys.add(needs)
    return "".join(f"{key} = {values[key]}\n" for key in sorted(keys))


@settings(max_examples=200, deadline=None)
@given(config_texts())
def test_flat_values_written_back_parse_to_the_same_config(text):
    config = parse_config_text(text)
    flat = config.flat_values()
    assert list(flat) == list(SCHEMA)
    written = "".join(f"{key} = {value}\n" for key, value in flat.items())
    again = parse_config_text(written)
    assert again.flat_values() == flat
    assert replace(again, raw_text=text, values=config.values) == config


# loss keys a variant token may set; each range reaches just past the valid
# one, so the draws at its ends are rejected
TOKEN_FLOATS = {"s": (0.0, 1e3), "m": (0.0, 3.2), "t": (0.9, 3.0), "alpha": (-0.1, 2.0),
                "m0": (0.0, 1.6), "m1": (0.0, 1.6)}


@settings(max_examples=500, deadline=None)
@given(config_texts(), st.data())
def test_override_acts_as_if_written_in_the_text(text, data):
    """--seed, a variant token and a --dims width give the config that
    writing their lines into the file gives, or fail as it fails."""
    config = parse_config_text(text)
    kind = data.draw(st.sampled_from(["seed", "token", "width"]), label="kind")
    if kind == "seed":
        seed = data.draw(st.integers(0, 2**40), label="seed")
        values, lines = {"seed": seed}, {"seed": str(seed)}
    elif kind == "token":
        variant = data.draw(st.sampled_from([v.value for v in Variant]), label="variant")
        keys = data.draw(st.sets(st.sampled_from(sorted(TOKEN_FLOATS))), label="keys")
        items = {key: repr(data.draw(st.floats(*TOKEN_FLOATS[key]), label=key))
                 for key in sorted(keys)}
        token = f"{variant}:" + ";".join(f"{k}={v}" for k, v in items.items())
        values = variant_values(token)
        lines = {"loss.variant": variant, **{f"loss.{k}": v for k, v in items.items()}}
    else:
        widths = (*config.model.layer_widths[:-1], data.draw(st.integers(0, 64), label="dim"))
        values = {"model.layer_widths": widths}
        lines = {"model.layer_widths": ",".join(map(str, widths))}
    written = dict(line.split(" = ", 1) for line in text.splitlines())
    written.update(lines)
    try:
        expected = parse_config_text("".join(f"{k} = {v}\n" for k, v in written.items()))
    except ConfigParseError:
        with pytest.raises(ConfigParseError):
            config.override(values)
    else:
        assert config.override(values).flat_values() == expected.flat_values()
