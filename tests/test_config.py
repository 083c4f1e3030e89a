import pytest

from marginlab.config import (
    build_config,
    parse_config_text,
    variant_token_to_loss,
)
from marginlab.errors import ConfigParseError
from marginlab.losses import Variant


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
    rebuilt = build_config({"seed": 3}, {"seed"})
    assert rebuilt.seed == 3


class TestVariantTokens:
    def test_plain_name(self):
        base = parse_config_text("")
        loss = variant_token_to_loss("arcface", base)
        assert loss.variant is Variant.ARCFACE
        assert loss.m == 0.5

    def test_overrides(self):
        base = parse_config_text("")
        loss = variant_token_to_loss("npcface:t=1;alpha=0;m1=0", base)
        assert loss.t == 1.0 and loss.alpha == 0.0 and loss.m1 == 0.0
        assert loss.m0 == base.loss.m0

    def test_margin_override(self):
        base = parse_config_text("")
        assert variant_token_to_loss("arcface:m=0.3", base).m == 0.3

    def test_explicit_config_margin_survives(self):
        base = parse_config_text("loss.m = 0.25\n")
        assert variant_token_to_loss("cosface", base).m == 0.25

    def test_bad_token_rejected(self):
        base = parse_config_text("")
        with pytest.raises(ConfigParseError):
            variant_token_to_loss("npcface:bogus=1", base)
        with pytest.raises(ConfigParseError):
            variant_token_to_loss("sphereface", base)
