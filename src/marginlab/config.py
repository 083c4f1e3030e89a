"""Flat key-value experiment configs.

The format is deliberately diff-friendly: one ``section.key = value`` per
line, ``#`` comments, no nesting. Unknown keys are hard errors. The raw file
text is carried through every report so runs can be reproduced from their
artifacts alone.
"""

import math
from dataclasses import dataclass, field

from .data import SyntheticDatasetSpec
from .errors import ConfigParseError
from .losses import LossConfig, Variant
from .model import ModelSpec
from .optim import OptimizerState, TrainingSchedule
from .seeds import derive_seed

SCHEMA_VERSION = "1"

# variant-specific conventional defaults for the fixed positive margin
DEFAULT_MARGIN = {Variant.COSFACE: 0.35}
FALLBACK_MARGIN = 0.5


@dataclass(frozen=True)
class EvalConfig:
    samples_per_class: int = 4
    n_positive_pairs: int = 500
    n_negative_pairs: int = 500
    n_distractors: int = 200
    far_targets: tuple = (0.1, 0.01)
    kfold: int = 10

    def __post_init__(self):
        if self.samples_per_class < 2:
            raise ValueError("eval.samples_per_class must be >= 2")
        if self.kfold < 2:
            raise ValueError("eval.kfold must be >= 2")
        if any(not 0 < f <= 1 for f in self.far_targets):
            raise ValueError("far targets must lie in (0, 1]")
        keys = [f"{f:g}" for f in self.far_targets]
        if len(set(keys)) != len(keys):
            raise ValueError(f"eval.far_targets repeats a target: {','.join(keys)}")


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_str(text):
    return text


def _parse_int_list(text):
    return tuple(int(v.strip(), 0) for v in text.split(",") if v.strip())


def _parse_float_list(text):
    return tuple(_parse_float(v) for v in text.split(",") if v.strip())


def _parse_variant(text):
    try:
        return Variant(text.strip().lower())
    except ValueError:
        names = ", ".join(v.value for v in Variant)
        raise ValueError(f"unknown variant {text!r}; choose one of: {names}")


#: key -> (parser, default). ``None`` defaults are resolved after parsing.
SCHEMA = {
    "seed": (_parse_int, 0),
    "output_dir": (_parse_str, "runs/experiment"),
    "dataset.n_classes": (_parse_int, 200),
    "dataset.samples_per_class": (_parse_int, 20),
    "dataset.input_dim": (_parse_int, 32),
    "dataset.concentration": (_parse_float, 16.0),
    "dataset.crowding": (_parse_float, 0.0),
    "dataset.min_center_cosine": (_parse_float, 0.8),
    "dataset.seed": (_parse_int, None),
    "model.layer_widths": (_parse_int_list, None),
    "model.activation": (_parse_str, "relu"),
    "model.init_scale": (_parse_float, 1.0),
    "model.seed": (_parse_int, None),
    "loss.variant": (_parse_variant, Variant.NPCFACE),
    "loss.s": (_parse_float, 64.0),
    "loss.m": (_parse_float, None),
    "loss.t": (_parse_float, 1.1),
    "loss.alpha": (_parse_float, 0.25),
    "loss.m0": (_parse_float, 0.4),
    "loss.m1": (_parse_float, 0.2),
    "loss.mv_positive": (_parse_str, "arc"),
    "schedule.total_epochs": (_parse_int, 30),
    "schedule.lr_initial": (_parse_float, 0.1),
    "schedule.milestones": (_parse_int_list, (16, 24, 28)),
    "schedule.decay_factor": (_parse_float, 10.0),
    "schedule.batch_size": (_parse_int, 128),
    "optimizer.momentum": (_parse_float, 0.9),
    "optimizer.weight_decay": (_parse_float, 0.0005),
    "eval.samples_per_class": (_parse_int, 4),
    "eval.n_positive_pairs": (_parse_int, 500),
    "eval.n_negative_pairs": (_parse_int, 500),
    "eval.n_distractors": (_parse_int, 200),
    "eval.far_targets": (_parse_float_list, (0.1, 0.01)),
    "eval.kfold": (_parse_int, 10),
}

#: section prefix -> the dataclass its keys construct; "optimizer.*" and the
#: unprefixed keys are fields of ExperimentConfig itself
SECTIONS = {
    "dataset": SyntheticDatasetSpec,
    "model": ModelSpec,
    "loss": LossConfig,
    "schedule": TrainingSchedule,
    "eval": EvalConfig,
}

#: how ``flat_values`` writes the parsed values that are not plain scalars
_FORMATS = {
    _parse_int_list: lambda values: ",".join(str(v) for v in values),
    _parse_float_list: lambda values: ",".join(repr(v) for v in values),
    _parse_variant: lambda variant: variant.value,
}


def _split_key(key):
    """(section, field name) of a schema key; section "" is ExperimentConfig."""
    section, _, name = key.rpartition(".")
    return (section if section in SECTIONS else ""), name


@dataclass
class ExperimentConfig:
    """Everything one run needs, plus the raw text it was parsed from."""

    dataset: SyntheticDatasetSpec
    model: ModelSpec
    loss: LossConfig
    schedule: TrainingSchedule
    eval: EvalConfig
    seed: int = 0
    output_dir: str = "runs/experiment"
    momentum: float = 0.9
    weight_decay: float = 0.0005
    raw_text: str = ""
    #: the schema values set explicitly; every other key is a default or derived
    values: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return self.dataset.n_classes

    @property
    def classifier_seed(self) -> int:
        return derive_seed(self.seed, "classifier")

    @property
    def shuffle_seed(self) -> int:
        return derive_seed(self.seed, "shuffle")

    @property
    def pairs_seed(self) -> int:
        return derive_seed(self.seed, "pairs")

    @property
    def folds_seed(self) -> int:
        return derive_seed(self.seed, "folds")

    @property
    def eval_seed(self) -> int:
        return derive_seed(self.seed, "eval")

    def flat_values(self) -> dict:
        """Effective values for every schema key, in schema order."""
        flat = {}
        for key, (parser, _) in SCHEMA.items():
            section, name = _split_key(key)
            value = getattr(getattr(self, section) if section else self, name)
            flat[key] = _FORMATS[parser](value) if parser in _FORMATS else value
        return flat

    def override(self, values: dict) -> "ExperimentConfig":
        """This config with ``values`` set as if written in its file: the
        sub-seeds and the margin are still derived unless set."""
        return build_config({**self.values, **values}, raw_text=self.raw_text)


def parse_values(text: str) -> dict:
    """Schema values set in flat config text; raises ConfigParseError with line context."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"line {lineno}: expected 'key = value', got {raw!r}", line=lineno
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}", line=lineno, field=key)
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}", line=lineno, field=key)
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: key {key!r}: {exc}", line=lineno, field=key)
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    return build_config(parse_values(text), raw_text=text)


def build_config(values: dict, raw_text: str = "") -> ExperimentConfig:
    """Assemble an ExperimentConfig from the explicitly set values and defaults."""
    flat = {key: values.get(key, default) for key, (_, default) in SCHEMA.items()}
    # the keys whose defaults depend on other keys
    if flat["loss.m"] is None:
        flat["loss.m"] = DEFAULT_MARGIN.get(flat["loss.variant"], FALLBACK_MARGIN)
    if flat["model.layer_widths"] is None:
        flat["model.layer_widths"] = (flat["dataset.input_dim"], 32, 16)
    if "schedule.milestones" not in values:
        flat["schedule.milestones"] = tuple(
            m for m in flat["schedule.milestones"] if m < flat["schedule.total_epochs"])
    for section in ("dataset", "model"):
        if f"{section}.seed" not in values:
            flat[f"{section}.seed"] = derive_seed(flat["seed"], section)

    fields = {section: {} for section in ("", *SECTIONS)}
    for key, value in flat.items():
        section, name = _split_key(key)
        fields[section][name] = value
    try:
        parts = {section: cls(**fields[section]) for section, cls in SECTIONS.items()}
        OptimizerState(flat["schedule.lr_initial"], flat["optimizer.momentum"],
                       flat["optimizer.weight_decay"])
    except ValueError as exc:
        raise ConfigParseError(str(exc))

    model, dataset = parts["model"], parts["dataset"]
    if model.input_dim != dataset.input_dim:
        raise ConfigParseError(
            f"model.layer_widths starts at {model.input_dim} but dataset.input_dim "
            f"is {dataset.input_dim}", field="model.layer_widths",
        )
    return ExperimentConfig(**parts, **fields[""], raw_text=raw_text, values=dict(values))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}")
    return parse_config_text(text)


def variant_values(token: str) -> dict:
    """The ``loss.*`` values a compare/gradcheck token sets.

    Grammar: ``variant[:key=value[;key=value...]]`` where keys are the
    ``loss.*`` schema keys other than ``variant``, parsed as in a config
    file, e.g. ``npcface:t=1;alpha=0;m1=0``.
    """
    name, _, override_text = token.partition(":")
    texts = {"loss.variant": name}
    for item in filter(str.strip, override_text.split(";")):
        key, eq, value = item.partition("=")
        key = f"loss.{key.strip()}"
        if not eq or key == "loss.variant" or key not in SCHEMA:
            raise ConfigParseError(f"variant token {token!r}: bad override {item!r}", field=key)
        texts[key] = value
    try:
        return {key: SCHEMA[key][0](text.strip()) for key, text in texts.items()}
    except ValueError as exc:
        raise ConfigParseError(f"variant token {token!r}: {exc}")
