"""Flat key-value experiment configs.

The format is deliberately diff-friendly: one ``section.key = value`` per
line, ``#`` comments, no nesting. Unknown keys are hard errors. The raw file
text is carried through every report so runs can be reproduced from their
artifacts alone.
"""

import math
from dataclasses import dataclass, fields

from .data import SyntheticDatasetSpec
from .errors import ConfigParseError
from .losses import LossConfig, Variant
from .model import ModelSpec
from .optim import OptimizerState, TrainingSchedule
from .seeds import derive_seed

SCHEMA_VERSION = "1"

# variant-specific conventional defaults for the fixed positive margin; the
# other variants take LossConfig.m's default
DEFAULT_MARGIN = {Variant.COSFACE: 0.35}


@dataclass(frozen=True)
class EvalConfig:
    samples_per_class: int = 4
    n_positive_pairs: int = 500
    n_negative_pairs: int = 500
    n_distractors: int = 200
    far_targets: tuple[float, ...] = (0.1, 0.01)
    kfold: int = 10

    def __post_init__(self):
        if self.samples_per_class < 2:
            raise ValueError("eval.samples_per_class must be >= 2")
        if self.n_positive_pairs < 1 or self.n_negative_pairs < 1:
            raise ValueError("eval.n_positive_pairs and eval.n_negative_pairs must be >= 1")
        if self.n_distractors < 0:
            raise ValueError("eval.n_distractors must be >= 0")
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


def _parse_tuple(parse):
    """Parser of a comma list whose items ``parse`` reads."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _parse_variant(text):
    try:
        return Variant(text.strip().lower())
    except ValueError:
        names = ", ".join(v.value for v in Variant)
        raise ValueError(f"unknown variant {text!r}; choose one of: {names}")


#: field annotation -> parser of a config value
_PARSERS = {int: _parse_int, float: _parse_float, str: str, Variant: _parse_variant,
            tuple[int, ...]: _parse_tuple(_parse_int),
            tuple[float, ...]: _parse_tuple(_parse_float)}


def _format(value):
    """A parsed value as a config line writes it."""
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return value.value if isinstance(value, Variant) else value


#: section prefix -> the dataclass its keys construct; "optimizer.*" and the
#: unprefixed keys are fields of ExperimentConfig itself
SECTIONS = {
    "dataset": SyntheticDatasetSpec,
    "model": ModelSpec,
    "loss": LossConfig,
    "schedule": TrainingSchedule,
    "eval": EvalConfig,
}


def _split_key(key):
    """(section, field name) of a schema key; section "" is ExperimentConfig."""
    section, _, name = key.rpartition(".")
    return (section if section in SECTIONS else ""), name


@dataclass
class ExperimentConfig:
    """Everything one run needs, plus the raw text it was parsed from; only
    ``build_config`` makes one. Declares the ``seed`` and ``output_dir`` keys."""

    dataset: SyntheticDatasetSpec
    model: ModelSpec
    loss: LossConfig
    schedule: TrainingSchedule
    eval: EvalConfig
    momentum: float
    weight_decay: float
    raw_text: str
    #: the schema values set explicitly; every other key is a default or derived
    values: dict
    seed: int = 0
    output_dir: str = "runs/experiment"

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
        for key in SCHEMA:
            section, name = _split_key(key)
            flat[key] = _format(getattr(getattr(self, section) if section else self, name))
        return flat

    def override(self, values: dict) -> "ExperimentConfig":
        """This config with ``values`` set as if written in its file: the
        sub-seeds and the margin are still derived unless set."""
        return build_config({**self.values, **values}, raw_text=self.raw_text)


def _keys(prefix, cls, names=None):
    """Schema entries for the fields of ``cls`` (those in ``names``, or all)."""
    return {prefix + f.name: (_PARSERS[f.type], f.default)
            for f in fields(cls) if names is None or f.name in names}


#: key -> (parser, default), both from the dataclass field the key sets
#: (its annotation and its default); a key in ``_DERIVED`` is derived instead
SCHEMA = {
    **_keys("", ExperimentConfig, ("seed", "output_dir")),
    **_keys("dataset.", SyntheticDatasetSpec),
    **_keys("model.", ModelSpec),
    **_keys("loss.", LossConfig),
    **_keys("schedule.", TrainingSchedule),
    **_keys("optimizer.", OptimizerState, ("momentum", "weight_decay")),
    **_keys("eval.", EvalConfig),
}

#: the keys that, unless set, follow from other keys; a rule reads the set
#: values and the defaults, its own key's included
_DERIVED = {
    "dataset.seed": lambda flat: derive_seed(flat["seed"], "dataset"),
    "model.seed": lambda flat: derive_seed(flat["seed"], "model"),
    "model.layer_widths": lambda flat: (flat["dataset.input_dim"], 32, 16),
    "loss.m": lambda flat: DEFAULT_MARGIN.get(flat["loss.variant"], flat["loss.m"]),
    "schedule.milestones": lambda flat: tuple(
        m for m in flat["schedule.milestones"] if m < flat["schedule.total_epochs"]),
}


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
    flat.update({key: derive(flat) for key, derive in _DERIVED.items() if key not in values})

    kwargs = {section: {} for section in ("", *SECTIONS)}
    for key, value in flat.items():
        section, name = _split_key(key)
        kwargs[section][name] = value
    try:
        parts = {section: cls(**kwargs[section]) for section, cls in SECTIONS.items()}
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
    return ExperimentConfig(**parts, **kwargs[""], raw_text=raw_text, values=dict(values))


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
