"""Artifact serialization: CSVs, the JSON run summary, and checkpoints.

All files are UTF-8 with '\\n' line endings and floats written as their
shortest round-trip repr, so identical runs produce byte-identical CSVs and
checkpoints. This module owns the JSON summary whole: its header, the
command's results and the elapsed wall time, the one field exempt from
byte-identity.
"""

import csv
import json
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, ExperimentConfig, build_config, parse_values
from .errors import ConfigParseError
from .model import EmbeddingNet, as_class_weights
from .train import EpochDiagnostics

CHECKPOINT_MAGIC = "marginlab-checkpoint"


def fmt(value) -> str:
    """Shortest exact decimal form of a float (empty string for None)."""
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_loss_csv(path, log) -> None:
    _write_csv(path, ["iteration", "epoch", "loss"],
               ([iteration, epoch, fmt(loss)] for iteration, epoch, loss in log.iterations))


def write_diagnostics_csv(path, log) -> None:
    """One row per ``EpochDiagnostics``: its fields before the notes."""
    columns = [f.name for f in fields(EpochDiagnostics) if not f.name.endswith("_note")]
    _write_csv(path, columns, ([
        value if isinstance(value, int) else fmt(value)
        for value in (getattr(diag, name) for name in columns)
    ] for diag in log.epochs))


def write_correlation_csv(path, rows) -> None:
    """rows: iterable of (epoch, pearson_r, n_misclassified)."""
    _write_csv(path, ["epoch", "pearson_r", "n_misclassified"],
               ([epoch, fmt(r), n] for epoch, r, n in rows))


def write_histogram_csv(path, edges, h_mis, h_well) -> None:
    _write_csv(path, ["bin_left", "bin_right", "h_mis", "h_well"],
               ([fmt(edges[i]), fmt(edges[i + 1]), fmt(h_mis[i]), fmt(h_well[i])]
                for i in range(len(h_mis))))


def write_dimstudy_csv(path, blocks) -> None:
    """blocks: iterable of (dim, edges, density) sharing identical edges."""
    _write_csv(path, ["dim", "bin_left", "bin_right", "density"],
               ([dim, fmt(edges[i]), fmt(edges[i + 1]), fmt(density[i])]
                for dim, edges, density in blocks for i in range(len(density))))


# the metric columns of comparison.csv, after the TAR ones: cli.final_metrics keys
COMPARE_METRICS = ("rank1_accuracy", "pair_accuracy", "final_mean_loss",
                   "train_accuracy", "pearson_r", "overlap_rate")


def write_compare_csv(path, far_targets, rows) -> None:
    """rows: (variant_token, metrics dict from cli.final_metrics)."""
    targets = [f"{t:g}" for t in far_targets]
    _write_csv(path, ["variant", *(f"tar_at_far_{t}" for t in targets), *COMPARE_METRICS], ([
        token,
        *(fmt(metrics["tar_at_far"][t]) for t in targets),
        *(fmt(metrics[name]) for name in COMPARE_METRICS),
    ] for token, metrics in rows))


def write_summary_json(path, experiment: ExperimentConfig, command: str, results: dict,
                       started=None) -> None:
    """Write the summary of ``command``: its header, then ``results``, then
    the seconds since ``started`` (a ``time.monotonic`` reading) when given."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "seed": experiment.seed,
        "config_echo": experiment.raw_text,
        "config_effective": experiment.flat_values(),
        **results,
    }
    if started is not None:
        payload["elapsed_seconds"] = round(time.monotonic() - started, 3)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_tensor(fh, name, array) -> None:
    array = np.asarray(array, dtype=np.float64)
    dims = " ".join(str(d) for d in array.shape)
    fh.write(f"tensor {name} {dims}\n")
    rows = array.reshape(1, -1) if array.ndim == 1 else array
    for row in rows:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_checkpoint(path, model: EmbeddingNet, class_weights, experiment: ExperimentConfig,
                    epochs_trained: int) -> None:
    """Versioned text checkpoint with the full config embedded in the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {SCHEMA_VERSION}\n")
        fh.write(f"epochs_trained {epochs_trained}\n")
        fh.write(f"config {json.dumps(experiment.raw_text)}\n")
        for key, value in experiment.flat_values().items():
            fh.write(f"field {key} = {value}\n")
        for i in range(model.n_layers):
            _write_tensor(fh, f"layer{i}.weight", model.weights[i])
            _write_tensor(fh, f"layer{i}.bias", model.biases[i])
        _write_tensor(fh, "class_weights", class_weights)
        fh.write("end\n")


def _read_tensor(header, lines):
    parts = header.split()
    name = parts[1]
    shape = tuple(int(d) for d in parts[2:])
    n_rows = 1 if len(shape) == 1 else shape[0]
    values = []
    for _ in range(n_rows):
        values.append([float(v) for v in next(lines).split()])
    array = np.array(values, dtype=np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise ConfigParseError(f"tensor {name} holds a non-finite entry")
    return name, array


def load_checkpoint(path):
    """Returns (experiment_config, model, class_weights, epochs_trained).

    The config is rebuilt from the ``field`` lines (the effective values,
    ``--seed`` included), so a checkpoint is sufficient to reproduce its run.
    An unreadable or non-UTF-8 file, a file without its ``end`` line, a
    non-finite tensor entry, or one missing or misshaping a tensor the
    config implies, raises ConfigParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = iter(fh.read().splitlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read checkpoint {path}: {exc}")
    magic = next(lines, "")
    if not magic.startswith(CHECKPOINT_MAGIC):
        raise ConfigParseError(f"{path} is not a marginlab checkpoint")
    tensors, fields = {}, []
    try:
        epochs_trained = int(next(lines).split()[1])
        raw_text = json.loads(next(lines).split(" ", 1)[1])
        for line in lines:
            if line.startswith("tensor "):
                name, array = _read_tensor(line, lines)
                tensors[name] = array
            elif line.startswith("field "):
                fields.append(line[len("field "):])
            elif line == "end":
                break
        else:
            raise ConfigParseError(f"{path} is truncated: no end line")
    except (StopIteration, IndexError, ValueError) as exc:
        raise ConfigParseError(f"{path} is truncated or malformed: {exc!r}")
    experiment = build_config(parse_values("\n".join(fields)), raw_text=raw_text)

    model = EmbeddingNet(experiment.model)
    names = [f"layer{i}.{kind}" for i in range(model.n_layers) for kind in ("weight", "bias")]
    expected = dict(zip(names, (param.shape for param in model.params)))
    expected["class_weights"] = (experiment.n_classes, model.spec.embedding_dim)
    for name, shape in expected.items():
        if name not in tensors or tensors[name].shape != shape:
            raise ConfigParseError(f"{path}: tensor {name} is missing or not of shape {shape}")
    model.set_params([tensors[name] for name in names])
    return experiment, model, as_class_weights(tensors["class_weights"]), epochs_trained
