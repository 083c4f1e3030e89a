"""The benchmark's workloads: CLI command sequences and their output checks.

Every workload is a list of ``marginlab`` CLI invocations built from one
seed. The training tasks copy the acceptance suite's calibrated configs so
the benchmark exercises the same shapes the criteria do; they are repeated
here because the benchmark must not import the test suite.

A command's check returns an ``Outcome``: the problems found in its outputs
(any problem means the command did not produce a valid result), the
quality values it reported, and digests of its byte-stable artifacts.
"""

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

# acceptance CORRELATION_TASK at dataset.n_classes = 1000
CORR1000_CONFIG = """\
seed = 0
dataset.n_classes = 1000
dataset.samples_per_class = 12
dataset.input_dim = 16
dataset.concentration = 320
dataset.crowding = 0.8
dataset.min_center_cosine = 0.8
model.layer_widths = 16,16,8
loss.variant = npcface
loss.s = 24
loss.m0 = 0.1
loss.m1 = 0.1
loss.t = 1.05
loss.alpha = 0.1
schedule.total_epochs = 24
schedule.milestones = 14,20,22
"""

# acceptance CROWDED_TASK (criterion 8)
CROWDED_CONFIG = """\
seed = 0
dataset.n_classes = 100
dataset.samples_per_class = 12
dataset.input_dim = 24
dataset.concentration = 320
dataset.crowding = 0.8
dataset.min_center_cosine = 0.8
model.layer_widths = 24,24,12
loss.s = 24
loss.m0 = 0.1
loss.m1 = 0.1
loss.t = 1.05
loss.alpha = 0.1
schedule.total_epochs = 80
schedule.milestones = 50,65,75
schedule.lr_initial = 0.05
eval.samples_per_class = 10
eval.n_positive_pairs = 2500
eval.n_negative_pairs = 8000
eval.far_targets = 0.01
eval.n_distractors = 100
"""

# every schema key at its shipped default
DEFAULT_CONFIG = "seed = 0\n"

CROWDED_VARIANTS = "norm_softmax,arcface:m=0.1,npcface:m1=0,npcface:t=1;alpha=0,npcface"
ALL_VARIANTS = ("norm_softmax", "cosface", "arcface", "mv_softmax", "npcface")

# the CLI default shape, then the larger shape at which the norm_softmax
# check at --seed 0 exceeds the 1e-5 threshold (1.092e-05) when the
# benchmark was introduced
GRADCHECK_SHAPES = (None, "n=16,c=64,d=16,input=16,hidden=16")
GRADCHECK_SEEDS = 2   # consecutive check seeds per benchmark seed
EXIT_OK, EXIT_GRADCHECK = 0, 5

TAR_KEY = "0.01"      # TAR@FAR=1e-2, the summary key every task reports
# A rerun of the same code reproduces TAR and loss exactly. Scaling one
# gradient by (1 + 2**-52) changed the artifact digests of every training
# workload (seeds 0-4, 0-3 and 0-1) but moved no TAR by more than 0.002 and
# no final loss by more than 0.05%; these tolerances admit such ulp-level
# drift and little more.
TAR_ABS_TOL = 0.01
LOSS_REL_TOL = 0.01

_GRADCHECK_LINE = re.compile(
    r"gradcheck \S+: max relative error (\S+) at .* \[(PASS|FAIL)\]")


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    models: dict = field(default_factory=dict)    # model -> {"tar": , "loss": }
    digests: dict = field(default_factory=dict)   # artifact -> sha256
    gradcheck_err: float | None = None


@dataclass
class Command:
    argv: list
    expect_exit: int
    check: object          # (out_dir, stdout, exit_code) -> Outcome
    out_dir: str | None = None

    @property
    def allowed_exits(self):
        """Exit codes the CLI documents for a completed run of this command."""
        if self.argv[0] == "gradcheck":
            return (EXIT_OK, EXIT_GRADCHECK)
        return (EXIT_OK,)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _csv_rows(path, outcome):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        outcome.problems.append(f"{os.path.basename(path)} has no data rows")
    return rows


def _model_metrics(name, final, outcome):
    tar = final.get("tar_at_far", {}).get(TAR_KEY)
    loss = final.get("final_mean_loss")
    for key in ("rank1_accuracy", "pair_accuracy", "train_accuracy"):
        if not _finite(final.get(key)):
            outcome.problems.append(f"{name}: {key} = {final.get(key)!r}")
    if not _finite(tar) or not 0.0 <= tar <= 1.0:
        outcome.problems.append(f"{name}: tar@far=1e-2 = {tar!r}")
    if not _finite(loss):
        outcome.problems.append(f"{name}: final_mean_loss = {loss!r}")
    outcome.models[name] = {"tar": tar, "loss": loss}


def check_train(out_dir, stdout, exit_code):
    outcome = Outcome()
    try:
        loss_rows = _csv_rows(os.path.join(out_dir, "loss.csv"), outcome)
        _csv_rows(os.path.join(out_dir, "diagnostics.csv"), outcome)
        with open(os.path.join(out_dir, "checkpoint.txt"), encoding="utf-8") as fh:
            if not fh.read().endswith("\nend\n"):
                outcome.problems.append("checkpoint.txt is truncated")
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        losses = [float(row[2]) for row in loss_rows[1:]]
    except (OSError, ValueError, IndexError) as exc:
        outcome.problems.append(f"artifact unreadable: {exc}")
        return outcome
    if summary.get("diverged") or summary.get("iterations") != len(losses):
        outcome.problems.append("summary iterations do not match loss.csv")
    if not all(map(math.isfinite, losses)):
        outcome.problems.append("loss.csv holds a non-finite loss")
    _model_metrics("train", summary.get("final_metrics", {}), outcome)
    for name in ("loss.csv", "diagnostics.csv", "checkpoint.txt"):
        outcome.digests[name] = _sha256(os.path.join(out_dir, name))
    return outcome


def compare_check(tokens):
    def check(out_dir, stdout, exit_code):
        outcome = Outcome()
        try:
            rows = _csv_rows(os.path.join(out_dir, "comparison.csv"), outcome)
            with open(os.path.join(out_dir, "compare_summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            outcome.problems.append(f"artifact unreadable: {exc}")
            return outcome
        if [row[0] for row in rows[1:]] != list(tokens):
            outcome.problems.append("comparison.csv rows do not match the variants")
        variants = summary.get("variants", {})
        for token in tokens:
            _model_metrics(token, variants.get(token, {}), outcome)
        outcome.digests["comparison.csv"] = _sha256(os.path.join(out_dir, "comparison.csv"))
        return outcome
    return check


def check_gradcheck(out_dir, stdout, exit_code):
    outcome = Outcome()
    match = _GRADCHECK_LINE.search(stdout)
    if not match:
        outcome.problems.append("no gradcheck result line")
        return outcome
    err = float(match.group(1))
    if not _finite(err):
        outcome.problems.append(f"max relative error {err!r}")
    elif (match.group(2) == "PASS") != (exit_code == EXIT_OK):
        outcome.problems.append(f"verdict {match.group(2)} with exit code {exit_code}")
    outcome.gradcheck_err = err
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None

    def commands(self, seed, config_path, out_root):
        """The command sequence of one repetition for this seed."""
        if self.name == "corr1000":
            out = os.path.join(out_root, "train")
            return [Command(["train", "--config", config_path, "--out", out,
                             "--seed", str(seed)], EXIT_OK, check_train, out)]
        if self.name in ("crowded_ablation", "default_variants"):
            variants = (CROWDED_VARIANTS if self.name == "crowded_ablation"
                        else ",".join(ALL_VARIANTS))
            out = os.path.join(out_root, "compare")
            return [Command(["compare", "--config", config_path, "--variants", variants,
                             "--out", out, "--seed", str(seed)],
                            EXIT_OK, compare_check(variants.split(",")), out)]
        commands = []
        for check_seed in range(seed * GRADCHECK_SEEDS, (seed + 1) * GRADCHECK_SEEDS):
            for shape in GRADCHECK_SHAPES:
                for variant in ALL_VARIANTS:
                    argv = ["gradcheck", "--variant", variant, "--seed", str(check_seed)]
                    if shape:
                        argv += ["--shape", shape]
                    commands.append(Command(argv, EXIT_OK, check_gradcheck))
        for variant in ALL_VARIANTS:
            commands.append(Command(["gradcheck", "--variant", variant, "--seed", str(seed),
                                     "--corrupt"], EXIT_GRADCHECK, check_gradcheck))
        return commands


def sequence_problems(commands, exit_codes):
    """(command index, problem) pairs for faults only a whole sequence shows.

    Central differences exceed the 1e-5 threshold on a few percent of seeds
    at either gradcheck shape (the seed-0 norm_softmax check is one), so a
    single failing check counts in ``fail_rate`` only. A wrong analytic
    gradient fails every check of its variant; when the benchmark was
    introduced, no benchmark seed from 0 to 199 did.
    """
    checks = {}
    for index, (command, code) in enumerate(zip(commands, exit_codes)):
        if command.argv[0] == "gradcheck" and command.expect_exit == EXIT_OK:
            variant = command.argv[command.argv.index("--variant") + 1]
            checks.setdefault(variant, []).append((index, code))
    return [(index, f"every gradient check of {variant} failed")
            for variant, runs in checks.items()
            if all(code != EXIT_OK for _, code in runs)
            for index, _ in runs]


WORKLOADS = {
    w.name: w for w in (
        Workload("corr1000", CORR1000_CONFIG),
        Workload("crowded_ablation", CROWDED_CONFIG),
        Workload("default_variants", DEFAULT_CONFIG),
        Workload("gradcheck", None),
    )
}


def reference_problems(outcome, reference):
    """Compare a command's quality values with the ones recorded for its seed."""
    problems = []
    for name, recorded in reference.get("models", {}).items():
        got = outcome.models.get(name)
        if got is None or not _finite(got["tar"]) or not _finite(got["loss"]):
            problems.append(f"{name}: no result to compare with the reference")
            continue
        if abs(got["tar"] - recorded["tar"]) > TAR_ABS_TOL:
            problems.append(f"{name}: tar {got['tar']:.4f} vs recorded {recorded['tar']:.4f}")
        if abs(got["loss"] - recorded["loss"]) > LOSS_REL_TOL * abs(recorded["loss"]):
            problems.append(f"{name}: loss {got['loss']:.6g} vs recorded {recorded['loss']:.6g}")
    return problems
