import concurrent.futures
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from marginlab import cli, errors, reports
from marginlab.cli import main
from marginlab.config import load_config
from marginlab.errors import (
    ConfigMismatch,
    ConfigParseError,
    DimensionMismatch,
    InfeasibleCrowding,
    InsufficientData,
    ZeroNorm,
)
from marginlab.losses import PROB_FLOOR
from marginlab.reports import load_checkpoint, write_compare_csv, write_dimstudy_csv
from marginlab.train import train

SMALL_CONFIG = """
seed = 3
dataset.n_classes = 8
dataset.samples_per_class = 10
dataset.input_dim = 10
dataset.concentration = 96
model.layer_widths = 10,8,6
loss.variant = npcface
loss.s = 16
loss.m0 = 0.15
loss.m1 = 0.1
loss.t = 1.05
loss.alpha = 0.1
schedule.total_epochs = 6
schedule.milestones = 4
schedule.batch_size = 20
eval.samples_per_class = 4
eval.n_positive_pairs = 30
eval.n_negative_pairs = 60
eval.n_distractors = 10
eval.far_targets = 0.2,0.05
eval.kfold = 5
"""


# the two headers as README documents them
DIAGNOSTICS_HEADER = ("epoch,mean_loss,lr,train_accuracy,n_misclassified,pearson_r,"
                      "mean_pos_distance,mean_neg_distance,overlap_rate")
COMPARE_HEADER = ("variant,tar_at_far_<target>...,rank1_accuracy,pair_accuracy,"
                  "final_mean_loss,train_accuracy,pearson_r,overlap_rate")

# at --seed 3, epoch 11 ends with exactly one of the 200 training rows
# mis-classified, so its correlation is undefined
ONE_MISCLASSIFIED_CONFIG = """
dataset.n_classes = 20
dataset.samples_per_class = 10
dataset.input_dim = 10
dataset.concentration = 400
model.layer_widths = 10,16,8
loss.variant = arcface
loss.s = 16
loss.m = 0.2
loss.m0 = 0
schedule.total_epochs = 20
schedule.milestones = 12,16
schedule.batch_size = 20
eval.n_positive_pairs = 100
eval.n_negative_pairs = 100
eval.n_distractors = 0
"""

# the acceptance correlation task at 200 classes and 10 epochs
CORR200_CONFIG = """
seed = 0
dataset.n_classes = 200
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
schedule.total_epochs = 10
schedule.milestones = 7,9
"""


def test_readme_documents_the_headers():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert f"`{DIAGNOSTICS_HEADER}`" in readme
    assert f"`{COMPARE_HEADER}`" in readme


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return str(path)


def small_config_with(tmp_path, *lines):
    """Path of SMALL_CONFIG with ``lines`` in place of its lines of the same keys."""
    keys = {line.split(" ")[0] for line in lines}
    kept = [row for row in SMALL_CONFIG.splitlines() if row.split(" ")[0] not in keys]
    path = tmp_path / "changed.cfg"
    path.write_text("\n".join(kept + list(lines)) + "\n", encoding="utf-8")
    return str(path)


# the keys every summary starts with, as README's Artifacts section lists them
SUMMARY_HEADER = ("schema_version", "package_version", "command", "seed", "config_echo",
                  "config_effective")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestTrainCommand:
    def test_artifacts_exist_and_are_consistent(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        for name in ("checkpoint.txt", "loss.csv", "diagnostics.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))

        loss_lines = read(os.path.join(out, "loss.csv")).decode().splitlines()
        assert loss_lines[0] == "iteration,epoch,loss"
        # 80 samples / batch 20 = 4 iterations x 6 epochs
        assert len(loss_lines) - 1 == 24
        diag_lines = read(os.path.join(out, "diagnostics.csv")).decode().splitlines()
        assert diag_lines[0] == DIAGNOSTICS_HEADER

        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert list(summary) == [*SUMMARY_HEADER, "diverged", "iterations", "final_metrics",
                                 "epochs", "elapsed_seconds"]
        assert summary["config_echo"] == SMALL_CONFIG
        assert summary["diverged"] is False
        assert "0.05" in summary["final_metrics"]["tar_at_far"]
        assert len(summary["epochs"]) == 6
        for row in summary["epochs"]:
            assert list(row) == [*DIAGNOSTICS_HEADER.split(","), "hardness_note", "overlap_note"]
        # every sample is mis-classified after epoch 1, so the overlap is
        # undefined there and the row says why
        for row in summary["epochs"][1:]:
            assert row["overlap_rate"] is None
            assert row["overlap_note"].startswith("no well-classified rows")
        assert summary["epochs"][0]["overlap_note"] is None

    def test_n_misclassified_counted_when_the_correlation_is_undefined(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text(ONE_MISCLASSIFIED_CONFIG, encoding="utf-8")
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(path), "--out", out, "--seed", "3"]) == 0
        rows = read_json(os.path.join(out, "summary.json"))["epochs"]
        assert rows[10]["hardness_note"] == "need >= 2 mis-classified samples, got 1"
        assert rows[10]["n_misclassified"] == 1
        # with m0 = 0 a row is hard iff it is mis-classified
        for row in rows:
            assert row["n_misclassified"] == round(200 * (1 - row["train_accuracy"]))
        cells = read(os.path.join(out, "diagnostics.csv")).decode().splitlines()[11].split(",")
        assert cells[:5] == ["11", repr(rows[10]["mean_loss"]), "0.1", "0.995", "1"]

    def test_no_distractors(self, config_path, tmp_path):
        # distractors only join the identification gallery, so without them
        # rank-1 can only rise and every other artifact stays the same
        path = tmp_path / "none.cfg"
        path.write_text(SMALL_CONFIG.replace("eval.n_distractors = 10", "eval.n_distractors = 0"),
                        encoding="utf-8")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", config_path, "--out", out_a]) == 0
        assert main(["train", "--config", str(path), "--out", out_b]) == 0
        for name in ("loss.csv", "diagnostics.csv"):
            assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))
        with_them = read_json(os.path.join(out_a, "summary.json"))["final_metrics"]
        without = read_json(os.path.join(out_b, "summary.json"))["final_metrics"]
        assert without.pop("rank1_accuracy") >= with_them.pop("rank1_accuracy")
        assert without == with_them

    def test_checkpoint_roundtrip(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        experiment, model, class_weights, epochs = load_checkpoint(
            os.path.join(out, "checkpoint.txt"))
        assert epochs == 6
        assert experiment.raw_text == SMALL_CONFIG
        assert class_weights.shape == (8, 6)
        emb, _ = model.forward(np.zeros((2, 10)))
        assert emb.shape == (2, 6)

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", "--config", config_path, "--out", out_a])
        main(["train", "--config", config_path, "--out", out_b])
        for name in ("loss.csv", "diagnostics.csv", "checkpoint.txt"):
            assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))

    def test_seed_override_changes_results(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", "--config", config_path, "--out", out_a])
        main(["train", "--config", config_path, "--out", out_b, "--seed", "11"])
        assert read(os.path.join(out_a, "loss.csv")) != read(os.path.join(out_b, "loss.csv"))

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("loss.nonsense = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "loss.s = nan", "dataset.concentration = nan", "schedule.lr_initial = nan",
        "optimizer.momentum = 1.5", "optimizer.momentum = nan", "optimizer.weight_decay = -1",
        "eval.n_positive_pairs = 0", "eval.n_negative_pairs = 0", "eval.n_distractors = -3",
        "dataset.min_center_cosine = 2", "dataset.min_center_cosine = -1.5",
    ])
    def test_bad_number_exits_before_training(self, tmp_path, capsys, line):
        out = tmp_path / "run"
        assert main(["train", "--config", small_config_with(tmp_path, line),
                     "--out", str(out)]) == 2
        assert_one_line_config_error(capsys)
        assert not out.exists()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(SMALL_CONFIG.encode() + b"# caf\xe9\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert_one_line_config_error(capsys)

    def test_diverged_run_exit_code_and_partial_artifacts(self, tmp_path):
        path = tmp_path / "diverge.cfg"
        path.write_text(SMALL_CONFIG + "schedule.lr_initial = 1e154\n", encoding="utf-8")
        out = str(tmp_path / "run")
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(path), "--out", out]) == 3
        assert os.path.exists(os.path.join(out, "loss.csv"))
        summary = read_json(os.path.join(out, "summary.json"))
        assert list(summary) == [*SUMMARY_HEADER, "diverged", "iterations", "elapsed_seconds"]
        assert summary["diverged"] is True

    def test_collapsed_embeddings_exit_code_and_partial_artifacts(self, tmp_path, capsys):
        path = tmp_path / "collapse.cfg"
        path.write_text(SMALL_CONFIG + "model.init_scale = 1e-9\n", encoding="utf-8")
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(path), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "collapsed embeddings" in err
        # every hidden unit fires a little; the embeddings are merely tiny
        assert "hidden unit" not in err
        for name in ("loss.csv", "diagnostics.csv"):
            assert os.path.exists(os.path.join(out, name))
        summary = read_json(os.path.join(out, "summary.json"))
        assert list(summary) == [*SUMMARY_HEADER, "diverged", "iterations", "elapsed_seconds"]
        assert summary["diverged"] is True

    def test_first_iteration_collapse_names_the_dead_input(self, config_path, tmp_path, capsys):
        # at seed 5, training row 9 of the first batch has no positive hidden
        # pre-activation, so with zero initial biases it embeds to exact zeros
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out, "--seed", "5"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "after iteration 0 (epoch 1): row 9 has norm 0.000e+00 below eps=1.0e-12; " \
            "its input has no active hidden unit" in err
        for name in ("loss.csv", "diagnostics.csv"):
            assert os.path.exists(os.path.join(out, name))
        summary = read_json(os.path.join(out, "summary.json"))
        assert list(summary) == [*SUMMARY_HEADER, "diverged", "iterations", "elapsed_seconds"]
        assert summary["diverged"] is True


# the eval split of SMALL_CONFIG holds 8 x C(4, 2) = 48 positive pairs
@pytest.mark.parametrize("lines, message", [
    (["eval.n_positive_pairs = 100"], "requested 100 positive pairs, only 48 exist"),
    (["eval.n_positive_pairs = 2", "eval.n_negative_pairs = 2"], "4 pairs cannot fill 5 folds"),
], ids=["positives", "folds"])
@pytest.mark.parametrize("command", [["train"], ["compare", "--variants", "arcface,npcface"]],
                         ids=["train", "compare"])
def test_infeasible_eval_pairs_exit_before_training(tmp_path, capsys, command, lines, message):
    out = tmp_path / "run"
    assert main([*command, "--config", small_config_with(tmp_path, *lines),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"insufficient data: {message}\n"
    assert not out.exists()


# at dataset seed 0 and input_dim 16, rounding keeps every crowded draw's
# cosine below 1.0 (see tests/test_data.py::test_infeasible_crowding_raises)
INFEASIBLE_CROWDING = ["dataset.n_classes = 20", "dataset.input_dim = 16",
                       "model.layer_widths = 16,8,6", "dataset.crowding = 0.5",
                       "dataset.min_center_cosine = 1.0", "dataset.seed = 0"]


@pytest.mark.parametrize("command", [
    ["train"], ["compare", "--variants", "arcface,npcface"], ["dimstudy", "--dims", "4,6"],
], ids=["train", "compare", "dimstudy"])
def test_infeasible_crowding_exits_before_writing(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([*command, "--config", small_config_with(tmp_path, *INFEASIBLE_CROWDING),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: cosine >= 1.0 not reached in 1000 attempts\n"
    assert not out.exists()


def test_pre_checks_leave_numpy_ma_unimported(config_path):
    # numpy.ma holds ~1.7 MB that the CLI process, which runs only these
    # checks before its workers train, would keep for its whole run
    script = ("import argparse, sys\n"
              "from marginlab import cli\n"
              f"args = argparse.Namespace(config={config_path!r}, seed=None)\n"
              "cli._check_eval_pairs(cli._load_config(args))\n"
              "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def no_pairs_left(result, run):
    """A ``final_metrics`` stand-in that fails in the worker, after training."""
    raise InsufficientData("no pairs left")


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    return err


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def usable_cpus(request, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: request.param)


def test_unpicklable_finish_rejected_before_the_pool(monkeypatch):
    # the pool sends ``finish`` to its workers and hangs on one that does not pickle
    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(TypeError, match="^compare: finish .* cannot be sent to a worker"):
        cli._train_each("compare", [("a", None), ("b", None)], lambda result, run: 1)


class TestCompareCommand:
    def test_identical_variants_identical_rows(self, config_path, tmp_path):
        # two tokens for one config: the second spells out arcface's default margin
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", config_path, "--out", out,
                     "--variants", "arcface,arcface:m=0.5"]) == 0
        lines = read(os.path.join(out, "comparison.csv")).decode().splitlines()
        assert lines[0] == COMPARE_HEADER.replace("tar_at_far_<target>...",
                                                  "tar_at_far_0.2,tar_at_far_0.05")
        assert len(lines) == 3
        assert lines[1].split(",", 1)[1] == lines[2].split(",", 1)[1]
        assert multiprocessing.active_children() == []

    def test_rows_match_in_process_training(self, config_path, tmp_path, usable_cpus):
        tokens = ["arcface", "cosface:m=0.2", "npcface"]
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", config_path, "--out", out,
                     "--variants", ",".join(tokens)]) == 0
        experiment = load_config(config_path)
        rows = []
        for token in tokens:
            run = cli._with_token(experiment, token)
            rows.append((token, cli.final_metrics(train(run), run)))
            assert list(rows[-1][1]) == ["tar_at_far", *reports.COMPARE_METRICS]
        expected = str(tmp_path / "expected.csv")
        write_compare_csv(expected, experiment.eval.far_targets, rows)
        assert read(os.path.join(out, "comparison.csv")) == read(expected)

    def test_ablation_quartet_shape(self, config_path, tmp_path):
        out = str(tmp_path / "cmp")
        variants = "arcface:m=0.15,npcface:m1=0,npcface:t=1;alpha=0,npcface"
        assert main(["compare", "--config", config_path, "--out", out,
                     "--variants", variants]) == 0
        lines = read(os.path.join(out, "comparison.csv")).decode().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(lines[0].split(","))
            assert all(cell not in ("", "nan") for cell in cells[:5])

    def test_diverged_variant_keeps_finished_rows(self, config_path, tmp_path, capsys):
        # a variant token cannot set the learning rate; an absurd scale s
        # overflows the parameters the same way
        out = str(tmp_path / "cmp")
        with np.errstate(all="ignore"):
            assert main(["compare", "--config", config_path, "--out", out,
                         "--variants", "cosface,norm_softmax:s=1e300,arcface"]) == 3
        assert "norm_softmax:s=1e300" in capsys.readouterr().err
        lines = read(os.path.join(out, "comparison.csv")).decode().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["cosface", "arcface"]
        with open(os.path.join(out, "compare_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert list(summary) == [*SUMMARY_HEADER, "variants", "diverged", "elapsed_seconds"]
        assert summary["diverged"] == ["norm_softmax:s=1e300"]
        assert list(summary["variants"]) == ["cosface", "arcface"]
        assert multiprocessing.active_children() == []

    def test_saturated_scale_reports_the_floored_loss(self, config_path, tmp_path):
        # at s = 1e154 every logit row saturates: p_y underflows and each row
        # loss is capped at -log(PROB_FLOOR); the run still finishes
        out = str(tmp_path / "cmp")
        with np.errstate(all="ignore"):
            assert main(["compare", "--config", config_path, "--out", out,
                         "--variants", "cosface,arcface:s=1e154,arcface"]) == 0
        summary = read_json(os.path.join(out, "compare_summary.json"))
        assert list(summary["variants"]) == ["cosface", "arcface:s=1e154", "arcface"]
        floored = summary["variants"]["arcface:s=1e154"]["final_mean_loss"]
        # equal up to the rounding of the per-epoch mean over iterations
        assert floored == pytest.approx(-math.log(PROB_FLOOR), rel=1e-15)

    def test_insufficient_data_in_a_worker_exit_code(self, config_path, tmp_path, capsys,
                                                     monkeypatch):
        # compare checks the pair counts before it trains, so the workers' error is injected
        monkeypatch.setattr(cli, "final_metrics", no_pairs_left)
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "cmp"),
                     "--variants", "arcface,cosface,npcface"]) == 4
        err = capsys.readouterr().err
        assert err == "insufficient data: no pairs left\n"
        assert multiprocessing.active_children() == []

    def test_alpha_sweep_rows(self, config_path, tmp_path):
        out = str(tmp_path / "sweep")
        variants = ",".join(f"npcface:alpha={a}" for a in (0.0, 0.1, 0.2))
        assert main(["compare", "--config", config_path, "--out", out,
                     "--variants", variants]) == 0
        lines = read(os.path.join(out, "comparison.csv")).decode().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == [
            "npcface:alpha=0.0", "npcface:alpha=0.1", "npcface:alpha=0.2"]

    def test_single_variant_rejected(self, config_path, tmp_path):
        assert main(["compare", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--variants", "npcface"]) == 2

    def test_non_numeric_override_rejected(self, config_path, tmp_path, capsys):
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "x"),
                     "--variants", "arcface,npcface:t=abc"]) == 2
        assert_one_line_config_error(capsys)
        assert not (tmp_path / "x").exists()    # rejected before arcface trains

    def test_repeated_token_rejected_before_training(self, config_path, tmp_path, capsys):
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "x"),
                     "--variants", "npcface,arcface,npcface"]) == 2
        err = assert_one_line_config_error(capsys)
        assert err == "config error: --variants repeats a token: npcface,arcface,npcface\n"
        assert not (tmp_path / "x").exists()

    def test_invalid_later_token_rejected_before_training(self, config_path, tmp_path, capsys):
        assert main(["compare", "--config", config_path, "--out", str(tmp_path / "x"),
                     "--variants", "arcface,cosface:m=4"]) == 2
        err = assert_one_line_config_error(capsys)
        assert err.startswith("config error: variant token 'cosface:m=4': ")
        assert not (tmp_path / "x").exists()


# the hardness statistics and notes of a diagnostics row, in analyze_summary.json order
STATISTIC_KEYS = ("n_misclassified", "pearson_r", "mean_pos_distance", "mean_neg_distance",
                  "overlap_rate", "hardness_note", "overlap_note")


class TestAnalyzeCommand:
    def test_reports_written(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        an = str(tmp_path / "an")
        capsys.readouterr()
        # every one of the 80 training rows (8 classes x 10 samples) is hard at
        # m0 = 0.15, so the overlap is undefined; the correlation is still written
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                     "--out", an]) == 4
        assert capsys.readouterr().err == (
            "insufficient data: no well-classified rows among the 80 scanned\n")
        corr = read(os.path.join(an, "correlation.csv")).decode().splitlines()
        assert corr[0] == "epoch,pearson_r,n_misclassified"
        last = read_json(os.path.join(out, "summary.json"))["epochs"][-1]
        assert corr[1] == f"6,{last['pearson_r']!r},80"
        assert not os.path.exists(os.path.join(an, "histogram.csv"))
        summary = read_json(os.path.join(an, "analyze_summary.json"))
        assert list(summary) == [*SUMMARY_HEADER, "epochs_trained", "m0", *STATISTIC_KEYS]
        assert summary["overlap_note"] == "no well-classified rows among the 80 scanned"

        # at m0 = 0 some rows are well classified and every statistic is defined
        an0 = str(tmp_path / "an0")
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                     "--out", an0, "--m0", "0"]) == 0
        corr = read(os.path.join(an0, "correlation.csv")).decode().splitlines()
        assert corr[1].split(",")[0] == "6"
        hist = read(os.path.join(an0, "histogram.csv")).decode().splitlines()
        assert hist[0] == "bin_left,bin_right,h_mis,h_well"
        assert len(hist) == 51

    def test_reproduces_the_last_diagnostics_row(self, tmp_path):
        path = tmp_path / "corr.cfg"
        path.write_text(CORR200_CONFIG, encoding="utf-8")
        out, an = str(tmp_path / "run"), str(tmp_path / "an")
        assert main(["train", "--config", str(path), "--out", out]) == 0
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                     "--out", an]) == 0
        last = read_json(os.path.join(out, "summary.json"))["epochs"][-1]
        analyzed = read_json(os.path.join(an, "analyze_summary.json"))
        for key in STATISTIC_KEYS:
            assert analyzed[key] == last[key], key

    def test_reproduces_a_row_whose_statistics_are_undefined(self, tmp_path, capsys):
        # at --seed 3 the last epoch leaves no training row mis-classified
        path = tmp_path / "one.cfg"
        path.write_text(ONE_MISCLASSIFIED_CONFIG, encoding="utf-8")
        out, an = str(tmp_path / "run"), str(tmp_path / "an")
        assert main(["train", "--config", str(path), "--out", out, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                     "--out", an]) == 4
        assert capsys.readouterr().err == (
            "insufficient data: need >= 2 mis-classified samples, got 0\n")
        assert read(os.path.join(an, "correlation.csv")) == (
            b"epoch,pearson_r,n_misclassified\n20,,0\n")
        assert not os.path.exists(os.path.join(an, "histogram.csv"))
        last = read_json(os.path.join(out, "summary.json"))["epochs"][-1]
        analyzed = read_json(os.path.join(an, "analyze_summary.json"))
        for key in STATISTIC_KEYS:
            assert analyzed[key] == last[key], key
        assert analyzed["hardness_note"] == "need >= 2 mis-classified samples, got 0"
        assert analyzed["overlap_note"] == "no mis-classified rows among the 200 scanned"

    def test_m0_override(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        results = {}
        for m0, code in (("0.0", 0), ("0.6", 4)):
            an = str(tmp_path / f"an{m0}")
            assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                         "--out", an, "--m0", m0]) == code
            summary = read_json(os.path.join(an, "analyze_summary.json"))
            assert summary["m0"] == float(m0)
            results[m0] = summary["n_misclassified"]
        assert results == {"0.0": 60, "0.6": 80}
        # a wider mask margin can only mark more rows as hard
        assert results["0.6"] >= results["0.0"]

    @pytest.mark.parametrize("m0", ["-0.5", "nan", "inf", "4"])
    def test_m0_outside_its_range_rejected(self, tmp_path, capsys, m0):
        # rejected before the checkpoint is read or the output dir is made
        an = tmp_path / "an"
        assert main(["analyze", "--checkpoint", str(tmp_path / "none.txt"),
                     "--out", str(an), "--m0", m0]) == 2
        assert "--m0 must lie in [0, pi)" in assert_one_line_config_error(capsys)
        assert not an.exists()

    def test_single_bin_rejected(self, tmp_path, capsys):
        # rejected before the checkpoint is read
        assert main(["analyze", "--checkpoint", str(tmp_path / "none.txt"),
                     "--bins", "1"]) == 2
        assert_one_line_config_error(capsys)

    def test_truncated_checkpoint_rejected(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        data = read(os.path.join(out, "checkpoint.txt"))
        cut_path = str(tmp_path / "cut.txt")
        # inside the header, the config echo, the field lines, a tensor
        # header, a tensor row, and just before "end"
        for cut in (30, 60, len(data) // 8, len(data) // 3, len(data) // 2,
                    len(data) - 40, len(data) - 4):
            with open(cut_path, "wb") as fh:
                fh.write(data[:cut])
            with pytest.raises(ConfigParseError):
                load_checkpoint(cut_path)
            capsys.readouterr()
            assert main(["analyze", "--checkpoint", cut_path,
                         "--out", str(tmp_path / "an")]) == 2
            assert_one_line_config_error(capsys)

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_unreadable_checkpoint_rejected(self, tmp_path, capsys, kind):
        path = tmp_path / "checkpoint.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"marginlab-checkpoint \xff\n")
        with pytest.raises(ConfigParseError, match="cannot read checkpoint"):
            load_checkpoint(str(path))
        assert main(["analyze", "--checkpoint", str(path), "--out", str(tmp_path / "an")]) == 2
        assert_one_line_config_error(capsys)

    def test_misshaped_tensor_rejected(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        text = read(os.path.join(out, "checkpoint.txt")).decode()
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w", encoding="utf-8") as fh:
            # the embedded config now implies 9 classifier rows; the tensor has 8
            fh.write(text.replace("dataset.n_classes = 8", "dataset.n_classes = 9"))
        with pytest.raises(ConfigParseError, match="class_weights"):
            load_checkpoint(bad)

    def test_seed_override_is_kept_in_the_checkpoint(self, config_path, tmp_path):
        # SMALL_CONFIG pins neither dataset.seed nor model.seed, so both
        # follow --seed
        out, an = str(tmp_path / "run"), str(tmp_path / "an")
        assert main(["train", "--config", config_path, "--out", out, "--seed", "11"]) == 0
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                     "--out", an]) == 0
        trained = read_json(os.path.join(out, "summary.json"))["config_effective"]
        analyzed = read_json(os.path.join(an, "analyze_summary.json"))["config_effective"]
        assert trained["seed"] == 11
        assert analyzed == trained

    def test_more_classes_than_the_checkpoint_rejected(self, config_path, tmp_path, capsys):
        # with a dataset that does not fit the checkpoint, or crowding no draw
        # meets, analyze exits 2 before anything is written
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        for lines, message in [
            (["dataset.n_classes = 30"],
             "config error: dataset n_classes 30 exceeds the checkpoint's 8 classifier rows"),
            (["dataset.input_dim = 12", "model.layer_widths = 12,8,6"],
             "config error: dataset input_dim 12 does not fit the checkpoint model (10)"),
            (["dataset.crowding = 0.5", "dataset.min_center_cosine = 1.0", "dataset.seed = 7"],
             "error: cosine >= 1.0 not reached in 1000 attempts"),
        ]:
            capsys.readouterr()
            an = tmp_path / "an"
            assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint.txt"),
                         "--config", small_config_with(tmp_path, *lines), "--out", str(an)]) == 2
            assert capsys.readouterr().err == message + "\n"
            assert not an.exists()


class TestGradcheckCommand:
    def test_every_variant_passes(self, capsys):
        for variant in ("norm_softmax", "cosface", "arcface", "mv_softmax", "npcface"):
            assert main(["gradcheck", "--variant", variant,
                         "--shape", "n=4,c=8,d=6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corrupted_gradient_fails(self):
        assert main(["gradcheck", "--variant", "arcface", "--seed", "1",
                     "--corrupt"]) == 5

    def test_repeated_seeds_identical(self, capsys):
        main(["gradcheck", "--variant", "npcface", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gradcheck", "--variant", "npcface", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_unknown_variant_rejected(self):
        assert main(["gradcheck", "--variant", "sphereface"]) == 2

    def test_non_numeric_override_rejected(self, capsys):
        assert main(["gradcheck", "--variant", "npcface:t=abc"]) == 2
        assert_one_line_config_error(capsys)

    def test_invalid_override_names_the_token(self, capsys):
        assert main(["gradcheck", "--variant", "cosface:m=4"]) == 2
        err = assert_one_line_config_error(capsys)
        assert err.startswith("config error: variant token 'cosface:m=4': ")

    def test_non_numeric_shape_rejected(self, capsys):
        assert main(["gradcheck", "--variant", "npcface", "--shape", "n=x"]) == 2
        assert_one_line_config_error(capsys)

    @pytest.mark.parametrize("shape", ["n=0", "c=1", "d=1"])
    def test_empty_shape_rejected(self, capsys, shape):
        # an empty batch has a NaN loss, and one class or a 1-d embedding
        # gives exactly zero gradients; none may pass vacuously
        assert main(["gradcheck", "--variant", "npcface", "--shape", shape]) == 2
        assert_one_line_config_error(capsys)

    @pytest.mark.parametrize("flag", ["--scale", "--threshold"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_not_positive_and_finite_rejected(self, capsys, flag, value):
        assert main(["gradcheck", "--variant", "npcface", flag, value]) == 2
        assert_one_line_config_error(capsys)

    def test_bad_scale_rejected_when_the_token_sets_s(self, capsys):
        assert main(["gradcheck", "--variant", "npcface:s=9", "--scale", "-1"]) == 2
        assert_one_line_config_error(capsys)

    def test_token_scale_wins_over_the_flag(self, capsys):
        main(["gradcheck", "--variant", "arcface:s=9", "--seed", "2"])
        first = capsys.readouterr().out
        main(["gradcheck", "--variant", "arcface:s=9", "--seed", "2", "--scale", "30"])
        assert capsys.readouterr().out == first
        main(["gradcheck", "--variant", "arcface", "--seed", "2", "--scale", "9"])
        assert capsys.readouterr().out == first.replace("arcface:s=9", "arcface")

    def test_out_of_range_epsilon_rejected(self, capsys):
        for epsilon in ("0", "1e-3", "nan"):
            assert main(["gradcheck", "--variant", "npcface", "--epsilon", epsilon]) == 2
            assert_one_line_config_error(capsys)


class TestDimstudyCommand:
    def test_blocks_share_bin_edges(self, config_path, tmp_path):
        out = str(tmp_path / "dim")
        code = main(["dimstudy", "--config", config_path, "--out", out,
                     "--dims", "4,6"])
        assert code in (0, 4)
        if code == 0:
            lines = read(os.path.join(out, "dimstudy.csv")).decode().splitlines()
            assert lines[0] == "dim,bin_left,bin_right,density"
            by_dim = {}
            for line in lines[1:]:
                dim, left, right, _ = line.split(",")
                by_dim.setdefault(dim, []).append((left, right))
            assert set(by_dim) == {"4", "6"}
            assert by_dim["4"] == by_dim["6"]

    def test_collapsed_width_keeps_the_finished_blocks(self, config_path, tmp_path, capsys):
        # at seed 1 the 10->8->1 net collapses in its first epoch; d=6 and d=4 train
        out = str(tmp_path / "dim")
        assert main(["dimstudy", "--config", config_path, "--out", out, "--seed", "1",
                     "--dims", "6,4,1"]) == 3
        assert "error: d=1: collapsed embeddings" in capsys.readouterr().err
        lines = read(os.path.join(out, "dimstudy.csv")).decode().splitlines()
        assert sorted({line.split(",")[0] for line in lines[1:]}) == ["4", "6"]
        summary = read_json(os.path.join(out, "dimstudy_summary.json"))
        assert list(summary) == [*SUMMARY_HEADER, "dims", "pairwise_intersection", "diverged",
                                 "undefined", "elapsed_seconds"]
        assert summary["dims"] == [6, 4, 1]
        assert summary["diverged"] == ["d=1"]
        assert summary["undefined"] == {}
        assert list(summary["pairwise_intersection"]) == ["6:4"]
        assert multiprocessing.active_children() == []

    def test_undefined_width_keeps_the_measured_blocks(self, tmp_path, capsys):
        # at --seed 3 the d=8 run ends with no mis-classified row, so its
        # nearest-negative histogram is undefined; d=4 is measured
        path = tmp_path / "one.cfg"
        path.write_text(ONE_MISCLASSIFIED_CONFIG, encoding="utf-8")
        out = str(tmp_path / "dim")
        assert main(["dimstudy", "--config", str(path), "--out", out, "--seed", "3",
                     "--dims", "4,8"]) == 4
        err = capsys.readouterr().err
        assert err == "insufficient data: d=8: no mis-classified rows among the 200 scanned\n"
        lines = read(os.path.join(out, "dimstudy.csv")).decode().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"4"}
        assert len(lines) == 51
        summary = read_json(os.path.join(out, "dimstudy_summary.json"))
        assert summary["dims"] == [4, 8]
        assert summary["diverged"] == []
        assert summary["undefined"] == {"d=8": "no mis-classified rows among the 200 scanned"}
        assert summary["pairwise_intersection"] == {}
        assert multiprocessing.active_children() == []

    def test_blocks_match_in_process_training(self, config_path, tmp_path, usable_cpus):
        out = str(tmp_path / "dim")
        assert main(["dimstudy", "--config", config_path, "--out", out,
                     "--dims", "6,5,4"]) == 0
        experiment = load_config(config_path)
        blocks = []
        for dim in (6, 5, 4):
            run = experiment.override({"model.layer_widths": (10, 8, dim)})
            block, note = cli._nearest_histogram(train(run), run)
            assert note is None
            blocks.append(block)
        expected = str(tmp_path / "expected.csv")
        write_dimstudy_csv(expected, blocks)
        assert read(os.path.join(out, "dimstudy.csv")) == read(expected)

    def test_single_dimension_rejected(self, config_path, tmp_path):
        assert main(["dimstudy", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--dims", "8"]) == 2

    def test_non_numeric_dimension_rejected(self, config_path, tmp_path, capsys):
        assert main(["dimstudy", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--dims", "4,x"]) == 2
        assert_one_line_config_error(capsys)

    def test_non_positive_dimension_rejected_before_training(self, config_path, tmp_path,
                                                             capsys):
        assert main(["dimstudy", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--dims", "4,0"]) == 2
        assert_one_line_config_error(capsys)
        assert not (tmp_path / "x").exists()    # rejected before d=4 trains

    def test_repeated_width_rejected_before_training(self, config_path, tmp_path, capsys):
        assert main(["dimstudy", "--config", config_path,
                     "--out", str(tmp_path / "x"), "--dims", "6,6"]) == 2
        err = assert_one_line_config_error(capsys)
        assert err == "config error: --dims repeats a width: 6,6\n"
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigParseError, 2, "config error: "), (InsufficientData, 4, "insufficient data: "),
    (DimensionMismatch, 2, "error: "), (ConfigMismatch, 2, "error: "),
    (ZeroNorm, 2, "error: "), (InfeasibleCrowding, 2, "error: "),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_exit_code_table(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_train", fail)
    assert main(["train", "--config", "unread.cfg"]) == code
    assert capsys.readouterr().err == f"{prefix}the message\n"


def test_every_error_class_is_raised():
    # a class no module raises is dead; MarginLabError is only the base
    source = "".join(path.read_text(encoding="utf-8")
                     for path in pathlib.Path(errors.__file__).parent.glob("*.py"))
    for name, value in vars(errors).items():
        if isinstance(value, type) and issubclass(value, errors.MarginLabError) \
                and value is not errors.MarginLabError:
            assert re.search(rf"raise {name}\(", source), name
