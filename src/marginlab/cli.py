"""Experiment runner.

Subcommands: train, compare, analyze, gradcheck, dimstudy. Every run is
fully determined by its config file and seed; re-running a command with the
same inputs reproduces the CSV artifacts byte for byte.

Exit codes: 0 success, 2 config error, 3 diverged run (non-finite loss or
collapsed embeddings), 4 insufficient data, 5 gradient check failure.
"""

import argparse
import dataclasses
import math
import os
import pickle
import sys
import time

import numpy as np

from . import hardness, losses, metrics, reports
from .config import ExperimentConfig, build_config, load_config, variant_values
from .data import class_centers, evaluation_split, generate_dataset
from .errors import ConfigParseError, DivergedLoss, InsufficientData, MarginLabError
from .model import ACTIVATIONS, EmbeddingNet, ModelSpec, init_class_weights
from .seeds import named_rng
from .train import end_to_end_check, full_set_cosines, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INSUFFICIENT = 4
EXIT_GRADCHECK = 5

GRADCHECK_THRESHOLD = 1e-5
# default re-scaling 64 saturates double-precision finite differences (loss
# differences underflow); gradcheck runs at a numerically informative s
# unless its token sets its own
GRADCHECK_SCALE = 12.0


def final_metrics(result, experiment: ExperimentConfig) -> dict:
    """Verification + identification metrics on the held-out split, then
    the last epoch's; the keys are ``tar_at_far``, then ``reports.COMPARE_METRICS``."""
    ev = experiment.eval
    split = evaluation_split(experiment.dataset, ev.samples_per_class,
                             ev.n_distractors, experiment.eval_seed)
    embeddings, _ = result.model.forward(split.inputs)
    pairs = metrics.build_pairs(split.labels, ev.n_positive_pairs,
                                ev.n_negative_pairs, experiment.pairs_seed)
    scores = metrics.pair_scores(embeddings, pairs)
    curve = metrics.roc(scores, pairs.is_same)
    tars = {f"{t:g}": metrics.tar_at_far(curve, t) for t in ev.far_targets}
    pair_acc = metrics.kfold_threshold_accuracy(scores, pairs.is_same,
                                                ev.kfold, experiment.folds_seed)
    distractor_emb, _ = result.model.forward(split.distractor_inputs)
    rank1 = metrics.rank1_identification(
        embeddings[split.probe_idx], split.labels[split.probe_idx],
        embeddings[split.gallery_idx], split.labels[split.gallery_idx],
        distractor_emb,
    )

    last = result.log.epochs[-1] if result.log.epochs else None
    return {
        "tar_at_far": tars,
        "rank1_accuracy": rank1,
        "pair_accuracy": pair_acc,
        "final_mean_loss": last.mean_loss if last else None,
        "train_accuracy": last.train_accuracy if last else None,
        "pearson_r": last.pearson_r if last else None,
        "overlap_rate": last.overlap_rate if last else None,
    }


def _check_eval_pairs(experiment: ExperimentConfig) -> None:
    """Raise, before any training, the InsufficientData ``final_metrics``
    would raise after it: the eval split's labels cannot give the configured
    pairs, or the pairs cannot fill the folds."""
    ev = experiment.eval
    labels = np.repeat(np.arange(experiment.n_classes), ev.samples_per_class)
    metrics.build_pairs(labels, ev.n_positive_pairs, ev.n_negative_pairs, experiment.pairs_seed)
    metrics.check_folds(ev.n_positive_pairs + ev.n_negative_pairs, ev.kfold)


def _prepare_out_dir(experiment, out_override):
    out_dir = out_override or experiment.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigParseError(f"output dir {out_dir!r} not writable: {exc}")
    return out_dir


def _load_config(args):
    """The ``--config`` file with ``--seed``, if given, set as in the file.
    Draws the class centers once, so that crowding that cannot be met raises
    InfeasibleCrowding before anything is written."""
    experiment = load_config(args.config)
    experiment = experiment if args.seed is None else experiment.override({"seed": args.seed})
    class_centers(experiment.dataset)
    return experiment


def _with_token(experiment, token):
    """``experiment`` with the token's values set; its config errors name the token."""
    values = variant_values(token)
    try:
        return experiment.override(values)
    except ConfigParseError as exc:
        raise ConfigParseError(f"variant token {token!r}: {exc}", field=exc.field)


def _train_one(name, experiment, finish):
    """Train one run (in a worker process): ``(name, finish(result,
    experiment), None)``, or ``(name, None, message)`` if it diverged."""
    try:
        result = train(experiment)
    except DivergedLoss as exc:
        return name, None, str(exc)
    return name, finish(result, experiment), None


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _train_each(command, runs, finish):
    """Train the (name, experiment) ``runs`` in worker processes, one per
    usable CPU; a run that diverges is reported and skipped. Returns the
    [(name, finish(result, experiment))] of the finished runs and the names
    of the diverged ones, both in run order. Any other error cancels the
    runs not yet started and is raised. ``finish`` must pickle: the pool
    sends it to the workers, and hangs on one that does not."""
    try:
        pickle.dumps(finish)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise TypeError(f"{command}: finish {finish!r} cannot be sent to a worker: {exc}")
    # imported here: the process pool's modules take ~20 ms, a tenth of the CLI's import
    import concurrent.futures
    import multiprocessing

    # fork starts fastest and leaves no forkserver or resource tracker behind
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = concurrent.futures.ProcessPoolExecutor(
        min(len(runs), _usable_cpus()), mp_context=multiprocessing.get_context(method))
    finished, diverged = [], []
    try:
        futures = [pool.submit(_train_one, name, experiment, finish)
                   for name, experiment in runs]
        for future in futures:
            name, value, error = future.result()
            if error is None:
                finished.append((name, value))
                print(f"{command}: finished {name}")
            else:
                diverged.append(name)
                print(f"error: {name}: {error}", file=sys.stderr)
    finally:
        pool.shutdown(cancel_futures=True)
    return finished, diverged


def cmd_train(args) -> int:
    experiment = _load_config(args)
    _check_eval_pairs(experiment)
    out_dir = _prepare_out_dir(experiment, args.out)
    started = time.monotonic()

    diverged = False
    try:
        result = train(experiment)
        log = result.log
    except DivergedLoss as exc:
        diverged = True
        log = exc.log
        print(f"error: {exc}", file=sys.stderr)

    reports.write_loss_csv(os.path.join(out_dir, "loss.csv"), log)
    reports.write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), log)
    fields = {"diverged": diverged, "iterations": len(log.iterations)}
    if not diverged:
        reports.save_checkpoint(os.path.join(out_dir, "checkpoint.txt"),
                                result.model, result.class_weights, experiment,
                                experiment.schedule.total_epochs)
        fields["final_metrics"] = final_metrics(result, experiment)
        fields["epochs"] = [dataclasses.asdict(diag) for diag in log.epochs]
    reports.write_summary_json(os.path.join(out_dir, "summary.json"), experiment, "train",
                               fields, started)

    if diverged:
        return EXIT_DIVERGED
    print(f"train: {len(log.iterations)} iterations, artifacts in {out_dir}")
    for key, value in fields["final_metrics"]["tar_at_far"].items():
        print(f"  tar@far={key}: {value:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    experiment = _load_config(args)
    tokens = [t.strip() for t in args.variants.split(",") if t.strip()]
    if len(tokens) < 2:
        raise ConfigParseError("compare needs at least two variants")
    if len(set(tokens)) < len(tokens):
        raise ConfigParseError(f"--variants repeats a token: {','.join(tokens)}")
    variants = [(token, _with_token(experiment, token)) for token in tokens]
    _check_eval_pairs(experiment)
    out_dir = _prepare_out_dir(experiment, args.out)
    started = time.monotonic()

    rows, diverged = _train_each("compare", variants, final_metrics)

    reports.write_compare_csv(os.path.join(out_dir, "comparison.csv"),
                              experiment.eval.far_targets, rows)
    reports.write_summary_json(os.path.join(out_dir, "compare_summary.json"), experiment,
                               "compare", {"variants": dict(rows), "diverged": diverged}, started)
    if diverged:
        return EXIT_DIVERGED
    print(f"compare: table in {out_dir}/comparison.csv")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.bins < 2:
        raise ConfigParseError(f"--bins must be >= 2, got {args.bins}")
    if args.m0 is not None and not 0 <= args.m0 < math.pi:
        raise ConfigParseError(f"--m0 must lie in [0, pi), got {args.m0}")
    experiment, model, class_weights, epochs_trained = reports.load_checkpoint(args.checkpoint)
    if args.config:
        experiment = load_config(args.config)
    m0 = experiment.loss.m0 if args.m0 is None else args.m0
    if experiment.dataset.input_dim != model.spec.input_dim:
        raise ConfigParseError(
            f"dataset input_dim {experiment.dataset.input_dim} does not fit the "
            f"checkpoint model ({model.spec.input_dim})")
    if experiment.n_classes > class_weights.shape[0]:
        raise ConfigParseError(
            f"dataset n_classes {experiment.n_classes} exceeds the checkpoint's "
            f"{class_weights.shape[0]} classifier rows")
    inputs, labels = generate_dataset(experiment.dataset)
    scan = hardness.row_scan(full_set_cosines(model, class_weights, inputs), labels, m0)
    statistics, histograms = scan.statistics(args.bins)
    out_dir = _prepare_out_dir(experiment, args.out)

    reports.write_correlation_csv(
        os.path.join(out_dir, "correlation.csv"),
        [(epochs_trained, statistics["pearson_r"], statistics["n_misclassified"])],
    )
    if histograms:
        reports.write_histogram_csv(os.path.join(out_dir, "histogram.csv"), *histograms)
    reports.write_summary_json(os.path.join(out_dir, "analyze_summary.json"), experiment, "analyze",
                               {"epochs_trained": epochs_trained, "m0": m0, **statistics})
    note = statistics["hardness_note"] or statistics["overlap_note"]
    if note:
        print(f"insufficient data: {note}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    print(f"analyze: pearson_r={statistics['pearson_r']:.4f} over "
          f"{statistics['n_misclassified']} mis-classified samples, "
          f"overlap_rate={statistics['overlap_rate']:.4f}")
    return EXIT_OK


def _parse_shape(text):
    shape = {"n": 4, "c": 8, "d": 6, "input": 6, "hidden": 5}
    if text:
        for item in text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in shape:
                raise ConfigParseError(f"bad shape item {item!r}; keys: n,c,d,input,hidden")
            value = value.strip()
            least = 2 if key in ("c", "d") else 1     # one class or a 1-d embedding: zero gradients
            if not value.isdecimal() or int(value) < least:
                raise ConfigParseError(f"bad shape item {item!r}; {key} must be an integer >= {least}")
            shape[key] = int(value)
    return shape


def gradcheck_instance(token, shape_text, seed, activation, scale=GRADCHECK_SCALE):
    """The instance ``gradcheck`` checks: (model, class weights, inputs,
    labels, loss config). A bad token is reported before a bad shape."""
    config = _with_token(build_config({"loss.s": scale}), token).loss
    shape = _parse_shape(shape_text)
    spec = ModelSpec(layer_widths=(shape["input"], shape["hidden"], shape["d"]),
                     activation=activation, seed=seed)
    rng = named_rng(seed, "gradcheck")
    inputs = rng.standard_normal((shape["n"], shape["input"]))
    labels = rng.integers(0, shape["c"], size=shape["n"])
    class_weights = init_class_weights(shape["c"], shape["d"], spec.init_scale, seed)
    return EmbeddingNet(spec), class_weights, inputs, labels, config


def cmd_gradcheck(args) -> int:
    if not 0 < args.threshold < math.inf:
        raise ConfigParseError(f"--threshold must be positive and finite, got {args.threshold}")
    instance = gradcheck_instance(args.variant, args.shape, args.seed, args.activation, args.scale)
    try:
        losses.check_epsilon(args.epsilon)
    except ValueError as exc:
        raise ConfigParseError(f"--epsilon: {exc}")
    err, worst = end_to_end_check(*instance, epsilon=args.epsilon,
                                  corrupt_first_gradient=1e-3 if args.corrupt else 0.0)
    status = "PASS" if err < args.threshold else "FAIL"  # a NaN error fails
    print(f"gradcheck {args.variant}: max relative error {err:.3e} at {worst} [{status}]")
    if status == "FAIL":
        print(f"worst coordinate: {worst}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def _nearest_histogram(result, run):
    """One dimstudy width: ((embedding dim, bin edges, nearest-negative
    density), None), or (None, note) when nothing is mis-classified."""
    inputs, labels = generate_dataset(run.dataset)
    scan = hardness.row_scan(full_set_cosines(result.model, result.class_weights, inputs),
                             labels, run.loss.m0)
    try:
        return (run.model.embedding_dim, *scan.nearest_histogram()), None
    except InsufficientData as exc:
        return None, str(exc)


def cmd_dimstudy(args) -> int:
    experiment = _load_config(args)
    try:
        dims = [int(v) for v in args.dims.split(",") if v.strip()]
    except ValueError:
        raise ConfigParseError(f"bad --dims {args.dims!r}; expected a comma list of integers")
    if len(dims) < 2:
        raise ConfigParseError("dimstudy needs at least two embedding dimensions")
    if len(set(dims)) < len(dims):
        raise ConfigParseError(f"--dims repeats a width: {','.join(map(str, dims))}")
    hidden = experiment.model.layer_widths[:-1]
    runs = [(f"d={dim}", experiment.override({"model.layer_widths": (*hidden, dim)}))
            for dim in dims]
    out_dir = _prepare_out_dir(experiment, args.out)
    started = time.monotonic()

    finished, diverged = _train_each("dimstudy", runs, _nearest_histogram)
    blocks = [block for _, (block, _) in finished if block]
    undefined = {name: note for name, (_, note) in finished if note}
    for name, note in undefined.items():
        print(f"insufficient data: {name}: {note}", file=sys.stderr)

    reports.write_dimstudy_csv(os.path.join(out_dir, "dimstudy.csv"), blocks)
    intersections = {f"{a}:{b}": float(np.minimum(da, db).sum())
                     for i, (a, _, da) in enumerate(blocks) for b, _, db in blocks[i + 1:]}
    reports.write_summary_json(os.path.join(out_dir, "dimstudy_summary.json"), experiment,
                               "dimstudy", {"dims": dims, "pairwise_intersection": intersections,
                                            "diverged": diverged, "undefined": undefined}, started)
    if diverged:
        return EXIT_DIVERGED
    if undefined:
        return EXIT_INSUFFICIENT
    print(f"dimstudy: histograms in {out_dir}/dimstudy.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginlab",
        description="Margin-softmax loss laboratory: synthetic training, "
                    "evaluation and hardness analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every command that trains from a config file
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", default=None, help="override output_dir")
    run.add_argument("--seed", type=int, default=None, help="override the top-level seed")

    p_train = sub.add_parser("train", parents=[run], help="train one experiment from a config file")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", parents=[run],
                           help="train several loss variants on identical data")
    p_cmp.add_argument("--variants", required=True,
                       help="comma list of tokens, e.g. 'arcface,npcface:t=1;alpha=0'")
    p_cmp.set_defaults(func=cmd_compare)

    p_an = sub.add_parser("analyze", help="hardness correlation and overlap of a checkpoint")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--config", default=None,
                      help="analyze a different dataset config than the embedded one")
    p_an.add_argument("--m0", type=float, default=None,
                      help="mask margin override (0 = plain mis-classification)")
    p_an.add_argument("--bins", type=int, default=hardness.DEFAULT_BINS)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check through the model")
    p_gc.add_argument("--variant", required=True,
                      help="loss variant token, e.g. 'npcface' or 'arcface:m=0.3'")
    p_gc.add_argument("--shape", default=None, help="e.g. 'n=4,c=8,d=6,input=6,hidden=5'")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--epsilon", type=float, default=1e-5)
    p_gc.add_argument("--scale", type=float, default=GRADCHECK_SCALE,
                      help="re-scaling s used when the token does not set one")
    p_gc.add_argument("--threshold", type=float, default=GRADCHECK_THRESHOLD)
    p_gc.add_argument("--activation", choices=ACTIVATIONS, default="tanh")
    p_gc.add_argument("--corrupt", action="store_true",
                      help="negative control: corrupt one analytic gradient")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_dim = sub.add_parser("dimstudy", parents=[run],
                           help="hard-negative histograms across embedding dims")
    p_dim.add_argument("--dims", required=True, help="comma list, e.g. '8,16,32,64'")
    p_dim.set_defaults(func=cmd_dimstudy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except MarginLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
