"""Outside-in span tracer for marginlab's layers, and the per-layer metrics.

The tracer replaces each function listed in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent) in memory. It patches the function
object in every ``marginlab.*`` module namespace that holds it, because
modules bind functions by name (``train`` imports ``cosine_matrix``, ``cli``
imports ``train``), and patches ``EmbeddingNet`` methods on the class. No
file of the package changes. A target that no longer exists is reported as
absent instead of failing the run.

A span's self time is its duration minus the time covered by its child
spans. Counters (hard-mask density, bytes written, ...) are read off a
call's arguments and result by an observer that runs after the span's end
time is taken; its time is excluded from the parent's self time and shows
in ``trace.observer_s``.
"""

import functools
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "config", "data", "model", "geometry", "hardness", "losses",
          "metrics", "optim", "reports", "train")

# (module, attribute) -> span name "<module>.<function>"
TARGETS = (
    ("cli", "main"), ("cli", "final_metrics"),
    ("config", "load_config"),
    ("data", "generate_dataset"), ("data", "evaluation_split"),
    ("model", "EmbeddingNet.__init__"), ("model", "EmbeddingNet.forward"),
    ("model", "EmbeddingNet.backward"),
    ("geometry", "normalize_rows"), ("geometry", "cosine_matrix"),
    ("hardness", "compute_mask"), ("hardness", "collaborative_margin"),
    ("hardness", "hardness_correlation"), ("hardness", "similarity_distributions"),
    ("losses", "forward_logits"), ("losses", "softmax_probabilities"),
    ("losses", "loss_value"), ("losses", "backward_logits"),
    ("losses", "backward_cosines"), ("losses", "backward_parameters"),
    ("losses", "frozen_auxiliaries"), ("losses", "loss_and_gradients"),
    ("optim", "sgd_step"),
    ("train", "train"), ("train", "epoch_diagnostics"), ("train", "full_set_cosines"),
    ("train", "end_to_end_check"),
    ("metrics", "build_pairs"), ("metrics", "pair_scores"), ("metrics", "roc"),
    ("metrics", "kfold_threshold_accuracy"), ("metrics", "rank1_identification"),
    ("reports", "write_loss_csv"), ("reports", "write_diagnostics_csv"),
    ("reports", "save_checkpoint"), ("reports", "write_summary_json"),
    ("reports", "write_compare_csv"),
)
SPAN_ALIASES = {"model.EmbeddingNet.__init__": "model.init",
                "model.EmbeddingNet.forward": "model.forward",
                "model.EmbeddingNet.backward": "model.backward"}

# a span of one of these names sets the phase of everything it calls
PHASE_ROOTS = {"train.train": "iter", "train.full_set_cosines": "epoch",
               "train.epoch_diagnostics": "epoch", "cli.final_metrics": "eval",
               "train.end_to_end_check": "check"}

LOOP_STAGES = ("model.forward", "model.backward", "geometry.cosine_matrix",
               "geometry.normalize_rows", "hardness.compute_mask",
               "hardness.collaborative_margin", "losses.forward_logits",
               "losses.softmax_probabilities", "losses.loss_value",
               "losses.backward_logits", "losses.backward_cosines",
               "losses.backward_parameters", "optim.sgd_step", "train.train")
EPOCH_SELF = ("train.epoch_diagnostics", "hardness.hardness_correlation",
              "hardness.similarity_distributions")
EVAL_STAGES = ("cli.final_metrics", "data.evaluation_split", "metrics.build_pairs",
               "metrics.pair_scores", "metrics.roc", "metrics.kfold_threshold_accuracy",
               "metrics.rank1_identification")
SETUP_STAGES = ("config.load_config", "data.generate_dataset", "model.init")
WRITERS = ("write_loss_csv", "write_diagnostics_csv", "save_checkpoint",
           "write_summary_json", "write_compare_csv")
HEAD_STAGES = ("geometry.normalize_rows", "geometry.cosine_matrix",
               "hardness.compute_mask", "hardness.collaborative_margin",
               "losses.forward_logits", "losses.softmax_probabilities",
               "losses.loss_value", "losses.backward_logits",
               "losses.backward_cosines", "losses.backward_parameters")
# the loss head for the size sweep: corr1000's npcface settings, N = 128
HEAD_SWEEP = ((100, 200), (1000, 40), (10000, 5))    # (C, calls)
HEAD_BATCH, HEAD_DIM = 128, 16


def _marginlab_namespaces():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "marginlab" or name.startswith("marginlab."))]


class Tracer:
    """Context manager that installs the span-recording wrappers and removes
    them on exit. Spans accumulate in ``self.spans`` as
    (name, start, end, parent_index, observer_seconds, data)."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []
        self._nc_shape = None
        head = {f"{m}.{f}" for m, f in TARGETS if m in ("losses", "hardness")}
        head -= {"hardness.hardness_correlation", "hardness.similarity_distributions"}
        self._observers = {name: self._nc_bytes for name in head}
        self._observers.update({
            "hardness.compute_mask": self._mask_density,
            "geometry.cosine_matrix": self._cosine_flops,
            "metrics.kfold_threshold_accuracy": _thresholds_scanned,
        })
        for writer in WRITERS:
            self._observers[f"reports.{writer}"] = _bytes_written

    def __enter__(self):
        for module_name, attr in TARGETS:
            name = SPAN_ALIASES.get(f"{module_name}.{attr}", f"{module_name}.{attr}")
            module = sys.modules.get(f"marginlab.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for namespace in _marginlab_namespaces():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0.0, None)
            if observer is not None:
                data = observer(args, kwargs, result)
                spans[index] = (name, start, end, parent, clock() - end, data)
            return result
        return traced

    # observers: each returns a dict of counts for the span
    def _nc_bytes(self, args, kwargs, result):
        values = list(args) + list(kwargs.values())
        values += list(result) if isinstance(result, tuple) else [result]
        return {"nc_bytes": sum(v.nbytes for v in values
                                if isinstance(v, np.ndarray) and v.shape == self._nc_shape)}

    def _mask_density(self, args, kwargs, result):
        data = self._nc_bytes(args, kwargs, result)
        data.update(hard=int(np.count_nonzero(result)), entries=result.size)
        return data

    def _cosine_flops(self, args, kwargs, result):
        self._nc_shape = result.shape
        n, d = np.shape(args[0])
        return {"flop": 2 * n * result.shape[1] * d}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _thresholds_scanned(args, kwargs, result):
    """Candidate thresholds the k-fold search scores: per fold, one per
    distinct training score plus the two endpoints, less one (midpoints)."""
    from marginlab.seeds import named_rng

    scores, _, k, seed = args[:4]
    scores = np.asarray(scores, dtype=np.float64)
    folds = np.array_split(named_rng(seed, "folds").permutation(scores.size), k)
    return {"thresholds": sum(np.unique(np.delete(scores, fold)).size + 1 for fold in folds)}


class Profile:
    """Self and inclusive time, calls and observer counts per (name, phase)."""

    def __init__(self, spans):
        self.self_s, self.incl_s, self.calls, self.data = {}, {}, {}, {}
        self.observer_s = 0.0
        passed = [None] * len(spans)      # phase each span hands to its children
        cover = [0.0] * len(spans)
        for index, (name, start, end, parent, tail, data) in enumerate(spans):
            phase = passed[parent] if parent >= 0 else "top"
            passed[index] = PHASE_ROOTS.get(name, phase)
            if parent >= 0:
                cover[parent] += end - start + tail
            self.observer_s += tail
            key = (name, phase)
            self.calls[key] = self.calls.get(key, 0) + 1
            self.incl_s[key] = self.incl_s.get(key, 0.0) + end - start
            for field, value in (data or {}).items():
                self.data[key + (field,)] = self.data.get(key + (field,), 0) + value
        for index, (name, start, end, parent, _, _) in enumerate(spans):
            key = (name, passed[parent] if parent >= 0 else "top")
            self.self_s[key] = self.self_s.get(key, 0.0) + end - start - cover[index]

    def total(self, table, name, phases=None):
        """Sum of ``table`` over the spans called ``name`` in ``phases``
        (a tuple; None means every phase)."""
        return sum(v for (n, p, *_), v in table.items()
                   if n == name and (phases is None or p in phases))

    def count(self, name, field, phases=None):
        return sum(v for (n, p, f), v in self.data.items()
                   if n == name and f == field and (phases is None or p in phases))


def _ratio(num, den):
    return num / den if den else 0.0


def head_sweep(seed):
    """``losses.loss_and_gradients`` (npcface, mined mask) at N = 128 and
    C in {100, 1000, 10000}, traced; stage times in microseconds per call."""
    losses = sys.modules["marginlab.losses"]
    config = losses.LossConfig(variant=losses.Variant.NPCFACE, s=24.0, m0=0.1,
                               m1=0.1, t=1.05, alpha=0.1)
    rng = np.random.default_rng([seed, 2020])
    metrics = {}
    for classes, calls in HEAD_SWEEP:
        weights = rng.standard_normal((classes, HEAD_DIM))
        labels = rng.integers(0, classes, HEAD_BATCH)
        unit = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        features = unit[labels] + 0.5 * rng.standard_normal((HEAD_BATCH, HEAD_DIM))
        losses.loss_and_gradients(features, weights, labels, config)    # warm-up
        with Tracer() as tracer:
            for _ in range(calls):
                losses.loss_and_gradients(features, weights, labels, config)
        profile = Profile(tracer.spans)
        prefix = f"losses.head_c{classes}"
        for stage in HEAD_STAGES:
            metrics[f"{prefix}.{stage.split('.')[1]}.us"] = (
                profile.total(profile.self_s, stage) / calls * 1e6, "us")
        residual = (profile.total(profile.self_s, "losses.loss_and_gradients")
                    + profile.total(profile.self_s, "losses.frozen_auxiliaries"))
        metrics[f"{prefix}.residual.us"] = (residual / calls * 1e6, "us")
        metrics[f"{prefix}.total.us"] = (
            profile.total(profile.incl_s, "losses.loss_and_gradients") / calls * 1e6, "us")
        metrics[f"{prefix}.hard_fraction"] = (_ratio(
            profile.count("hardness.compute_mask", "hard"),
            profile.count("hardness.compute_mask", "entries")), "ratio")
    return metrics


def per_layer_metrics(client, untraced_run_s):
    """Trace one repetition of the workload, then run the head sweep."""
    with Tracer() as tracer:
        run_s = client.run_sequence()
    p = Profile(tracer.spans)
    loop, mined = ("iter",), ("iter", "check")
    iters = p.total(p.calls, "optim.sgd_step", loop)
    epochs = p.total(p.calls, "train.epoch_diagnostics")
    checks = p.total(p.calls, "train.end_to_end_check")
    m = {}
    for stage in LOOP_STAGES:
        phases = None if stage == "train.train" else loop    # the loop's own residual
        self_s = p.total(p.self_s, stage, phases)
        m[f"{stage}.self_us_per_iter"] = (_ratio(self_s, iters) * 1e6, "us")
    for stage in EPOCH_SELF:
        m[f"{stage}.self_ms_per_epoch"] = (_ratio(p.total(p.self_s, stage), epochs) * 1e3, "ms")
    m["train.full_set_cosines.ms_per_epoch"] = (
        _ratio(p.total(p.incl_s, "train.full_set_cosines"), epochs) * 1e3, "ms")
    for stage in EVAL_STAGES:
        m[f"{stage}.self_ms_per_call"] = (
            _ratio(p.total(p.self_s, stage), p.total(p.calls, stage)) * 1e3, "ms")
    for stage in SETUP_STAGES:
        m[f"{stage}.ms"] = (_ratio(p.total(p.incl_s, stage), p.total(p.calls, stage)) * 1e3, "ms")
    for writer in WRITERS:
        name = f"reports.{writer}"
        calls = p.total(p.calls, name)
        m[f"{name}.ms"] = (_ratio(p.total(p.incl_s, name), calls) * 1e3, "ms")
        m[f"{name}.bytes"] = (_ratio(p.count(name, "bytes"), calls), "B")
    m["train.end_to_end_check.ms_per_call"] = (
        _ratio(p.total(p.incl_s, "train.end_to_end_check"), checks) * 1e3, "ms")
    m["model.forward.calls_per_check"] = (
        _ratio(p.total(p.calls, "model.forward", ("check",)), checks), "count")
    m["hardness.hard_fraction"] = (_ratio(
        p.count("hardness.compute_mask", "hard", mined),
        p.count("hardness.compute_mask", "entries", mined)), "ratio")
    m["metrics.kfold.thresholds_scanned"] = (_ratio(
        p.count("metrics.kfold_threshold_accuracy", "thresholds"),
        p.total(p.calls, "metrics.kfold_threshold_accuracy")), "count")
    m["train.iterations"] = (iters, "count")
    m["geometry.cosine_matrix.gflop_s"] = (_ratio(
        p.count("geometry.cosine_matrix", "flop", loop),
        p.total(p.self_s, "geometry.cosine_matrix", loop)) / 1e9, "GFLOP/s")
    m["losses.head.nc_bytes_per_iter"] = (_ratio(
        sum(v for (_, ph, f), v in p.data.items() if f == "nc_bytes" and ph in loop), iters), "B")
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum((v for (n, _), v in p.self_s.items() if n.split(".")[0] == layer), 0.0)
        attributed += layer_s
        m[f"layer.{layer}.self_s"] = (layer_s, "s")
    m["trace.run_s"] = (run_s, "s")
    m["trace.unattributed_s"] = (run_s - attributed, "s")
    m["trace.observer_s"] = (p.observer_s, "s")
    m["trace.overhead_ratio"] = (run_s / untraced_run_s, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.absent"] = (len(tracer.absent), "count")
    for name in tracer.absent:
        print(f"trace: {name} is absent", file=sys.stderr)
    m.update(head_sweep(client.seed))
    return m
