"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines stream.
The training-based criteria (7-10, 12) use small calibrated synthetic tasks;
seeds are fixed so every run reproduces the same numbers.
"""

import math

import numpy as np

from marginlab import losses as L
from marginlab.cli import main as cli_main
from marginlab.config import parse_config_text, variant_values
from marginlab.hardness import collaborative_margin, compute_mask
from marginlab.losses import LossConfig, Variant
from marginlab.metrics import (
    kfold_threshold_accuracy,
    rank1_identification,
    roc,
    tar_at_far,
)
from marginlab.seeds import named_rng
from marginlab.train import train
from marginlab.cli import final_metrics
from oracles import (
    brute_force_best_threshold,
    brute_force_rank1,
    brute_force_roc,
    brute_force_tar_at_far,
    brute_force_threshold_accuracy,
    scalar_loss,
)
from testlib import conditioned_instances

VARIANTS = list(Variant)


def report(n, ok, detail=""):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")


# ---------------------------------------------------------------------------
# calibrated synthetic tasks

# the shipped defaults: 200 classes x 20 samples, embedding dim 16, the
# 30-epoch schedule with decays at 16/24/28
DEFAULT_TASK = """
seed = {seed}
loss.variant = {variant}
eval.n_distractors = 50
"""

# crowded task for the ablation: moderate scale so every variant converges,
# mining margin small enough to stay selective
CROWDED_TASK = """
seed = {seed}
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

CORRELATION_TASK = """
seed = {seed}
dataset.n_classes = {n_classes}
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

DETERMINISM_TASK = """
seed = 3
dataset.n_classes = 8
dataset.samples_per_class = 10
dataset.input_dim = 10
dataset.concentration = 96
model.layer_widths = 10,8,6
loss.s = 16
loss.m0 = 0.15
schedule.total_epochs = 5
schedule.milestones = 4
schedule.batch_size = 20
eval.samples_per_class = 4
eval.n_positive_pairs = 30
eval.n_negative_pairs = 60
eval.n_distractors = 10
eval.far_targets = 0.2
eval.kfold = 5
"""


def random_clustered(rng, n, c, d, spread=0.3):
    hub = rng.standard_normal(d)
    hub /= np.linalg.norm(hub)
    x = hub + spread * rng.standard_normal((n, d))
    w = hub + spread * rng.standard_normal((c, d))
    return x, w, rng.integers(0, c, n)


def test_criterion_1_gradient_correctness():
    """100 conditioned random instances per variant, fd error < 1e-6, < 30 s."""
    import time

    start = time.time()
    worst = 0.0
    for variant in VARIANTS:
        for x, w, y, cfg in conditioned_instances(variant, 100):
            err = L.finite_difference_check(x, w, y, cfg, 1e-5)
            worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(1, ok, f"max rel err {worst:.2e} over 500 instances in {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_2_zero_sum_identity():
    """Logit-gradient rows sum to zero within 1e-10, 1000 rows per variant."""
    worst = 0.0
    for vi, variant in enumerate(VARIANTS):
        rng = np.random.default_rng([200, vi])
        rows = 0
        while rows < 1000:
            n, c, d = int(rng.integers(1, 9)), int(rng.integers(2, 17)), 6
            x, w, y = random_clustered(rng, n, c, d)
            cfg = LossConfig(variant=variant, s=float(rng.uniform(8, 64)),
                             m=0.4, m0=0.3)
            bundle = L.loss_and_gradients(x, w, y, cfg)
            worst = max(worst, float(np.abs(bundle.d_logits.sum(axis=1)).max()))
            rows += n
    ok = worst < 1e-10
    report(2, ok, f"max |row sum| {worst:.2e}")
    assert ok


def test_criterion_3_margin_inequalities():
    """Positive margin strictly shrinks p_y and grows every other p_k."""
    rng = np.random.default_rng(300)
    checked = 0
    ok = True
    while checked < 1000:
        c = int(rng.integers(2, 17))
        row = rng.uniform(-0.9, 0.9, c)
        y = int(rng.integers(0, c))
        m_max = math.pi - math.acos(row[y])
        if m_max < 0.1:
            continue
        m = float(rng.uniform(0.05, min(1.0, m_max - 0.02)))
        frozen = L.freeze((1, c), [y])
        plain = L.softmax_probabilities(L.forward_logits(
            row[None, :], frozen, LossConfig(variant=Variant.ARCFACE, s=10.0, m=0.0)))
        margined = L.softmax_probabilities(L.forward_logits(
            row[None, :], frozen, LossConfig(variant=Variant.ARCFACE, s=10.0, m=m)))
        others = np.arange(c) != y
        ok &= margined[0, y] < plain[0, y]
        ok &= bool(np.all(margined[0, others] > plain[0, others]))
        checked += 1
    report(3, ok, f"{checked} random rows, strict both ways")
    assert ok


def test_criterion_4_reduction_identities():
    """NPC(t=1,a=0,m1=0) = ArcFace(m0); ArcFace(0) = CosFace(0) = NormSoftmax;
    MV(empty mask) = ArcFace(m). 100 random instances each, 1e-12."""
    def max_gap(a, b):
        gap = abs(a.loss - b.loss)
        for x, y in ((a.d_logits, b.d_logits), (a.d_cosines, b.d_cosines),
                     (a.d_features, b.d_features), (a.d_weights, b.d_weights)):
            gap = max(gap, float(np.abs(x - y).max()))
        return gap

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([400, seed])
        x, w, y = random_clustered(rng, int(rng.integers(1, 6)),
                                   int(rng.integers(2, 10)), int(rng.integers(3, 8)))

        npc = LossConfig(variant=Variant.NPCFACE, s=20.0, t=1.0, alpha=0.0,
                         m0=0.37, m1=0.0)
        arc = LossConfig(variant=Variant.ARCFACE, s=20.0, m=0.37)
        worst = max(worst, max_gap(L.loss_and_gradients(x, w, y, npc),
                                   L.loss_and_gradients(x, w, y, arc)))

        zero = [L.loss_and_gradients(x, w, y, LossConfig(variant=v, s=24.0, m=0.0))
                for v in (Variant.ARCFACE, Variant.COSFACE, Variant.NORM_SOFTMAX)]
        worst = max(worst, max_gap(zero[0], zero[1]), max_gap(zero[1], zero[2]))

        mv = LossConfig(variant=Variant.MV_SOFTMAX, s=18.0, m=0.3, t=1.25)
        empty = np.zeros((len(y), w.shape[0]), dtype=bool)
        worst = max(worst, max_gap(
            L.loss_and_gradients(x, w, y, mv, mask=empty),
            L.loss_and_gradients(x, w, y, LossConfig(variant=Variant.ARCFACE, s=18.0, m=0.3))))
    ok = worst < 1e-12
    report(4, ok, f"max deviation {worst:.2e} across 300 identity checks")
    assert ok


def test_criterion_5_collaborative_margin_contract():
    """Bounds, the exact empty-row value, and monotonicity, 1000 trials."""
    rng = np.random.default_rng(500)
    ok = True
    for _ in range(1000):
        n, c = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        cos = rng.uniform(-1, 1, (n, c))
        labels = rng.integers(0, c, n)
        mask = compute_mask(cos, labels, float(rng.uniform(0, 0.6)))
        m0, m1 = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3))
        margins = collaborative_margin(cos, mask, m0, m1)
        ok &= bool(np.all(margins >= m0 - m1 - 1e-12))
        ok &= bool(np.all(margins <= m0 + m1 + 1e-12))
        empty = ~mask.any(axis=1)
        ok &= bool(np.all(margins[empty] == m0))
        if mask.any():
            i, j = map(int, np.argwhere(mask)[0])
            bumped = cos.copy()
            bumped[i, j] = min(1.0, bumped[i, j] + float(rng.uniform(0, 0.4)))
            ok &= collaborative_margin(bumped, mask, m0, m1)[i] >= margins[i] - 1e-12
    report(5, ok, "bounds, empty-row exactness, monotonicity x 1000")
    assert ok


def test_criterion_6_brute_force_loss_oracle():
    """loss_value equals the scalar term-by-term composition to 1e-12."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([600, seed])
        variant = VARIANTS[seed % 5]
        n, c, d = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(3, 7))
        x, w, y = random_clustered(rng, n, c, d, spread=0.6)
        cfg = LossConfig(variant=variant, s=float(rng.uniform(4, 30)),
                         m=float(rng.uniform(0.0, 0.6)), t=float(rng.uniform(1.0, 1.3)),
                         alpha=float(rng.uniform(0.0, 0.3)), m0=float(rng.uniform(0.0, 0.5)),
                         m1=float(rng.uniform(0.0, 0.3)))
        got = L.loss_and_gradients(x, w, y, cfg).loss
        expected = scalar_loss(x.tolist(), w.tolist(), y.tolist(), variant.value,
                               cfg.s, m=cfg.m, t=cfg.t, alpha=cfg.alpha,
                               m0=cfg.m0, m1=cfg.m1)
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    ok = worst < 1e-12
    report(6, ok, f"max rel deviation {worst:.2e} over 100 instances")
    assert ok


def test_criterion_7_convergence_analog():
    """All five variants train 30 epochs on the default task: finite losses,
    final-epoch mean below first-epoch mean, < 5 min each."""
    import time

    ok = True
    details = []
    for variant in VARIANTS:
        cfg = parse_config_text(DEFAULT_TASK.format(seed=7, variant=variant.value))
        start = time.time()
        result = train(cfg)
        elapsed = time.time() - start
        losses = result.log.losses()
        first = result.log.epoch_mean_loss(1)
        last = result.log.epoch_mean_loss(30)
        good = bool(np.isfinite(losses).all()) and last < first and elapsed < 300
        ok &= good
        details.append(f"{variant.value}:{first:.1f}->{last:.1f} in {elapsed:.0f}s")
    report(7, ok, "; ".join(details))
    assert ok


ABLATION_TOKENS = [
    ("norm_softmax", "softmax"),
    ("arcface:m=0.1", "arcface"),
    ("npcface:m1=0", "neg-only"),
    ("npcface:t=1;alpha=0", "pos-only"),
    ("npcface", "full"),
]


def test_criterion_8_ablation_direction():
    """Crowded-task ablation: margins >= softmax and full >= both single
    components at TAR@FAR=1e-2, required on at least 4 of 5 seeds."""
    seeds = (1, 2, 3, 4, 5)
    ok_count = 0
    for seed in seeds:
        base = parse_config_text(CROWDED_TASK.format(seed=seed))
        tars = {}
        for token, label in ABLATION_TOKENS:
            cfg = base.override(variant_values(token))
            tars[label] = final_metrics(train(cfg), cfg)["tar_at_far"]["0.01"]
        margins_beat = all(tars[k] >= tars["softmax"]
                           for k in ("arcface", "neg-only", "pos-only", "full"))
        full_best = tars["full"] >= tars["neg-only"] and tars["full"] >= tars["pos-only"]
        seed_ok = margins_beat and full_best
        ok_count += seed_ok
        print(f"  seed {seed}: " +
              " ".join(f"{k}={v:.4f}" for k, v in tars.items()) +
              f"  [{'ok' if seed_ok else 'VIOLATED'}]")
    ok = ok_count >= 4
    report(8, ok, f"ordering held on {ok_count}/5 seeds (need 4)")
    assert ok, f"ablation ordering held on only {ok_count}/5 seeds"


def mid_training_r(n_classes, seed):
    cfg = parse_config_text(CORRELATION_TASK.format(seed=seed, n_classes=n_classes))
    result = train(cfg)
    mid = result.log.epochs[len(result.log.epochs) // 2 - 1]
    return mid.pearson_r if mid.pearson_r is not None else float("nan")


def test_criterion_9_correlation_direction():
    """Mid-training hardness correlation: negative sign on >= 4/5 seeds at
    1000 classes; |r(1000 classes)| >= |r(100 classes)| on >= 3/5 seeds."""
    seeds = (1, 2, 3, 4, 5)
    neg_count = 0
    scale_count = 0
    for seed in seeds:
        r_small = mid_training_r(100, seed)
        r_large = mid_training_r(1000, seed)
        neg = r_large < 0
        scale = abs(r_large) >= abs(r_small)
        neg_count += neg
        scale_count += scale
        print(f"  seed {seed}: r(100)={r_small:+.4f} r(1000)={r_large:+.4f} "
              f"neg={'ok' if neg else 'VIOLATED'} scale={'ok' if scale else 'VIOLATED'}")
    ok = neg_count >= 4 and scale_count >= 3
    report(9, ok, f"negative sign {neg_count}/5 (need 4), scale {scale_count}/5 (need 3)")
    assert ok, f"sign {neg_count}/5, scale {scale_count}/5"


def test_criterion_10_flexibility_sweep():
    """MV-softmax t sweep is reported; every NPCFace alpha run must converge."""
    base = DEFAULT_TASK.format(seed=10, variant="npcface")
    lines = []
    for t in (1.1, 1.2, 1.3):
        cfg = parse_config_text(base)
        cfg = cfg.override(variant_values(f"mv_softmax:t={t}"))
        result = train(cfg)
        finite = bool(np.isfinite(result.log.losses()).all())
        drop = result.log.epoch_mean_loss(30) < result.log.epoch_mean_loss(1)
        lines.append(f"mv t={t}: finite={finite} improved={drop} "
                     f"final={result.log.epoch_mean_loss(30):.2f} (reported)")

    ok = True
    for alpha in (0.15, 0.25, 0.35):
        cfg = parse_config_text(base)
        cfg = cfg.override(variant_values(f"npcface:alpha={alpha}"))
        result = train(cfg)
        finite = bool(np.isfinite(result.log.losses()).all())
        drop = result.log.epoch_mean_loss(30) < result.log.epoch_mean_loss(1)
        ok &= finite and drop
        lines.append(f"npc alpha={alpha}: finite={finite} improved={drop}")
    for line in lines:
        print("  " + line)
    report(10, ok, "all npcface sweep runs converge; mv degradation reported above")
    assert ok


def test_criterion_11_metric_oracles():
    """ROC, TAR@FAR, rank-1 and k-fold match brute force on 50 instances each."""
    rng = np.random.default_rng(1100)
    ok = True

    for _ in range(50):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.standard_normal(n), 2)
        flags = rng.integers(0, 2, n).astype(bool)
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        curve = roc(scores, flags)
        expected = brute_force_roc(scores.tolist(), flags.tolist())
        ok &= len(curve.thresholds) == len(expected)
        ok &= all(t == et and f == ef and ta == eta
                  for (t, f, ta), (et, ef, eta) in zip(curve.points(), expected))
        target = float(rng.uniform(0.02, 1.0))
        ok &= tar_at_far(curve, target) == brute_force_tar_at_far(
            scores.tolist(), flags.tolist(), target)

    for _ in range(50):
        g, p, dset, d = 12, 6, int(rng.integers(0, 20)), 5
        gallery = rng.standard_normal((g, d))
        probes = gallery[rng.permutation(g)[:p]] + 0.4 * rng.standard_normal((p, d))
        probe_labels = rng.integers(0, g, p)
        distractors = rng.standard_normal((dset, d))
        got = rank1_identification(probes, probe_labels, gallery, np.arange(g), distractors)
        expected = brute_force_rank1(probes.tolist(), probe_labels.tolist(),
                                     gallery.tolist(), list(range(g)), distractors.tolist())
        ok &= abs(got - expected) < 1e-12

    for trial in range(50):
        n = int(rng.integers(6, 24))
        scores = np.round(rng.standard_normal(n), 1)
        flags = rng.integers(0, 2, n).astype(bool)
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        k = int(rng.integers(2, min(n, 8)))
        got = kfold_threshold_accuracy(scores, flags, k, seed=trial)
        order = named_rng(trial, "folds").permutation(n)
        folds = np.array_split(order, k)
        accs = []
        for held in range(k):
            train_idx = np.concatenate([folds[i] for i in range(k) if i != held])
            t = brute_force_best_threshold(scores[train_idx].tolist(), flags[train_idx].tolist())
            accs.append(brute_force_threshold_accuracy(
                scores[folds[held]].tolist(), flags[folds[held]].tolist(), t))
        ok &= abs(got - float(np.mean(accs))) < 1e-12

    report(11, ok, "roc, tar@far, rank-1, k-fold vs brute force x 50 each")
    assert ok


def test_criterion_12_determinism(tmp_path):
    """Re-running the train subcommand reproduces byte-identical CSVs."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DETERMINISM_TASK, encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)

    ok = True
    for artifact in ("loss.csv", "diagnostics.csv", "checkpoint.txt"):
        with open(outs[0] / artifact, "rb") as fa, open(outs[1] / artifact, "rb") as fb:
            same = fa.read() == fb.read()
        ok &= same
    report(12, ok, "loss.csv, diagnostics.csv, checkpoint.txt byte-identical")
    assert ok
