"""Independent scalar-only reference implementations.

Everything here is intentionally written with plain Python floats, explicit
loops and the math module: no numpy, no shared code with the package. These
are the oracles the vectorized implementations are checked against.

The exception is the sequential gradient check at the end: it drives the
package's own forward passes one perturbation at a time, in place, so the
stacked evaluation of the package's checks can be held to it bit for bit.
"""

import itertools
import math

from marginlab import hardness, losses


def scalar_normalize(vector):
    norm = math.sqrt(sum(v * v for v in vector))
    return [v / norm for v in vector]


def scalar_cosines(features, weights):
    """Cosine of every (sample, class) pair from raw vectors."""
    out = []
    for x in features:
        xn = scalar_normalize(x)
        row = []
        for w in weights:
            wn = scalar_normalize(w)
            c = sum(a * b for a, b in zip(xn, wn))
            row.append(max(-1.0, min(1.0, c)))
        out.append(row)
    return out


def scalar_cos_shifted(c, m):
    theta = math.acos(max(-1.0, min(1.0, c)))
    return math.cos(min(theta + m, math.pi))


def scalar_mask(cosines, labels, m0):
    """Hard iff the negative cosine beats the m0-margined positive."""
    mask = []
    for i, row in enumerate(cosines):
        threshold = scalar_cos_shifted(row[labels[i]], m0)
        mask.append([
            1 if (j != labels[i] and value > threshold) else 0
            for j, value in enumerate(row)
        ])
    return mask


def scalar_collaborative_margins(cosines, mask, m0, m1):
    margins = []
    for row, mask_row in zip(cosines, mask):
        count = sum(mask_row)
        if count == 0:
            margins.append(m0)
        else:
            mean = sum(c for c, m in zip(row, mask_row) if m) / count
            margins.append(m0 + mean * m1)
    return margins


def scalar_loss(features, weights, labels, variant, s, m=0.5, t=1.1,
                alpha=0.25, m0=0.4, m1=0.2, mv_positive="arc"):
    """Mean cross-entropy of the margined softmax, composed term by term.

    ``variant`` is one of the five config strings. The mask and the
    collaborative margins are recomputed from the cosines exactly as the
    forward pass defines them.
    """
    cosines = scalar_cosines(features, weights)
    n = len(features)
    c_classes = len(weights)
    mask = scalar_mask(cosines, labels, m0)
    margins = scalar_collaborative_margins(cosines, mask, m0, m1)

    total = 0.0
    for i in range(n):
        y = labels[i]
        logits = []
        for j in range(c_classes):
            cos_ij = cosines[i][j]
            if j == y:
                if variant == "norm_softmax":
                    logits.append(s * cos_ij)
                elif variant == "cosface" or (variant == "mv_softmax" and mv_positive == "cos"):
                    logits.append(s * (cos_ij - m))
                elif variant == "arcface" or variant == "mv_softmax":
                    logits.append(s * scalar_cos_shifted(cos_ij, m))
                else:  # npcface
                    logits.append(s * scalar_cos_shifted(cos_ij, margins[i]))
            else:
                if variant == "mv_softmax" and mask[i][j]:
                    logits.append(s * (t * cos_ij + t - 1.0))
                elif variant == "npcface" and mask[i][j]:
                    logits.append(s * (t * cos_ij + alpha))
                else:
                    logits.append(s * cos_ij)
        peak = max(logits)
        exps = [math.exp(v - peak) for v in logits]
        p_y = exps[y] / sum(exps)
        total += -math.log(max(p_y, 1e-300))
    return total / n


def scalar_pearson(xs, ys):
    """Textbook two-pass Pearson correlation."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return cov / math.sqrt(var_x * var_y)


def brute_force_roc(scores, flags):
    """(threshold, far, tar) triples by exhaustive counting, plus the
    accept-nothing endpoint."""
    thresholds = sorted(set(scores)) + [float("inf")]
    n_pos = sum(1 for f in flags if f)
    n_neg = len(flags) - n_pos
    points = []
    for t in thresholds:
        tp = sum(1 for v, f in zip(scores, flags) if f and v >= t)
        fp = sum(1 for v, f in zip(scores, flags) if not f and v >= t)
        points.append((t, fp / n_neg, tp / n_pos))
    return points


def brute_force_tar_at_far(scores, flags, far_target):
    for t, far, tar in brute_force_roc(scores, flags):
        if far <= far_target:
            return tar
    return 0.0


def brute_force_rank1(probes, probe_labels, gallery, gallery_labels, distractors):
    """Exhaustive nearest-neighbor scan with lowest-index tie-breaking."""
    def unit(v):
        n = math.sqrt(sum(x * x for x in v))
        return [x / n for x in v]

    candidates = [unit(g) for g in gallery] + [unit(d) for d in distractors]
    hits = 0
    for p, label in zip(probes, probe_labels):
        pu = unit(p)
        best_idx, best_sim = 0, -float("inf")
        for idx, cand in enumerate(candidates):
            sim = sum(a * b for a, b in zip(pu, cand))
            if sim > best_sim:
                best_idx, best_sim = idx, sim
        if best_idx < len(gallery) and gallery_labels[best_idx] == label:
            hits += 1
    return hits / len(probes)


def brute_force_threshold_accuracy(scores, flags, threshold):
    return sum(1 for v, f in zip(scores, flags) if (v >= threshold) == f) / len(scores)


def brute_force_best_threshold(scores, flags):
    """Lowest accuracy-maximizing threshold over score midpoints plus the
    accept-all / accept-none endpoints."""
    distinct = sorted(set(scores))
    candidates = [distinct[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates += [float("inf")]
    best_t, best_acc = None, -1.0
    for t in candidates:
        acc = brute_force_threshold_accuracy(scores, flags, t)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t


def loop_build_pairs(labels, n_positive, n_negative, rng):
    """Verification pairs as a per-class double loop enumerates them.

    Positives: every (i, j > i) of each class, classes in ascending label
    order, ``n_positive`` of them picked by ``rng.permutation``; negatives:
    rejection-sampled cross-class pairs, each at most once, from the same
    ``rng``. Returns (index_a, index_b, is_same) as lists.
    """
    positives = []
    for value in sorted(set(labels)):
        members = [i for i, v in enumerate(labels) if v == value]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                positives.append((members[i], members[j]))
    picked = [positives[k] for k in rng.permutation(len(positives))[:n_positive]]
    n = len(labels)
    seen, negatives = set(), []
    while len(negatives) < n_negative:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or labels[a] == labels[b]:
            continue
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            negatives.append(key)
    pairs = picked + negatives
    return ([a for a, _ in pairs], [b for _, b in pairs],
            [True] * n_positive + [False] * n_negative)


def sequential_central_difference(loss_fn, tensors, epsilon):
    """Central differences one coordinate at a time: each coordinate of each
    array in ``tensors`` (name, array, analytic gradient) is moved in place
    by +-epsilon and restored, and ``loss_fn()`` reads the arrays. Same error
    formula, worst-coordinate rule and NaN rule as the package's check."""
    worst, worst_name = 0.0, ""
    for name, array, analytic in tensors:
        for idx in itertools.product(*map(range, array.shape)):
            saved = array[idx]
            array[idx] = saved + epsilon
            up = loss_fn()
            array[idx] = saved - epsilon
            down = loss_fn()
            array[idx] = saved
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(analytic[idx] - numeric) / max(abs(analytic[idx]), abs(numeric), 1e-12)
            if math.isnan(err):
                return err, f"{name}[{idx}]"
            if err > worst:
                worst, worst_name = err, f"{name}[{idx}]"
    return worst, worst_name


def sequential_end_to_end_check(model, class_weights, inputs, labels, config,
                                epsilon=1e-5, corrupt_first_gradient=0.0):
    """``train.end_to_end_check`` with one model + head evaluation per
    perturbation; returns (max_relative_error, worst_coordinate_name)."""
    inputs = inputs.astype("float64")
    class_weights = class_weights.astype("float64")      # keeps the memory layout
    emb, cache = model.forward(inputs)
    loss, head = losses.head_forward(emb, class_weights, labels, config)
    bundle = losses.head_backward(loss, head)
    param_grads = model.backward(cache, bundle.d_features)
    if corrupt_first_gradient:
        param_grads[0] = param_grads[0].copy()
        param_grads[0].flat[0] += corrupt_first_gradient

    mask = hardness.compute_mask(head.cosines, labels, config.m0)

    def loss_now():
        emb_now, _ = model.forward(inputs)
        return losses.head_forward(emb_now, class_weights, labels, config,
                                   mask, head.frozen.margins)[0]

    names = [f"layer{i}.{kind}" for i in range(model.n_layers) for kind in ("weight", "bias")]
    tensors = list(zip(names, model.params, param_grads))
    tensors.append(("class_weights", class_weights, bundle.d_weights))
    return sequential_central_difference(loss_now, tensors, epsilon)


def sequential_finite_difference_check(features, weights, labels, config, epsilon=1e-5):
    """``losses.finite_difference_check`` with one head evaluation per
    perturbation; returns (max_relative_error, worst_coordinate_name)."""
    features = features.astype("float64")
    weights = weights.astype("float64")
    loss, cache = losses.head_forward(features, weights, labels, config)
    bundle = losses.head_backward(loss, cache)

    mask = hardness.compute_mask(cache.cosines, labels, config.m0)

    def loss_now():
        return losses.head_forward(features, weights, labels, config,
                                   mask, cache.frozen.margins)[0]

    tensors = [("features", features, bundle.d_features), ("weights", weights, bundle.d_weights)]
    return sequential_central_difference(loss_now, tensors, epsilon)
