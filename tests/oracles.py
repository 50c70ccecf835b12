"""Brute-force reference implementations the library is tested against.

Everything here favours obviousness over speed: exhaustive enumeration,
plain loops, no shared code with the package under test.
"""
import itertools
import math

import numpy as np


def iou_oracle(a_start, a_end, a2_start, a2_end):
    inter = max(0.0, min(a_end, a2_end) - max(a_start, a2_start))
    union = (a_end - a_start) + (a2_end - a2_start) - inter
    if union <= 0:
        return 1.0 if (a_start == a2_start and a_end == a2_end) else 0.0
    return inter / union


def nms_oracle(intervals, scores, threshold):
    """Exhaustive suppression: repeatedly take the best remaining candidate.

    Returns the kept candidates as a list of original indices, in the order
    they were selected.
    """
    remaining = list(range(len(intervals)))
    kept = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], intervals[i][0], i))
        kept.append(best)
        survivors = []
        for i in remaining:
            if i == best:
                continue
            iou = iou_oracle(*intervals[best], *intervals[i])
            if iou <= threshold:
                survivors.append(i)
        remaining = survivors
    return kept


def average_precision_oracle(tp_flags, num_positive):
    if num_positive == 0:
        return 0.0
    total = 0.0
    seen_tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            seen_tp += 1
            total += seen_tp / rank
    return total / num_positive


def recall_oracle(items, k, thresholds):
    """items: list of (ranked predictions [(s, e, score)], gts [(s, e)])."""
    hits = {t: 0 for t in thresholds}
    iou_total = 0.0
    for preds, gts in items:
        ranked = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
        for t in thresholds:
            found = False
            for i in ranked[:k]:
                for g in gts:
                    if iou_oracle(preds[i][0], preds[i][1], g[0], g[1]) >= t:
                        found = True
            hits[t] += found
        if ranked:
            top = ranked[0]
            iou_total += max(
                iou_oracle(preds[top][0], preds[top][1], g[0], g[1]) for g in gts
            )
    n = len(items)
    return {t: hits[t] / n for t in thresholds}, iou_total / n


def moment_map_oracle(items, thresholds):
    """items as in recall_oracle; returns {threshold: mAP} plus the average."""
    per_threshold = {}
    for t in thresholds:
        aps = []
        for preds, gts in items:
            ranked = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
            taken = set()
            flags = []
            for i in ranked:
                best_iou, best_g = -1.0, -1
                for g in range(len(gts)):
                    if g in taken:
                        continue
                    iou = iou_oracle(preds[i][0], preds[i][1], gts[g][0], gts[g][1])
                    if iou > best_iou:
                        best_iou, best_g = iou, g
                if best_g >= 0 and best_iou >= t:
                    taken.add(best_g)
                    flags.append(True)
                else:
                    flags.append(False)
            aps.append(average_precision_oracle(flags, len(gts)))
        per_threshold[t] = sum(aps) / len(aps)
    avg = sum(per_threshold.values()) / len(per_threshold)
    return per_threshold, avg


def ranking_ap_oracle(scores, positives, cutoff=None):
    """AP of a clip ranking; positives is a boolean list; ties break earlier."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    if cutoff is not None:
        order = order[:cutoff]
    flags = [bool(positives[i]) for i in order]
    denom = sum(map(bool, positives))
    if cutoff is not None:
        denom = min(cutoff, denom)
    return average_precision_oracle(flags, denom)


def hit_at_1_oracle(items):
    """items: list of (scores, positives); items without positives dropped."""
    eligible = [(s, p) for s, p in items if any(p)]
    hits = 0
    for scores, positives in eligible:
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        hits += bool(positives[best])
    return hits / len(eligible)


def matching_oracle(weights):
    """Max-weight bipartite matching by trying every permutation (<= 7x7)."""
    w = np.asarray(weights, dtype=np.float64)
    rows, cols = w.shape
    if rows > 7 or cols > 7:
        raise ValueError("oracle limited to 7x7")
    n = max(rows, cols)
    best_total = -1.0
    best_pairs = None
    for perm in itertools.permutations(range(n)):
        pairs = [
            (r, perm[r])
            for r in range(rows)
            if perm[r] < cols and w[r, perm[r]] > 0
        ]
        total = sum(w[r, c] for r, c in pairs)
        if total > best_total + 1e-15:
            best_total = total
            best_pairs = sorted(pairs)
    return best_pairs if best_pairs is not None else [], max(best_total, 0.0)


def hungarian_reference(weights):
    """Max-weight matching by a plain scalar Hungarian loop on the zero-padded square matrix.

    For shapes past the permutation oracle's 7x7.  On integer weights whose
    potentials stay within 2**53 every step is exact, so its total is the
    exact optimum; its pairs are one optimal matching among the tied ones.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows, cols = w.shape
    n = max(rows, cols)
    cost = np.zeros((n, n), dtype=np.float64)
    cost[:rows, :cols] = -w
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    pairs = []
    total = 0.0
    for j in range(1, n + 1):
        i = match_col[j]
        if 1 <= i <= rows and 1 <= j <= cols and w[i - 1, j - 1] > 0:
            pairs.append((i - 1, j - 1))
            total += w[i - 1, j - 1]
    pairs.sort()
    return pairs, total


def concept_iou_oracle(a, b):
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def qfvs_oracle(pred, gt, concepts):
    """F1 from the permutation matching oracle; pred/gt are clip id lists."""
    if not pred or not gt:
        return 0.0, 0.0, 0.0
    w = [[concept_iou_oracle(concepts[p], concepts[g]) for g in gt] for p in pred]
    _, total = matching_oracle(w)
    precision = total / len(pred)
    recall = total / len(gt)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def runs_oracle(mask):
    """Maximal runs of True as inclusive (first, last) index pairs."""
    runs = []
    start = None
    for i, m in enumerate(list(mask) + [False]):
        if m and start is None:
            start = i
        elif not m and start is not None:
            runs.append((start, i - 1))
            start = None
    return runs


def interval_label_oracle(num_clips, clip_len, intervals):
    """Per-clip (f, d_left, d_right, s) from interval supervision.

    Clip centers inside an interval take it; uncovered clips are background.
    A center in several intervals takes the nearest one (tie: earlier start,
    earlier end, earlier input position).
    """
    f = [0] * num_clips
    d = [(0.0, 0.0)] * num_clips
    s = [0.0] * num_clips
    for i in range(num_clips):
        t = (i + 0.5) * clip_len
        covering = [
            (abs(t - (a + b) / 2), a, b, j)
            for j, (a, b) in enumerate(intervals)
            if a <= t <= b
        ]
        if not covering:
            continue
        _, a, b, _ = min(covering)
        f[i] = 1
        d[i] = (t - a, b - t)
        s[i] = 1.0
    return f, d, s


def curve_foreground_oracle(values, bin_width):
    """Foreground mask: clips in the same quantisation bin as the maximum."""
    bins = [math.floor(v / bin_width + 1e-9) for v in values]
    top = max(bins)
    return [1 if b == top else 0 for b in bins]


def point_windows_oracle(timestamps, clip_len):
    """Symmetric windows around each point with span = mean gap."""
    ts = sorted(timestamps)
    if len(ts) >= 2:
        span = sum(b - a for a, b in zip(ts, ts[1:])) / (len(ts) - 1)
    else:
        span = 2.0 * clip_len
    return [(t - span / 2, t + span / 2) for t in ts]


def segment_cost_oracle(gram, first, last):
    """Within-segment scatter: tr(K) - sum(K)/len over the inclusive block."""
    block = gram[first:last + 1, first:last + 1]
    n = last - first + 1
    return float(np.trace(block) - block.sum() / n)


def kts_fixed_m_oracle(gram, m, max_clips=None):
    """Best m-segmentation by enumerating all change-point combinations.

    Returns (cost, change_points); ties pick the lexicographically smallest
    tuple because itertools.combinations enumerates in lexicographic order
    and only strict improvements replace the incumbent.
    """
    n = gram.shape[0]
    best_cost = math.inf
    best_cps = None
    for cps in itertools.combinations(range(1, n), m - 1):
        bounds = [0] + list(cps) + [n]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        if max_clips is not None and any(ln > max_clips for ln in lengths):
            continue
        cost = sum(segment_cost_oracle(gram, a, b - 1) for a, b in zip(bounds, bounds[1:]))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_cps = cps
    return best_cost, best_cps


def kts_penalty_oracle(gram, max_segments, max_clips, penalty):
    """Segment-count selection: scan m, keep strict improvements (small m wins ties)."""
    n = gram.shape[0]
    best_total = math.inf
    best = None
    for m in range(1, min(max_segments, n) + 1):
        if m * max_clips < n:
            continue
        cost, cps = kts_fixed_m_oracle(gram, m, max_clips)
        if cps is None and m > 1:
            continue
        total = cost + penalty * m * (math.log(n / m) + 1.0)
        if total < best_total - 1e-12:
            best_total = total
            best = cps if cps is not None else ()
    return best


def kts_tables_reference(band, m_hi):
    """Frozen copy of the per-start KTS suffix DP that the band minimum replaced.

    band[i, w] is the scatter of clips [i, i + w] (inf past the last clip).
    Returns (cost, first_end) of shape (m_hi + 1, n + 1); infeasible entries
    have cost inf and first_end 0.
    """
    n, width = band.shape
    cost = np.full((m_hi + 1, n + 1), np.inf)
    first_end = np.zeros((m_hi + 1, n + 1), dtype=np.int64)
    cost[0, n] = 0.0
    for m in range(1, m_hi + 1):
        for i in range(n - 1, -1, -1):
            rem = n - i
            if rem < m or rem > m * width:
                continue
            lengths = np.arange(max(1, rem - (m - 1) * width), min(width, rem - (m - 1)) + 1)
            totals = band[i, lengths - 1] + cost[m - 1, i + lengths]
            best = int(np.argmin(totals))
            cost[m, i] = totals[best]
            first_end[m, i] = i + lengths[best]
    return cost, first_end


def fd_gradient(fn, arrays, epsilon=1e-6):
    """Central-difference gradients of fn(arrays dict) -> float.

    The per-scalar loop the gradient checker ran before it stacked its
    perturbations: each scalar in turn is moved up and down by ``epsilon``
    in place, one call each.
    """
    grads = {}
    work = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
    for key, arr in work.items():
        flat = arr.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + epsilon
            up = fn(work)
            flat[i] = keep - epsilon
            down = fn(work)
            flat[i] = keep
            g[i] = (up - down) / (2 * epsilon)
        grads[key] = g.reshape(arr.shape)
    return grads


def cosine_partials_reference(v, s):
    """Frozen copy of the cosine the fused backward replaced.

    Returns cos(v, s) over the last axis and the full partials dcos/dv and
    dcos/ds, both of the broadcast shape of ``v`` and ``s``.
    """
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    ns = np.linalg.norm(s, axis=-1, keepdims=True)
    c = np.sum(v * s, axis=-1, keepdims=True) / (nv * ns)
    dv = s / (nv * ns) - c * v / nv**2
    ds = v / (nv * ns) - c * s / ns**2
    return c[..., 0], dv, ds


def bce_oracle(logits, targets, lam, neg_weight):
    total = 0.0
    for x, f in zip(logits, targets):
        p = 1.0 / (1.0 + math.exp(-x))
        total += lam * (-f * math.log(p) - neg_weight * (1 - f) * math.log(1 - p))
    return total / len(logits)


def infonce_oracle(scores, positive_index, tau):
    z = [c / tau for c in scores]
    top = max(z)
    lse = top + math.log(sum(math.exp(v - top) for v in z))
    return lse - z[positive_index]


def _softplus(x):
    # log(1 + e^x), stable for large |x|
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))


def _smooth_l1(x, beta):
    return 0.5 * x * x / beta if abs(x) < beta else abs(x) - 0.5 * beta


def _giou(lo, hi, g_lo, g_hi):
    inter = max(0.0, min(hi, g_hi) - max(lo, g_lo))
    union = (hi - lo) + (g_hi - g_lo) - inter
    hull = max(hi, g_hi) - min(lo, g_lo)
    if hull <= 0:
        return 1.0
    if union <= 0:
        return -1.0
    return inter / union - (hull - union) / hull


def total_loss_oracle(logits, offsets, clip_emb, sent_emb, foreground, gt_offsets, saliency,
                      clip_lens, positives, aggregation, w):
    """Weighted total loss and its four components, one video and one clip at a time.

    Per video: mean weighted BCE over its clips; smooth-L1 on both offsets
    plus (1 - gIoU) of the predicted and target intervals, averaged over its
    foreground clips; InfoNCE of its positive clip against every clip of
    strictly lower saliency (0 without one).  Across the batch: InfoNCE of
    each positive clip against all sentences.  "per_video" averages each
    term over videos; "per_clip" sums it over the batch and divides by the
    batch's clip count.  ``w`` holds the loss weights by name.
    """
    b, n = len(logits), len(logits[0])
    sums = {"foreground": 0.0, "boundary": 0.0, "intra": 0.0, "inter": 0.0}
    for v in range(b):
        bce = 0.0
        for x, f in zip(logits[v], foreground[v]):
            bce += w["lambda_f"] * (f * _softplus(-x) + w["neg_weight"] * (1 - f) * _softplus(x))

        bd, num_fg = 0.0, 0
        for i in range(n):
            if not foreground[v][i]:
                continue
            num_fg += 1
            t = (i + 0.5) * clip_lens[v]
            d0, d1 = offsets[v][i]
            g0, g1 = gt_offsets[v][i]
            l1 = _smooth_l1(d0 - g0, w["smooth_l1_beta"]) + _smooth_l1(d1 - g1, w["smooth_l1_beta"])
            start, end = t - d0, t + d1
            giou = _giou(min(start, end), max(start, end), t - g0, t + g1)
            bd += w["lambda_l1"] * l1 + w["lambda_iou"] * (1.0 - giou)

        p = positives[v]
        pool = [p] + [j for j in range(n) if saliency[v][j] < saliency[v][p]]
        scores = [_cosine(clip_emb[v][j], sent_emb[v]) for j in pool]
        intra = infonce_oracle(scores, 0, w["tau"]) if len(pool) > 1 else 0.0

        pair = [_cosine(clip_emb[v][p], sent_emb[k]) for k in range(b)]
        inter = infonce_oracle(pair, v, w["tau"])

        if aggregation == "per_video":
            sums["foreground"] += bce / n
            sums["boundary"] += bd / num_fg if num_fg else 0.0
        else:
            sums["foreground"] += bce
            sums["boundary"] += bd
        sums["intra"] += w["lambda_intra"] * intra
        sums["inter"] += w["lambda_inter"] * inter
    count = b if aggregation == "per_video" else b * n
    parts = {k: s / count for k, s in sums.items()}
    return sum(parts.values()), parts


# --- frozen copy of the batched loss kernel ---------------------------------
# The numpy kernel as it was before its label-only values were built once per
# batch: masked-assignment sigmoid, a gIoU that returns both intervals'
# partials, and every constant rebuilt on each call.  The kernel in the package
# must equal it bit for bit.


def sigmoid_masked_reference(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def giou_endpoints_reference(a_lo, a_hi, b_lo, b_hi):
    """Generalised IoU of ordered intervals and its four endpoint partials."""
    a_lo, a_hi, b_lo, b_hi = (np.asarray(v, dtype=np.float64) for v in (a_lo, a_hi, b_lo, b_hi))
    inter_raw = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    live = inter_raw > 0
    inter = np.where(live, inter_raw, 0.0)
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    hull = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    degenerate = hull <= 0
    regular = ~degenerate & (union > 0)
    u = np.where(regular, union, 1.0)
    h = np.where(regular, hull, 1.0)
    value = np.where(regular, inter / u - (h - u) / h, np.where(degenerate, 1.0, -1.0))
    k_u = np.where(regular, 1.0 / h - inter / u**2, 0.0)
    k_iu = np.where(regular, 1.0 / u, 0.0) - k_u
    k_h = np.where(regular, u / h**2, 0.0)
    d_alo = k_h * (a_lo < b_lo) - k_u - k_iu * (live & (a_lo >= b_lo))
    d_ahi = k_u + k_iu * (live & (a_hi < b_hi)) - k_h * (a_hi >= b_hi)
    d_blo = k_h * (b_lo < a_lo) - k_u - k_iu * (live & (b_lo >= a_lo))
    d_bhi = k_u + k_iu * (live & (b_hi < a_hi)) - k_h * (b_hi >= a_hi)
    return value, d_alo, d_ahi, d_blo, d_bhi


def _spans_reference(times, offsets):
    start = times - offsets[..., 0]
    end = times + offsets[..., 1]
    return start, end, np.minimum(start, end), np.maximum(start, end)


def _cosine_reference(v, s):
    nv = np.linalg.norm(v, axis=-1)
    ns = np.linalg.norm(s, axis=-1)
    nvs = nv[..., :, None] * ns[..., None, :]
    c = np.sum(v[..., :, None, :] * s[..., None, :, :], axis=-1) / nvs

    def backward(g):
        a = g / nvs
        k = g * c
        gv = np.einsum("...mn,...nd->...md", a, s) - (k.sum(axis=-1) / nv**2)[..., None] * v
        gs = np.einsum("...mn,...md->...nd", a, v) - (k.sum(axis=-2) / ns**2)[..., None] * s
        return gv, gs

    return c, backward


def _infonce_rows_reference(scores, targets, tau):
    z = scores / tau
    peak = z.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(z - peak).sum(axis=-1, keepdims=True))
    target = np.asarray(targets)[..., None] == np.arange(z.shape[-1])
    grad = np.exp(z - lse) / tau - np.where(target, 1.0 / tau, 0.0)
    return lse[..., 0] - np.where(target, z, 0.0).sum(axis=-1), grad


def total_loss_kernel_reference(logits, offsets, clip_emb, sent_emb, foreground, saliency,
                                gt_offsets, times, positives, aggregation, w):
    """The batched kernel's (value, grads, components), from the labels' arrays.

    ``foreground``, ``saliency`` and ``times`` are (B, L), ``gt_offsets``
    (B, L, 2) and ``positives`` (B,); ``w`` holds the loss weights as
    attributes.  The four prediction arrays may carry leading problem axes.
    """
    positives = np.asarray(positives, dtype=np.int64)
    b, l = foreground.shape
    rows = np.arange(b)
    fg = np.asarray(foreground) == 1
    pool = saliency < saliency[rows, positives][:, None]
    pool[rows, positives] = True
    fg_count = fg.sum(axis=1).astype(np.float64)
    if aggregation == "per_video":
        scale_f = scale_b = scale_c = np.full(b, 1.0 / b)
        scale_inter = w.lambda_inter
    else:
        video_weight = 1.0 / float(b * l)
        scale_f = np.full(b, video_weight * float(l))
        scale_b = video_weight * fg_count
        scale_c = np.full(b, video_weight)
        scale_inter = w.lambda_inter * b / (b * l)
    scale_intra = w.lambda_intra * scale_c
    f = fg.astype(np.float64)

    x = logits
    n = x.shape[-1]
    per_clip = w.lambda_f * (f * np.logaddexp(0.0, -x)
                             + w.neg_weight * (1.0 - f) * np.logaddexp(0.0, x))
    g_logits = w.lambda_f * (-f * sigmoid_masked_reference(-x)
                             + w.neg_weight * (1.0 - f) * sigmoid_masked_reference(x)) / n
    l_fg = per_clip.mean(axis=-1)

    beta = w.smooth_l1_beta
    r = offsets - gt_offsets
    inner = np.abs(r) < beta
    l1_val = np.where(inner, 0.5 * r * r / beta, np.abs(r) - 0.5 * beta)
    l1_der = np.where(inner, r / beta, np.sign(r))
    pr_s, pr_e, lo, hi = _spans_reference(times, offsets)
    gt_s, gt_e, _, _ = _spans_reference(times, gt_offsets)
    g_val, dg_lo, dg_hi, _, _ = giou_endpoints_reference(lo, hi, gt_s, gt_e)
    dg_d0 = -np.where(pr_s < pr_e, dg_lo, dg_hi)
    dg_d1 = np.where(pr_e < pr_s, dg_lo, dg_hi)
    bd_clip = w.lambda_l1 * l1_val.sum(axis=-1) + w.lambda_iou * (1.0 - g_val)
    l_bd = np.where(fg, bd_clip, 0.0).sum(axis=-1) / fg_count
    per_offset = w.lambda_l1 * l1_der - w.lambda_iou * np.stack((dg_d0, dg_d1), axis=-1)
    g_offsets = np.where(fg[..., None], per_offset / fg_count[..., None, None], 0.0)

    cos, cos_backward = _cosine_reference(clip_emb, sent_emb[..., None, :])
    l_intra, g_cos = _infonce_rows_reference(np.where(pool, cos[..., 0], -np.inf),
                                             positives, w.tau)
    pos_emb = clip_emb[..., rows, positives, :]
    pair, pair_backward = _cosine_reference(pos_emb, sent_emb)
    inter_rows, inter_grad = _infonce_rows_reference(pair, np.arange(b), w.tau)
    l_inter, g_pair = inter_rows.sum(axis=-1) / b, inter_grad / b

    parts = {
        "foreground": np.sum(scale_f * l_fg, axis=-1),
        "boundary": np.sum(scale_b * l_bd, axis=-1),
        "intra": np.sum(scale_intra * l_intra, axis=-1),
        "inter": scale_inter * l_inter,
    }
    g_clip, g_sent = cos_backward((scale_intra[:, None] * g_cos)[..., None])
    g_pos, g_sent_pair = pair_backward(scale_inter * g_pair)
    g_clip[..., rows, positives, :] += g_pos
    grads = {
        "foreground_logits": scale_f[:, None] * g_logits,
        "offsets": scale_b[:, None, None] * g_offsets,
        "clip_embeddings": g_clip,
        "sentence_embeddings": g_sent[..., 0, :] + g_sent_pair,
    }
    return sum(parts.values()), grads, parts


def overfit_loop_reference(logits, offsets, clip_emb, sent_emb, foreground, saliency,
                           gt_offsets, times, positives, aggregation, w, steps, learning_rate,
                           min_step=1e-18):
    """``fit``'s step rule as a plain loop over three separate arrays.

    Gradient descent from the given start with step-halving backtracking:
    a step is kept when its loss is finite and not above the current one,
    the next step then starts from twice its size (at most
    ``learning_rate``); a step that halves below ``min_step`` leaves the
    parameters where they are.  Every evaluation is
    ``total_loss_kernel_reference``; the sentences stay fixed.  Returns the
    accepted loss after every step (the start's first) and the final
    logits, offsets and clip embeddings.
    """
    def evaluate(lg, off, emb):
        value, grads, _ = total_loss_kernel_reference(lg, off, emb, sent_emb, foreground,
                                                      saliency, gt_offsets, times, positives,
                                                      aggregation, w)
        return value, (grads["foreground_logits"], grads["offsets"], grads["clip_embeddings"])

    params = (logits, offsets, clip_emb)
    value, grads = evaluate(*params)
    trajectory = [value]
    step_size = learning_rate
    for _ in range(steps):
        trial = step_size
        while True:
            cand = tuple(p - trial * g for p, g in zip(params, grads))
            cand_value, cand_grads = evaluate(*cand)
            if np.isfinite(cand_value) and cand_value <= value:
                params, value, grads = cand, cand_value, cand_grads
                step_size = min(trial * 2.0, learning_rate)
                break
            trial *= 0.5
            if trial < min_step:
                break
        trajectory.append(value)
    return np.array(trajectory), *params


# --- frozen copy of the gradient checker's kink distances -------------------
# The distances as the samplers computed them before they read the loss's own
# label values: the boundary term's foreground clips, centres and target spans
# rebuilt from each label, one video at a time.  The package must give the
# same distances bit for bit, so every resampling decision stays the same.
# ``w`` is any object with ``lambda_l1``, ``lambda_iou`` and ``smooth_l1_beta``.


def boundary_kink_distance_reference(offsets, foreground, gt_offsets, times, w):
    """One video: ``offsets`` and ``gt_offsets`` (L, 2), ``foreground`` and ``times`` (L,)."""
    fg = np.flatnonzero(np.asarray(foreground) == 1)
    t = np.asarray(times)[fg]
    d_hat = np.asarray(offsets)[fg]
    gt = np.asarray(gt_offsets)[fg]
    dist = math.inf
    if w.lambda_l1 > 0:
        dist = min(dist, float(np.min(np.abs(np.abs(d_hat - gt) - w.smooth_l1_beta))))
    if w.lambda_iou > 0:
        pr_s, pr_e, lo, hi = _spans_reference(t, d_hat)
        gt_lo, gt_hi, _, _ = _spans_reference(t, gt)
        inter_raw = np.minimum(hi, gt_hi) - np.maximum(lo, gt_lo)
        for gap in (pr_s - pr_e, lo - gt_lo, hi - gt_hi, inter_raw):
            dist = min(dist, float(np.min(np.abs(gap))))
    return dist


def total_kink_distance_reference(offsets, foregrounds, gt_offsets, times, w):
    """A batch: the minimum of ``boundary_kink_distance_reference`` over its videos."""
    dist = math.inf
    for v in range(len(foregrounds)):
        dist = min(dist, boundary_kink_distance_reference(
            offsets[v], foregrounds[v], gt_offsets[v], times[v], w))
    return dist


def giou_kink_reference(a, b):
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    inter_raw = min(a_hi, b_hi) - max(a_lo, b_lo)
    return min(abs(a_hi - b_hi), abs(a_lo - b_lo), abs(inter_raw), a_hi - a_lo, b_hi - b_lo)


def smooth_l1_kink_reference(x, beta):
    return float(np.min(np.abs(np.abs(x) - beta)))
