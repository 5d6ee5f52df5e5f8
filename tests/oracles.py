"""Independent brute-force reference implementations.

Everything here is deliberately written as plain scalar loops or one-line
formulas, sharing no code with the library, so the two sides of every
equivalence test fail independently. The exceptions are conv2d_im2col and
maxpool2x2_argmax: the library's earlier vectorized conv and pooling, kept
in plain numpy as bit-for-bit references for the current kernels;
interp_matrix_mean and roi_align_per_channel, the earlier RoI crop operators
and per-box, per-channel crop, kept as references for the box-wise GEMM crop
(its operators byte-equal, its crops equal to rounding);
interp_operators_level, roi_align_levels_concat and
generate_proposals_per_level, the earlier one-pass-per-level crop
operators, all-level crop and proposal stage, kept as bit-for-bit
references for the one-call crop and the one-pass proposals (the last uses
the library's box helpers, since only its per-level batching is under
test), with join_rpn_levels, which lays per-level RPN outputs and anchors
out as the library joins them; detect_tail, the earlier end of detect after
the head, kept as a bit-for-bit reference for the box selection it now
shares with the proposal stage (it too uses the library's box helpers);
relu_where,
iou_where and maxpool2x2_backward_where, the earlier np.where forms of three
elementwise steps, kept as bit-for-bit references in float32 and float64;
sigmoid_masked, the earlier boolean-mask logistic, kept as a bit-for-bit
reference for the one-pass sigmoid;
sq_error_sum_chain, the earlier sub -> mul -> tsum graph of the
squared-error sum replayed in numpy, kept as a bit-for-bit reference for
the one-op sq_error_sum; smooth_field, the earlier per-channel scene
background, kept as a bit-for-bit reference for the cached upsampling plan;
and mse, a test loss composed from library ops, which the detector never
runs.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import distilldet.autodiff as ad


def conv2d_loops(x, w, b, pad=0):
    """Direct 6-nested-loop cross-correlation at stride 1."""
    n, c, h, ww = x.shape
    k, _, kh, kw = w.shape
    ho = h + 2 * pad - kh + 1
    wo = ww + 2 * pad - kw + 1
    xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + ww] = x
    out = np.zeros((n, k, ho, wo))
    for ni in range(n):
        for ki in range(k):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ui in range(kh):
                            for uj in range(kw):
                                acc += xp[ni, ci, oi + ui, oj + uj] * w[ki, ci, ui, uj]
                    out[ni, ki, oi, oj] = acc + b[ki]
    return out


def matmul_loops(a, b):
    n, d = a.shape
    d2, m = b.shape
    assert d == d2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(d):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def bilinear_formula(f, x, y):
    """Closed-form w*h weighted corner sum with border clamping."""
    _, h, w = f.shape
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    x0 = min(int(math.floor(x)), max(w - 2, 0))
    y0 = min(int(math.floor(y)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    wx = x - x0
    wy = y - y0
    return ((1 - wy) * (1 - wx) * f[:, y0, x0] + (1 - wy) * wx * f[:, y0, x1]
            + wy * (1 - wx) * f[:, y1, x0] + wy * wx * f[:, y1, x1])


def roi_align_loops(f, box, stride, out_size, samples):
    """Per-bin, per-sample averaging over bilinear_formula lookups."""
    c = f.shape[0]
    x1, y1, x2, y2 = box
    fx1, fy1 = x1 / stride, y1 / stride
    fw = max((x2 - x1) / stride, 1e-6)
    fh = max((y2 - y1) / stride, 1e-6)
    bw, bh = fw / out_size, fh / out_size
    out = np.zeros((c, out_size, out_size))
    for i in range(out_size):
        for j in range(out_size):
            acc = np.zeros(c)
            for si in range(samples):
                for sj in range(samples):
                    yy = fy1 + (i + (si + 0.5) / samples) * bh
                    xx = fx1 + (j + (sj + 0.5) / samples) * bw
                    acc += bilinear_formula(f, xx, yy)
            out[:, i, j] = acc / (samples * samples)
    return out


def iou_scalar(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    ua = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / ua if ua > 0 else 0.0


def nms_quadratic(boxes, scores, thresh):
    """O(n^2) greedy suppression, highest score first, stable on ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    keep = []
    for i in order:
        ok = True
        for j in keep:
            if iou_scalar(boxes[i], boxes[j]) > thresh:
                ok = False
                break
        if ok:
            keep.append(i)
    return keep


def sq_mean_loops(pairs):
    """Sum of squared differences over (a, b) array pairs / total count."""
    total = 0.0
    count = 0
    for a, b in pairs:
        fa = np.asarray(a).reshape(-1)
        fb = np.asarray(b).reshape(-1)
        for u, v in zip(fa, fb):
            total += (u - v) ** 2
        count += fa.size
    return total / count if count else 0.0


def greedy_match_ref(dets, gts, iou_thresh=0.5):
    """Independent greedy matcher mirroring the documented protocol:
    detections by descending score, best unmatched non-ignore overlap wins,
    ignore overlaps are neutral. Returns (kinds, taken) like
    ``match_detections``."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(gts)
    kinds = [None] * len(dets)
    for i in order:
        d = (dets[i].x1, dets[i].y1, dets[i].x2, dets[i].y2)
        best, best_v = -1, -1.0
        for j, g in enumerate(gts):
            if g.ignore or taken[j]:
                continue
            v = iou_scalar(d, (g.x1, g.y1, g.x2, g.y2))
            if v >= iou_thresh and v > best_v:
                best, best_v = j, v
        if best >= 0:
            taken[best] = True
            kinds[i] = "tp"
            continue
        neutral = any(
            g.ignore and iou_scalar(d, (g.x1, g.y1, g.x2, g.y2)) >= iou_thresh
            for g in gts
        )
        kinds[i] = "ignore" if neutral else "fp"
    return kinds, taken


def curve_by_rematching(image_results, num_images, iou_thresh=0.5):
    """MR/FPPI points built the slow way: filter detections at each distinct
    score and rerun matching from scratch."""
    total_gt = sum(sum(0 if g.ignore else 1 for g in gts) for _, gts in image_results)
    scores = sorted({d.score for dets, _ in image_results for d in dets}, reverse=True)
    points = []
    for t in scores:
        fp = 0
        tp = 0
        for dets, gts in image_results:
            kept = [d for d in dets if d.score >= t]
            kinds, _ = greedy_match_ref(kept, gts, iou_thresh)
            fp += kinds.count("fp")
            tp += kinds.count("tp")
        points.append((fp / num_images, (total_gt - tp) / total_gt))
    return points


def log_avg_mr_script(points):
    """Scripted geometric-mean sampler over the 9 standard references."""
    refs = [10 ** (-2 + i / 4) for i in range(9)]
    samples = []
    for ref in refs:
        best = None
        for fppi, miss in points:
            if fppi <= ref:
                best = miss
        samples.append(best if best is not None else points[0][1])
    if all(s == 0.0 for s in samples):
        return 0.0
    return math.exp(sum(math.log(max(s, 1e-10)) for s in samples) / len(samples))


def conv2d_im2col(x, w, b, g, pad=0):
    """The original im2col conv2d at stride 1: one padded copy, a
    sliding-window view transposed into columns, one matmul; the backward
    scatters columns back in (i, j) order. Returns (out, gx, gw, gb) for
    upstream gradient g, each gradient as the op hands it to accumulation."""
    n, c, h, ww = x.shape
    k, _, kh, kw = w.shape
    ho = h + 2 * pad - kh + 1
    wo = ww + 2 * pad - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, ho * wo)
    wm = w.reshape(k, c * kh * kw)
    out = np.matmul(wm, cols)
    out = out + b[:, None]
    out = out.reshape(n, k, ho, wo)

    gm = g.reshape(n, k, ho * wo)
    gb = gm.sum(axis=(0, 2))
    gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(wm.T, gm).reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + ho, j : j + wo] += gcols[:, :, i, j]
    gx = gxp[:, :, pad : pad + h, pad : pad + ww] if pad else gxp
    return out, gx, gw, gb


def maxpool2x2_argmax(x, g):
    """The original 2x2/stride-2 max pool: argmax over each window reshaped
    to 4 row-major entries, gradient scattered to the first maximum.
    Returns (out, gx) for upstream gradient g."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    blocks = x.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    gb = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
    gx = gb.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, gx


def interp_matrix_mean(lo, size, limit, out_size, samples, dtype):
    """The earlier 1-D crop operators [R, out_size, limit]: each sample's
    clamped two-point weights scattered into its own row in float64, the
    rows averaged over the samples axis with ``mean``, then cast."""
    n_roi = lo.shape[0]
    offs = (np.arange(out_size)[:, None] + (np.arange(samples)[None, :] + 0.5) / samples).reshape(-1)
    coords = lo[:, None] + offs[None, :] * (size / out_size)[:, None]
    c = np.clip(coords, 0.0, limit - 1.0)
    i0 = np.floor(c).astype(np.intp)
    np.clip(i0, 0, max(limit - 2, 0), out=i0)
    i1 = np.minimum(i0 + 1, limit - 1)
    frac = c - i0
    rows = np.zeros((n_roi, out_size * samples, limit))
    rr = np.arange(n_roi)[:, None]
    pp = np.arange(out_size * samples)[None, :]
    rows[rr, pp, i0] += 1.0 - frac
    rows[rr, pp, i1] += frac
    return rows.reshape(n_roi, out_size, samples, limit).mean(axis=2).astype(dtype, copy=False)


def roi_align_per_channel(f, boxes, stride, out_size, samples, g=None):
    """The earlier roi_align_batch on a [C,H,W] array: one tensordot applies
    every box's row operator, then one small matmul per box and channel its
    column operator. Returns (out [R,C,S,S], gf) for upstream gradient g
    (gf is None without g), all in f's dtype."""
    _, h, w = f.shape
    boxes = np.asarray(boxes, np.float64).reshape(-1, 4)
    fw = np.maximum((boxes[:, 2] - boxes[:, 0]) / stride, 1e-6)
    fh = np.maximum((boxes[:, 3] - boxes[:, 1]) / stride, 1e-6)
    ay = interp_matrix_mean(boxes[:, 1] / stride, fh, h, out_size, samples, f.dtype)
    ax = interp_matrix_mean(boxes[:, 0] / stride, fw, w, out_size, samples, f.dtype)
    t1 = np.tensordot(ay, f, axes=(2, 1))
    out = np.ascontiguousarray(np.matmul(t1.transpose(0, 2, 1, 3), ax.transpose(0, 2, 1)[:, None]))
    if g is None:
        return out, None
    t2 = np.matmul(g, ax[:, None])
    return out, np.tensordot(ay, t2, axes=([0, 1], [0, 2])).transpose(1, 0, 2)


def interp_operators_level(boxes, stride, h, w, out_size, samples, dtype):
    """The earlier per-level crop operators (ay [R,S,H], ax [R,S,W]): both
    axes of one level from one float64 bincount, divided by ``samples``,
    then cast."""
    n_roi = boxes.shape[0]
    corners = boxes.T[[1, 0, 3, 2]]
    lo = corners[:2] / stride
    size = np.maximum((corners[2:] - corners[:2]) / stride, 1e-6)
    offs = np.arange(out_size)[:, None] + (np.arange(samples)[None, :] + 0.5) / samples
    coords = lo[:, :, None, None] + offs * (size / out_size)[:, :, None, None]
    limit = np.array((h, w)).reshape(2, 1, 1, 1)
    c = np.minimum(np.maximum(coords, 0.0), limit - 1.0)
    i0 = c.astype(np.intp)
    np.minimum(i0, np.maximum(limit - 2, 0), out=i0)
    i1 = np.minimum(i0 + 1, limit - 1)
    frac = c - i0
    rows = np.arange(n_roi * out_size).reshape(1, n_roi, out_size, 1)
    start = rows * limit + np.array((0, n_roi * out_size * h)).reshape(2, 1, 1, 1)
    idx = np.stack((i0, i1), axis=-1) + start[..., None]
    weights = np.stack((1.0 - frac, frac), axis=-1)
    ops = np.bincount(idx.reshape(-1), weights.reshape(-1), minlength=n_roi * out_size * (h + w))
    ops /= samples
    ops = ops.astype(dtype, copy=False)
    split = n_roi * out_size * h
    return ops[:split].reshape(n_roi, out_size, h), ops[split:].reshape(n_roi, out_size, w)


def roi_align_levels_concat(levels, boxes, strides, out_size, samples, g=None):
    """The earlier all-level crop: one box-wise GEMM crop per [C,H,W] level,
    each copied out transposed, then joined along channels by
    ``np.concatenate``. Returns (out [R, sum C, S, S], grads) for upstream
    gradient g, grads being one input gradient per level (None without g)."""
    boxes = np.asarray(boxes, np.float64).reshape(-1, 4)
    n_roi, s = boxes.shape[0], out_size
    crops, grads, c0 = [], [], 0
    for f, stride in zip(levels, strides):
        c, h, w = f.shape
        ay, ax = interp_operators_level(boxes, stride, h, w, s, samples, f.dtype)
        ay2 = ay.reshape(n_roi * s, h)
        t1 = ay2 @ f.transpose(1, 0, 2).reshape(h, c * w)
        ax_t = np.ascontiguousarray(ax.transpose(0, 2, 1))
        t3 = np.matmul(t1.reshape(n_roi, s * c, w), ax_t)
        crops.append(np.ascontiguousarray(t3.reshape(n_roi, s, c, s).transpose(0, 2, 1, 3)))
        if g is not None:
            gt = np.ascontiguousarray(g[:, c0:c0 + c].transpose(0, 2, 1, 3)).reshape(n_roi, s * c, s)
            t2 = np.matmul(gt, ax).reshape(n_roi * s, c * w)
            grads.append((ay2.T @ t2).reshape(h, c, w).transpose(1, 0, 2))
        c0 += c
    return np.concatenate(crops, axis=1), (grads if g is not None else None)


def generate_proposals_per_level(rpn_out, anchors, pre_nms_k, post_nms_k, nms_iou, img_w, img_h):
    """The earlier proposal stage: each level scored and decoded in its own
    pass, the boxes joined and clipped, then ranked and deduplicated with
    the library's box helpers."""
    from distilldet.boxes import clip_boxes, decode_deltas, nms, sigmoid

    all_boxes, all_scores = [], []
    for (obj, box), anc in zip(rpn_out, anchors):
        all_scores.append(sigmoid(obj.data.reshape(-1)))
        all_boxes.append(decode_deltas(anc, box.data.reshape(4, -1).T))
    boxes = clip_boxes(np.concatenate(all_boxes), img_w, img_h)
    scores = np.concatenate(all_scores)
    valid = (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
    boxes, scores = boxes[valid], scores[valid]
    if len(scores) == 0:
        return np.zeros((0, 4))
    order = np.argsort(-scores, kind="stable")[:pre_nms_k]
    boxes, scores = boxes[order], scores[order]
    return boxes[nms(boxes, scores, nms_iou, max_keep=post_nms_k)]


def detect_tail(proposals, class_scores, box_deltas, img_w, img_h, score_thresh, nms_iou):
    """The earlier end of detect: float64 softmax scores of the head's [R,2]
    class outputs, box deltas [R,4] decoded onto the [R,4] proposals and
    clipped, one mask for a score above ``score_thresh`` and a box that is
    not degenerate, then NMS at ``nms_iou`` with no rank cut and no cap."""
    from distilldet.boxes import Detection, clip_boxes, decode_deltas, nms

    z = class_scores.astype(np.float64)
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    scores = probs[:, 1]
    boxes = clip_boxes(decode_deltas(proposals, box_deltas), img_w, img_h)
    ok = (scores > score_thresh) & (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
    boxes, scores = boxes[ok], scores[ok]
    if len(scores) == 0:
        return []
    keep = nms(boxes, scores, nms_iou)
    return [Detection(*(float(v) for v in boxes[i]), score=float(scores[i])) for i in keep]


def join_rpn_levels(rpn_out, anchors):
    """Per-level (obj [1,h,w], box [4,h,w]) tensor pairs and [h*w,4] anchor
    grids joined as rpn_forward and pyramid_anchors return them:
    ((logits [A], deltas [A,4]), anchors [A,4]), the deltas a transposed
    view of the levels joined along locations."""
    logits = ad.concat([obj.reshape((obj.data.size,)) for obj, _ in rpn_out])
    deltas = ad.concat([box.reshape((4, box.data.size // 4)) for _, box in rpn_out], axis=1)
    return (logits, ad.transpose(deltas, (1, 0))), np.concatenate(anchors)


def relu_where(x):
    """The earlier relu forward: x where x > 0, else 0.0."""
    return np.where(x > 0.0, x, 0.0)


def sigmoid_masked(z):
    """The earlier boxes.sigmoid: 1/(1+exp(-z)) on the boolean-indexed
    z >= 0, exp(z)/(1+exp(z)) on the rest, in float64."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def iou_where(a, b):
    """The earlier iou_matrix: 0.0 wherever the union is not positive."""
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0.0, inter / np.maximum(union, 1e-300), 0.0)


def maxpool2x2_backward_where(x, g):
    """The earlier maxpool2x2 input gradient, in x's dtype: g at the first
    maximum of each window (row-major), 0.0 elsewhere."""
    quarters = [x[:, :, di::2, dj::2] for di in (0, 1) for dj in (0, 1)]
    out = np.maximum(np.maximum(quarters[3], quarters[2]), np.maximum(quarters[1], quarters[0]))
    gx = np.empty_like(x)
    taken = np.zeros(out.shape, dtype=bool)
    for k, q in enumerate(quarters):
        first = ~taken if k == 3 else (q == out) & ~taken
        gx[:, :, k // 2 :: 2, k % 2 :: 2] = np.where(first, g, 0.0)
        taken |= first
    return gx


def mse(a, b):
    """Mean of the elementwise squared differences of tensor ``a`` and
    array ``b``, as a graph of library ops (sq_error_sum and a scale)."""
    return ad.mul(ad.sq_error_sum(a, b), 1.0 / a.data.size)


def sq_error_sum_chain(pred, target, g):
    """(value, pred gradient) of the earlier sub -> mul -> tsum graph of the
    squared-error sum, replayed rule by rule in numpy for an incoming 0-d
    gradient ``g``: tsum spreads ``g`` in ``pred``'s dtype, mul returns
    ``G * d`` once per operand (the first kept as d's gradient after
    ``+= 0.0``, the second added into it), and sub hands d's gradient on,
    which pred copies into zeros."""
    d = pred - target
    sq = d * d
    value = np.asarray(sq.sum())
    spread = np.full_like(sq, float(g))
    grad_d = spread * d
    grad_d += 0.0
    grad_d += spread * d
    return value, np.zeros_like(pred) + grad_d


def smooth_field(rng, h, w, cells=8, lo=0.3, hi=0.7):
    """The earlier scene background, one channel: a coarse random grid
    bilinearly interpolated, with the weights rebuilt on every call."""
    gh, gw = cells + 1, cells + 1
    grid = rng.uniform(lo, hi, size=(gh, gw))
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.minimum(ys.astype(int), gh - 2)
    x0 = np.minimum(xs.astype(int), gw - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g00 = grid[y0][:, x0]
    g01 = grid[y0][:, x0 + 1]
    g10 = grid[y0 + 1][:, x0]
    g11 = grid[y0 + 1][:, x0 + 1]
    return (1 - fy) * (1 - fx) * g00 + (1 - fy) * fx * g01 + fy * (1 - fx) * g10 + fy * fx * g11
