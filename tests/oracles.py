"""Independent brute-force reference implementations.

Everything here is deliberately written as plain scalar loops or one-line
formulas, sharing no code with the library, so the two sides of every
equivalence test fail independently. The exceptions are conv2d_im2col and
maxpool2x2_argmax: the library's earlier vectorized conv and pooling, kept
in plain numpy as bit-for-bit references for the current kernels.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d_loops(x, w, b, stride=1, pad=0):
    """Direct 6-nested-loop cross-correlation."""
    n, c, h, ww = x.shape
    k, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
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
                                acc += xp[ni, ci, oi * stride + ui, oj * stride + uj] * w[ki, ci, ui, uj]
                    out[ni, ki, oi, oj] = acc + (b[ki] if b is not None else 0.0)
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
    ignore overlaps are neutral."""
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
            kinds[i] = ("tp", best)
            continue
        neutral = any(
            g.ignore and iou_scalar(d, (g.x1, g.y1, g.x2, g.y2)) >= iou_thresh
            for g in gts
        )
        kinds[i] = ("ignore", None) if neutral else ("fp", None)
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
            fp += sum(1 for k in kinds if k[0] == "fp")
            tp += sum(1 for k in kinds if k[0] == "tp")
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


def conv2d_im2col(x, w, b, g, stride=1, pad=0):
    """The original im2col conv2d: one padded copy, a sliding-window view
    transposed into columns, one matmul; the backward scatters columns back
    in (i, j) order. Returns (out, gx, gw, gb) for upstream gradient g, each
    gradient as the op hands it to accumulation (gb is None without bias)."""
    n, c, h, ww = x.shape
    k, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, ho * wo)
    wm = w.reshape(k, c * kh * kw)
    out = np.matmul(wm, cols)
    if b is not None:
        out = out + b[:, None]
    out = out.reshape(n, k, ho, wo)

    gm = g.reshape(n, k, ho * wo)
    gb = gm.sum(axis=(0, 2)) if b is not None else None
    gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(wm.T, gm).reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
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
