"""Command-line entry points tying the library into reproducible runs.

Commands: gen-data, train-teacher, distill, eval, ablate. Every command but
`eval` accepts --config/--out/--seed; outputs land under the run directory.
`distill` trains one student, `ablate` one per ablation row, and both write
the same four files for each student, named by its row's tag: the checkpoint
`student_<tag>.ckpt`, the step log `student_<tag>_log.jsonl`, the test
detections `dets_<tag>.txt` (the format `eval` reads) and the FPPI/miss-rate
curve `curve_<tag>_<subset>.tsv` of each subset.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments, nets
from .checkpoint import checkpoint_hash
from .config import ConfigError, RunConfig, load_config, save_config
from .data import annotations_by_image
from .evalmr import (SUBSETS, EvalError, evaluate, read_detections, read_ground_truth, write_curve,
                     write_ground_truth)
from .train import DivergenceError, check_pyramid_widths, epoch_mean, load_detector


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.out is not None:
        cfg = cfg.with_out_dir(args.out)
    return cfg


def _add_common(p):
    p.add_argument("--config", help="run configuration file (defaults used if omitted)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed (overrides config)")


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    train, test = experiments.build_dataset(cfg)
    write_ground_truth(os.path.join(cfg.out_dir, "gt_train.txt"), annotations_by_image(train))
    write_ground_truth(os.path.join(cfg.out_dir, "gt_test.txt"), annotations_by_image(test))
    save_config(cfg, os.path.join(cfg.out_dir, "run_config.txt"))
    n_boxes = sum(len(s.gts) for s in train + test)
    print(f"wrote {len(train)} train / {len(test)} test scenes, {n_boxes} boxes -> {cfg.out_dir}")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _load(args)
    train, _ = experiments.build_dataset(cfg)
    path, params, records = experiments.run_teacher(cfg, train)
    for e in range(1, cfg.train.epochs + 1):
        print(f"epoch {e}: det {epoch_mean(records, e):.4f} rpn {epoch_mean(records, e, 'rpn_loss'):.4f}")
    print(f"teacher parameters: {nets.parameter_count(params)}")
    print(f"checkpoint {path} sha256 {checkpoint_hash(path)}")
    return 0


def cmd_distill(args) -> int:
    cfg = _load(args)
    teacher_ckpt = args.teacher or experiments.teacher_ckpt_path(cfg.out_dir)
    if not os.path.exists(teacher_ckpt):
        print(f"error: teacher checkpoint {teacher_ckpt} not found "
              f"(run train-teacher first)", file=sys.stderr)
        return 2
    # Read the teacher and its config before generating any scene, so a bad file fails fast.
    t_cfg, t_params = load_detector(teacher_ckpt)
    if cfg.train.distill.any_enabled:
        check_pyramid_widths(t_cfg, cfg.student, f"teacher checkpoint {teacher_ckpt} has pyramid_width")
    # Parameter counts depend only on the configs: a student that is not
    # lighter than the teacher fails here, before it trains.
    ratio = nets.compression_ratio(t_params, nets.init_params(cfg.student, seed=cfg.seed))
    train, test = experiments.build_dataset(cfg)
    experiments.check_test_subsets(test)
    ckpt, params, records, mrs = experiments.run_student_variant(cfg, (t_cfg, t_params), train, test)
    print(f"teacher parameters: {nets.parameter_count(t_params)}")
    print(f"student parameters: {nets.parameter_count(params)}")
    print(f"compression ratio: {ratio:.2f}x")
    for e in range(1, cfg.train.epochs + 1):
        print(
            f"epoch {e}: det {epoch_mean(records, e):.4f} "
            f"rpn {epoch_mean(records, e, 'rpn_loss'):.4f} "
            f"dist {epoch_mean(records, e, 'dist_total'):.4f}"
        )
    for s in SUBSETS:
        print(f"MR-{s}: {mrs[s]:.4f}")
    print(f"checkpoint {ckpt} sha256 {checkpoint_hash(ckpt)}")
    return 0


def cmd_eval(args) -> int:
    dets = read_detections(args.dets)
    gts = read_ground_truth(args.gt)
    subsets = SUBSETS if args.subset == "both" else (args.subset,)
    for s in subsets:
        curve = evaluate(dets, gts, s)
        print(f"MR-{s}: {curve.log_avg_mr:.4f}")
        if args.curve_out:
            path = args.curve_out if len(subsets) == 1 else f"{args.curve_out}.{s}"
            write_curve(path, curve)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load(args)
    rows = experiments.run_ablation(cfg, progress=lambda msg: print(msg, flush=True))
    table = experiments.format_ablation_table(rows)
    out_path = os.path.join(cfg.out_dir, "ablation.tsv")
    with open(out_path, "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"table written to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distilldet",
        description="Teacher/student pedestrian detector with hierarchical feature matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset and annotation files")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="phase one: supervised teacher training")
    _add_common(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("distill", help="phase two: train the student against a frozen teacher")
    _add_common(p)
    p.add_argument("--teacher", help="teacher checkpoint (default: <out>/teacher.ckpt)")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("eval", help="score a detection file against ground truth")
    p.add_argument("--dets", required=True, help="detections: image_id x1 y1 x2 y2 score")
    p.add_argument("--gt", required=True, help="ground truth: image_id x1 y1 x2 y2 visibility")
    p.add_argument("--subset", choices=[*SUBSETS, "both"], default="both")
    p.add_argument("--curve-out", help="write the FPPI/miss-rate curve here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run all 8 matching configurations and tabulate MR")
    _add_common(p)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, EvalError, DivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
