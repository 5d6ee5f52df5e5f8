"""Desk-scale teacher/student pedestrian detector with hierarchical feature
matching: a from-scratch autodiff tensor core, an FPN two-stage detector,
all-level region cropping, three feature-matching losses, and miss-rate/FPPI
scoring."""

from .autodiff import ShapeError, Tape, TapeError, Tensor, backward
from .boxes import Detection
from .config import ConfigError, RunConfig, load_config, parse_config, save_config
from .data import SceneParams, SyntheticScene, generate_dataset
from .distill import (
    DistillConfig,
    DistillReport,
    logit_distill_loss,
    pyramid_distill_loss,
    region_distill_loss,
    total_distill_loss,
)
from .evalmr import (
    EvalCurve,
    EvalError,
    GTBox,
    evaluate,
    log_average_miss_rate,
    match_detections,
    mr_fppi_curve,
    subset_filter,
)
from .nets import (
    NetConfig,
    backbone_forward,
    default_student_config,
    default_teacher_config,
    detect,
    detection_loss,
    fpn_forward,
    generate_proposals,
    head_forward_batch,
    init_params,
    parameter_count,
    propose,
    rpn_forward,
    rpn_loss,
)
from .roi import assign_level, extract_region_batch, roi_align_batch
from .train import (
    DivergenceError,
    SGD,
    StepRecord,
    TrainConfig,
    distill_student,
    horizontal_flip,
    lr_schedule,
    train_teacher,
)

__version__ = "0.1.0"
