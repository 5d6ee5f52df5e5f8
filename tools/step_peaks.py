"""Print the traced memory peak of each phase of default-size training steps,
for the teacher and for the row-8 student.

A step has three phases: forward (``train.supervised_step`` and, for the
student, the teacher matcher), backward (``train.backward``) and SGD
(``train.SGD.step``). A phase's peak is the most memory ``tracemalloc``
counted at any moment of that phase, from the start of ``train_detector``
on, so it includes the parameters, the momentum buffers and whatever the
previous step left alive; the frozen teacher of the student run is built
before that and is not counted. Each printed value is the highest over the
steps, in MB (10^6 bytes).

The run is fixed: 96x160 scenes from ``generate_dataset(SceneParams(n_train=4,
n_test=1), seed=0)``, ``TrainConfig(epochs=1, lr_decay_epochs=(), seed=0)``,
the default teacher, and the default student with every matching term on
(the last ablation row) against an untrained default teacher.

Usage (from the repository root, takes about 2 s)::

    PYTHONPATH=src python tools/step_peaks.py
"""

from __future__ import annotations

import tracemalloc

from distilldet import train
from distilldet.config import RunConfig
from distilldet.data import SceneParams, generate_dataset
from distilldet.experiments import ABLATION_ROWS, row_config
from distilldet.nets import init_params

PHASES = ("forward", "backward", "sgd")


def step_peaks(scenes, net_cfg, tcfg, teacher=None) -> list[dict]:
    """One dict per training step of ``train_detector``: the traced peak,
    in bytes, of each phase in ``PHASES``."""
    steps: list[dict] = []
    real_step, real_backward, real_sgd = train.supervised_step, train.backward, train.SGD.step

    def mark(phase):
        steps[-1][phase] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    def forward(*args):
        steps.append({})
        tracemalloc.reset_peak()
        return real_step(*args)

    def backward(loss):
        mark("forward")
        real_backward(loss)
        mark("backward")

    def sgd(self, lr):
        real_sgd(self, lr)
        mark("sgd")

    train.supervised_step, train.backward, train.SGD.step = forward, backward, sgd
    tracemalloc.start()
    try:
        train.train_detector(scenes, net_cfg, tcfg, teacher=teacher)
    finally:
        tracemalloc.stop()
        train.supervised_step, train.backward, train.SGD.step = real_step, real_backward, real_sgd
    return steps


def main() -> int:
    scenes, _ = generate_dataset(SceneParams(n_train=4, n_test=1), seed=0)
    cfg = row_config(RunConfig(train=train.TrainConfig(epochs=1, lr_decay_epochs=(), seed=0)),
                     ABLATION_ROWS[-1])
    matcher = train._TeacherContext(cfg.teacher, init_params(cfg.teacher, seed=0), cfg.student,
                                    cfg.train.distill)
    runs = (("teacher", cfg.teacher, cfg.train, None),
            ("student", cfg.student, cfg.train, matcher))
    print("run      " + "".join(f"{p:>10}" for p in PHASES) + "   (MB, highest over steps)")
    for name, net_cfg, run_cfg, teacher in runs:
        steps = step_peaks(scenes, net_cfg, run_cfg, teacher)
        print(f"{name:<9}" + "".join(f"{max(s[p] for s in steps) / 1e6:>10.1f}" for p in PHASES),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
