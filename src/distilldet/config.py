"""Run configuration: one flat text file of dotted keys fully determines an
experiment (dataset, both network configs, training schedule, matching
weights, output directory).

Format: `key = value` lines, `#` comments, blank lines ignored. Integer
tuples are comma-separated; booleans are true/false. Unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .data import SceneParams
from .distill import DistillConfig
from .nets import NetConfig, default_student_config, default_teacher_config
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dataset: SceneParams = field(default_factory=SceneParams)
    teacher: NetConfig = field(default_factory=default_teacher_config)
    student: NetConfig = field(default_factory=default_student_config)
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "runs/default"

    def __post_init__(self):
        # The text format strips values, cuts them at '#' and ends them at a line break.
        d = self.out_dir
        if "#" in d or d != d.strip() or (d and d.splitlines() != [d]):
            raise ValueError(f"out_dir {d!r} has a '#', a line break or surrounding "
                             "whitespace, which a config file cannot hold")

    @property
    def seed(self) -> int:
        return self.train.seed

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, train=replace(self.train, seed=int(seed)))

    def with_out_dir(self, out_dir: str) -> "RunConfig":
        return replace(self, out_dir=str(out_dir))


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_tuple(s: str) -> tuple:
    return tuple(int(p) for p in s.split(",") if p.strip() != "")


_SECTION_TYPES = {
    "dataset": SceneParams,
    "teacher": NetConfig,
    "student": NetConfig,
    "train": TrainConfig,
    "distill": DistillConfig,
}

# key -> (section, field name). "distill" keys live inside train.distill.
_KEYS: dict[str, tuple[str, str]] = {}
for _sec, _cls in _SECTION_TYPES.items():
    for _f in fields(_cls):
        if _f.name == "distill":
            continue  # nested section
        _KEYS[f"{_sec}.{_f.name}"] = (_sec, _f.name)
_KEYS["seed"] = ("train", "seed")
_KEYS["out_dir"] = ("", "out_dir")
del _KEYS["train.seed"]


def _convert(raw: str, annotation):
    if annotation in ("int", int):
        return int(raw)
    if annotation in ("float", float):
        return float(raw)
    if annotation in ("bool", bool):
        return _parse_bool(raw)
    if annotation in ("tuple", tuple):
        return _parse_int_tuple(raw)
    if annotation in ("str", str):
        return raw
    raise ValueError(f"unsupported config type {annotation!r}")


def parse_config(text: str) -> RunConfig:
    values: dict[str, dict] = {sec: {} for sec in _SECTION_TYPES}
    top: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected `key = value`, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        section, fname = _KEYS[key]
        if section == "":
            top[fname] = val
            continue
        cls = _SECTION_TYPES[section]
        ann = {f.name: f.type for f in fields(cls)}[fname]
        try:
            values[section][fname] = _convert(val, ann)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {exc}") from exc

    try:
        dataset = SceneParams(**values["dataset"])
        teacher = replace(default_teacher_config(), **values["teacher"])
        student = replace(default_student_config(), **values["student"])
        distill = DistillConfig(**values["distill"])
        train = TrainConfig(**{**values["train"], "distill": distill})
        return RunConfig(
            dataset=dataset, teacher=teacher, student=student, train=train,
            out_dir=top.get("out_dir", "runs/default"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Serialize; parse(dump(cfg)) reproduces cfg."""
    sections = {
        "dataset": cfg.dataset,
        "teacher": cfg.teacher,
        "student": cfg.student,
        "train": cfg.train,
        "distill": cfg.train.distill,
    }
    lines = []
    for key, (section, fname) in _KEYS.items():
        if section == "":
            lines.append(f"{key} = {cfg.out_dir}")
        else:
            lines.append(f"{key} = {_fmt(getattr(sections[section], fname))}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        fh.write(dump_config(cfg))
