"""Run configuration: one flat text file of dotted keys fully determines an
experiment (dataset, both network configs, training schedule, matching
weights, output directory).

The keys come from ``RunConfig``'s own fields: each is a section and a field
name (``teacher.widths``, ``distill.lambda_pd`` for ``train.distill``), but
the seed is ``seed`` and the output directory ``out_dir``. Each value is
parsed by its field's type.

Format: `key = value` lines, `#` comments, blank lines ignored. Integers
are ASCII digits with an optional sign, and other numbers ASCII decimals
with an optional exponent. Integer tuples are comma-separated, an empty
value being the empty tuple; booleans are true/false. Unknown keys, a key
given twice, an empty tuple item, a digit-group underscore, a non-ASCII
digit and a file that is not UTF-8 are rejected, so typos fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

from .data import SceneParams
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


def _ascii_number(pattern: str, convert, what: str):
    """A parser of the values that fully match ``pattern`` in ASCII, so the
    digit-group underscores and non-ASCII digits that ``int`` and ``float``
    also take are bad values."""
    regex = re.compile(pattern, re.ASCII | re.IGNORECASE)

    def parse(s: str):
        if not regex.fullmatch(s):
            raise ValueError(f"not {what}: {s!r}")
        return convert(s)
    return parse


_parse_int = _ascii_number(r"[+-]?[0-9]+", int, "an integer")
# inf and nan parse, so that the range check names them.
_parse_float = _ascii_number(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)",
                             float, "a number")


def _parse_int_tuple(s: str) -> tuple:
    return tuple(_parse_int(p.strip()) for p in s.split(",")) if s else ()


# Field annotations are strings (``from __future__ import annotations``).
_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool, "tuple": _parse_int_tuple,
            "str": str}


def _leaves(obj, path=()):
    """(attribute path, annotation) of each non-dataclass field under obj."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), f.type


# key -> (attribute path from RunConfig, annotation). A key is the field's
# section and name ("distill.lambda_pd" lives in train.distill); seed and
# out_dir go bare and last.
_KEYS = {".".join(path[-2:]): (path, ann) for path, ann in _leaves(RunConfig())}
_KEYS["seed"] = _KEYS.pop("train.seed")
_KEYS["out_dir"] = _KEYS.pop("out_dir")


def _rebuild(obj, values: dict, path=()):
    """obj with each field whose path is in ``values`` set, one replace per
    dataclass, so a section's cross-field checks see all of its values."""
    changes = {}
    for f in fields(obj):
        value, sub = getattr(obj, f.name), path + (f.name,)
        if is_dataclass(value):
            changes[f.name] = _rebuild(value, values, sub)
        elif sub in values:
            changes[f.name] = values[sub]
    return replace(obj, **changes)


def parse_config(text: str) -> RunConfig:
    values: dict[tuple, object] = {}
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ConfigError(f"line {ln}: key {key!r} given twice, on lines {first_line[key]} and {ln}")
        first_line[key] = ln
        path, ann = _KEYS[key]
        try:
            values[path] = _PARSERS[ann](val)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {exc}") from exc
    try:
        return _rebuild(RunConfig(), values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Serialize; parse(dump(cfg)) reproduces cfg."""
    return "".join(f"{key} = {_fmt(reduce(getattr, path, cfg))}\n" for key, (path, _) in _KEYS.items())


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
