"""Run configuration: flat dotted-key text files with full-default echo.

One master seed in the file; every subsystem stream (world generation,
training, evaluation) is derived from it, so any piece can be reproduced
independently. Unknown keys are hard errors; the echo materializes every
default, and parse(echo(cfg)) == cfg. Command-line flags are keys too:
`load_config` lays their text over the file's items before the one parse.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from . import seeds
from .errors import ConfigError
from .evaluate import EvalConfig
from .flatkv import format_flat, parse_flat, parse_value
from .model import ModelConfig
from .train import DEFAULT_ABLATION_VARIANTS, TrainConfig
from .world import WorldConfig

COMMANDS = ("gen-world", "gen-data", "pretrain", "finetune", "scratch", "eval",
            "scaling", "ablate")

# train/eval seeds are derived from the master seed, never set directly
_EXCLUDED_FIELDS = {("train", "seed"), ("eval", "seed")}

_SPECIAL_KEYS = {
    "seed": "int",
    "command": "str",
    "paths.out": "str",
    "paths.data": "str",
    "paths.checkpoint": "str",
    "scaling.sessions": "str",
    "scaling.arms": "str",
    "ablate.variants": "str",
}

_BLOCKS = {"world": WorldConfig, "model": ModelConfig, "train": TrainConfig,
           "eval": EvalConfig}


def _registry() -> dict[str, str]:
    """Every accepted key and the kind `parse_value` casts it to."""
    reg = dict(_SPECIAL_KEYS)
    for block, cls in _BLOCKS.items():
        for f in fields(cls):
            if (block, f.name) in _EXCLUDED_FIELDS:
                continue
            reg[f"{block}.{f.name}"] = f.type
    return reg


@dataclass
class RunConfig:
    command: str
    world: WorldConfig
    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig
    seed: int
    paths: dict[str, str]
    scaling_sessions: tuple[int, ...]
    scaling_arms: tuple[str, ...]
    ablate_variants: tuple[str, ...]

    @property
    def world_seed(self) -> int:
        return seeds.derive(self.seed, "world")


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated integers, "
                          f"got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Materialize a full RunConfig from flat text; unknown keys are errors."""
    return _materialize(parse_flat(text))


def _materialize(raw: dict[str, str]) -> RunConfig:
    """Cast, build and validate a RunConfig from flat ``key -> value`` text."""
    registry = _registry()
    values: dict[str, object] = {}
    for key, val in raw.items():
        if key not in registry:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = parse_value(val, registry[key], key)

    def block_kwargs(block: str, cls) -> dict:
        # excluded fields never reach ``values``: the registry rejects them
        return {f.name: values[f"{block}.{f.name}"] for f in fields(cls)
                if f"{block}.{f.name}" in values}

    master = int(values.get("seed", 0))
    try:
        world = WorldConfig(**block_kwargs("world", WorldConfig))
        model = ModelConfig(**block_kwargs("model", ModelConfig))
        train = TrainConfig(seed=seeds.derive(master, "train"),
                            **block_kwargs("train", TrainConfig))
        ev = EvalConfig(seed=seeds.derive(master, "eval"),
                        **block_kwargs("eval", EvalConfig))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    world.validate()
    model.validate()
    train.validate()
    ev.validate(world.n_shared)

    command = str(values.get("command", ""))
    if command and command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    paths = {name: str(values.get(f"paths.{name}", ""))
             for name in ("out", "data", "checkpoint")}
    sessions = _parse_int_list(str(values.get("scaling.sessions", "1,2,4,8")),
                               "scaling.sessions")
    arms = tuple(t for t in str(values.get("scaling.arms", "pretrained,scratch")
                                ).split(",") if t)
    variants = tuple(t for t in str(values.get(
        "ablate.variants", ",".join(DEFAULT_ABLATION_VARIANTS))).split(",") if t)
    return RunConfig(command=command, world=world, model=model, train=train,
                     eval=ev, seed=master, paths=paths,
                     scaling_sessions=sessions, scaling_arms=arms,
                     ablate_variants=variants)


def echo_config(rc: RunConfig) -> str:
    """Full config echo with every default materialized."""
    items: dict[str, object] = {"seed": rc.seed}
    if rc.command:
        items["command"] = rc.command
    for block, cfg in (("world", rc.world), ("model", rc.model),
                       ("train", rc.train), ("eval", rc.eval)):
        for f in fields(type(cfg)):
            if (block, f.name) in _EXCLUDED_FIELDS:
                continue
            items[f"{block}.{f.name}"] = getattr(cfg, f.name)
    for name, value in rc.paths.items():
        # the output directory is wherever the echo lives, never baked in:
        # reruns into fresh directories must reproduce bit-identical trees
        if value and name != "out":
            items[f"paths.{name}"] = value
    items["scaling.sessions"] = ",".join(str(k) for k in rc.scaling_sessions)
    items["scaling.arms"] = ",".join(rc.scaling_arms)
    items["ablate.variants"] = ",".join(rc.ablate_variants)
    return format_flat(items)


def load_config(path: Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file (all defaults when no path is given) with the
    ``overrides`` items laid over its own, exactly as if written in it."""
    text = ""
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return _materialize({**parse_flat(text), **(overrides or {})})
