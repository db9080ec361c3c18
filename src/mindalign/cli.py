"""Operator surface: generate worlds and datasets, run the training and
evaluation protocols, and emit reports, all from flat config files.

Every command echoes its fully materialized config into the output directory,
confines its side effects to that directory, and is a deterministic function
of the echoed config. Exit codes: 0 success, 2 usage/config error or a run
this machine cannot hold (out of memory, a failed write, a lost worker
process), 3 data error, 4 numeric error. Every command runs at one BLAS
thread.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import seeds
from .config import RunConfig, echo_config, load_config
from .errors import ConfigError, DataError, WorkerLostError
from .evaluate import evaluate_model, run_scaling, save_image
from .flatkv import write_csv
from .model import load_checkpoint, save_checkpoint
from .store import write_arrays
from .tensor import GraphError, NonFiniteError, ShapeError
from .train import ablation_run, finetune, pretrain, train_from_scratch
from .workers import one_blas_thread
from .world import (generate_dataset, generate_world, load_dataset_dir, normalize,
                    save_dataset_dir, save_world_manifest)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# Every flag sets one config key, and means exactly what that key means in a
# config file; the subcommand sets ``command``. "scaling --sessions" is the
# one flag whose key depends on the subcommand: there it is the session grid.
_FLAG_KEYS = {
    "--out": "paths.out",
    "--seed": "seed",
    "--data": "paths.data",
    "--checkpoint": "paths.checkpoint",
    "--subject": "train.held_out_subject",
    "--sessions": "train.n_finetune_sessions",
    "scaling --sessions": "scaling.sessions",
    "--arms": "scaling.arms",
    "--variants": "ablate.variants",
}

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mindalign",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat dotted-key config file (defaults if omitted)")
        for flag in ("--out", "--seed", *flags):
            key = _FLAG_KEYS.get(f"{command} {flag}", _FLAG_KEYS[flag])
            p.add_argument(flag, dest=key, metavar="VALUE", required=flag == "--out",
                           help=f"sets {key}")
    return parser


def _read(load, path: Path, error: type[Exception]):
    """Load a user-named path, turning an unreadable one into ``error``."""
    try:
        return load(path)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def _resolve(args) -> RunConfig:
    """The config file with the given flags' values laid over it as text."""
    given = {key: value for key, value in vars(args).items()
             if key != "config" and value is not None}
    return _read(lambda path: load_config(path, given), args.config, ConfigError)


def _out_dir(rc: RunConfig) -> Path:
    out = Path(rc.paths["out"])
    try:
        echo = echo_config(rc).encode("utf-8")
    except UnicodeEncodeError as exc:  # undecodable argv bytes arrive as surrogates
        line = exc.object.splitlines()[exc.object.count("\n", 0, exc.start)]
        raise ConfigError(f"not UTF-8 text, so the config echo cannot hold it: "
                          f"{line!r}") from None
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_bytes(echo)
    except OSError as exc:
        raise ConfigError(f"cannot create {out}: {exc.strerror or exc}") from None
    return out


def _load_data(rc: RunConfig):
    return _read(lambda path: load_dataset_dir(path, rc.world), Path(rc.paths["data"]),
                 DataError)


def _load_checkpoint(rc: RunConfig, world):
    """The checkpoint, which must have been trained on ``world``."""
    path = Path(rc.paths["checkpoint"])
    mp = _read(load_checkpoint, path, DataError)
    seed = int(mp.meta["world_seed"])
    if mp.world_cfg != world.config or seed != world.seed:
        raise DataError(f"{path}: checkpoint was trained on another world (world seed "
                        f"{seed}) than the data directory's (world seed {world.seed})")
    return mp


def _held_out(rc: RunConfig, datasets):
    sid = rc.train.held_out_subject
    if sid not in datasets:
        raise DataError(f"subject {sid!r} not in dataset directory")
    return datasets[sid]


def cmd_gen_world(rc: RunConfig) -> int:
    out = _out_dir(rc)
    generate_world(rc.world, rc.world_seed)  # validates the block
    save_world_manifest(rc.world, rc.world_seed, out / "world.txt")
    return EXIT_OK


def cmd_gen_data(rc: RunConfig) -> int:
    out = _out_dir(rc)
    world = generate_world(rc.world, rc.world_seed)
    datasets = {}
    for sid in world.subject_ids:
        raw = generate_dataset(world, sid,
                               seed=seeds.derive(rc.seed, "dataset", sid))
        datasets[sid] = normalize(raw)
    save_dataset_dir(out, world, datasets)
    return EXIT_OK


def cmd_train(rc: RunConfig) -> int:
    """pretrain, finetune or scratch: train one model, save it and its log."""
    out = _out_dir(rc)
    world, datasets = _load_data(rc)
    k = rc.train.n_finetune_sessions
    if rc.command == "pretrain":
        held = rc.train.held_out_subject
        pre = {sid: ds for sid, ds in datasets.items() if sid != held}
        mp, log = pretrain(world, pre, rc.train, rc.model)
    elif rc.command == "finetune":
        mp, log = finetune(_load_checkpoint(rc, world), world, _held_out(rc, datasets), k,
                           rc.train)
    else:
        mp, log = train_from_scratch(world, _held_out(rc, datasets), k, rc.train,
                                     rc.model)
    save_checkpoint(mp, out / "checkpoint.me2c")
    log.write_csv(out / "trainlog.csv")
    return EXIT_OK


def cmd_eval(rc: RunConfig) -> int:
    out = _out_dir(rc)
    world, datasets = _load_data(rc)
    mp = _load_checkpoint(rc, world)
    ds = _held_out(rc, datasets)
    sid = ds.subject_id
    if sid not in mp.subjects:
        raise DataError(f"checkpoint has no ridge layer for subject {sid!r}")
    report = evaluate_model(mp, world, ds, rc.eval)
    report.save(out / "report.txt")
    rec_dir = out / "recons"
    rec_dir.mkdir(exist_ok=True)
    recons = report.recons  # the images the report's metrics were computed from
    truths = ds.shared_images(world)
    for i in range(recons.shape[0]):
        save_image(rec_dir / f"recon_{i:03d}.ppm", recons[i])
        save_image(rec_dir / f"truth_{i:03d}.ppm", truths[i])
    write_arrays(rec_dir / "images.bin", {},
                 {"recon": recons.astype("<f4"), "truth": truths.astype("<f4")})
    return EXIT_OK


def cmd_scaling(rc: RunConfig) -> int:
    out = _out_dir(rc)
    world, datasets = _load_data(rc)
    sid = _held_out(rc, datasets).subject_id
    result = run_scaling(world, datasets, sid, rc.scaling_sessions,
                         rc.scaling_arms, rc.train, rc.model, rc.eval)
    for arm, curve in sorted(result.arms.items()):
        for k, report in sorted(curve.items()):
            report.save(out / f"report_{arm}_k{k}.txt")
    result.baseline.save(out / "report_baseline.txt")
    result.anchor.save(out / "report_anchor.txt")
    result.write_csv(out / "curve.csv")
    return EXIT_OK


def cmd_ablate(rc: RunConfig) -> int:
    out = _out_dir(rc)
    world, datasets = _load_data(rc)
    reports = ablation_run(world, _held_out(rc, datasets), rc.train.n_finetune_sessions,
                           rc.train, rc.model, rc.eval,
                           variants=rc.ablate_variants)
    for variant, report in reports.items():
        safe = variant.replace("+", "_")
        report.save(out / f"report_{safe}.txt")
    write_csv(out / "summary.csv", ("variant", "metric_name", "value"),
              [(variant, name, value) for variant, report in reports.items()
               for name, value in sorted(report.metrics.items())])
    return EXIT_OK


# subcommand -> help, handler, and the flags it takes beyond --config, --out
# and --seed
_COMMANDS = {
    "gen-world": ("write a world manifest", cmd_gen_world, ()),
    "gen-data": ("simulate and save all subject datasets", cmd_gen_data, ()),
    "pretrain": ("multi-subject pretraining", cmd_train, ("--data",)),
    "finetune": ("fine-tune on a held-out subject", cmd_train,
                 ("--data", "--checkpoint", "--subject", "--sessions")),
    "scratch": ("single-subject training from scratch", cmd_train,
                ("--data", "--subject", "--sessions")),
    "eval": ("evaluate a checkpoint", cmd_eval, ("--data", "--checkpoint", "--subject")),
    "scaling": ("data-scaling experiment", cmd_scaling,
                ("--data", "--subject", "--sessions", "--arms")),
    "ablate": ("component ablation sweep", cmd_ablate,
               ("--data", "--subject", "--sessions", "--variants")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _resolve(args)
        # before anything is written; Path("") is the current directory
        for flag in ("--out", *_COMMANDS[args.command][2]):
            key = _FLAG_KEYS[flag]
            if key.startswith("paths.") and not rc.paths[key[len("paths."):]]:
                raise ConfigError(f"this command needs {flag} (or {key})")
        # a numpy overflow, divide-by-zero or invalid value is a numeric
        # error, not a warning beside a result
        with np.errstate(over="raise", divide="raise", invalid="raise"), one_blas_thread():
            return _COMMANDS[args.command][1](rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, ShapeError, GraphError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MemoryError, OSError, WorkerLostError) as exc:
        # reads are mapped where they happen, so an OSError here is a write
        print(f"resource error: {_resource_failure(exc)}", file=sys.stderr)
        return EXIT_CONFIG


def _resource_failure(exc: Exception) -> str:
    """One line for a run this machine could not hold."""
    if isinstance(exc, MemoryError):
        detail = f"out of memory: {exc}" if str(exc) else "out of memory"
    elif isinstance(exc, OSError) and exc.filename:
        detail = f"cannot write {exc.filename}: {exc.strerror}"
    else:
        detail = str(exc)
    return " ".join(detail.split())


if __name__ == "__main__":
    sys.exit(main())
