"""Protocol-level benchmark for mindalign.

Usage, from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory; nothing needs
installing. ``--trace 0`` times untraced protocol rounds and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced round,
prints the per-layer split, the tracing overhead, and fails the run if the
traced outputs differ from the untraced ones. ``--smoke`` swaps in the test
suite's tiny config so every workload finishes in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines give
the environment and every metric with its unit; the same data, the
failures and (with tracing) the spans are written under ``--out``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from tracing import LAYERS, OP_NAMES, Tracer, per_layer_metrics  # noqa: E402

# measured on every run and gated by the bounds in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "scratch_iter_ms": "ms",
    "pretrain_iter_ms": "ms",
    "finetune_iter_ms": "ms",
    "eval_s": "s",
    "scaling_s": "s",
    "peak_rss_mb": "MB",
}
# End-to-end results that are exact at one seed but vary between workload
# seeds by more than any bound the benchmark may set (the seed draws a new
# world). Every run prints them and checks that they repeat exactly; the
# traced run reports them under the layer that computes them.
# name -> (unit, output key, per-layer name)
SEED_SENSITIVE = {
    "final_loss": ("loss", "scratch.final_loss", "train.final_loss"),
    "image_retrieval": ("fraction", "scratch.eval.image_retrieval",
                        "evaluate.image_retrieval"),
    "pixcorr": ("r", "reconstruct.pixcorr", "evaluate.pixcorr"),
    "twoway_high": ("fraction", "reconstruct.twoway_high", "evaluate.twoway_high"),
    "scaling_k1_gain": ("normalized", "scaling.k1_gain", "evaluate.scaling_k1_gain"),
}
# share of --seconds given to run_scaling; protocol rounds get the rest
SCALING_SHARE = 1.0 / 3.0


def load_program(root: Path):
    """Import mindalign from ``root/src``; never from an installed copy."""
    src = root / "src"
    if not (src / "mindalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}/mindalign; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("mindalign")
    if Path(pkg.__file__).resolve().parent != (src / "mindalign").resolve():
        raise SystemExit(f"error: imported mindalign from {pkg.__file__}, "
                         f"not from {src}")
    for name in ("world", "model", "losses", "tensor", "optim", "train", "evaluate"):
        importlib.import_module(f"mindalign.{name}")
    return pkg


# -- environment -------------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mindalign").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "MINDALIGN_THREADS": os.environ.get("MINDALIGN_THREADS"),
    }


# -- runs ----------------------------------------------------------------------


def _timed_setup(pkg, spec, seed):
    t0 = time.perf_counter()
    inputs = wl.setup(pkg, spec, seed)
    return inputs, time.perf_counter() - t0


def _loop(call, budget: float) -> None:
    """Call once, then again while one more call fits in the budget."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        call()
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return


def _warm_up(runner, rec) -> None:
    """One protocol round whose times are dropped.

    A fresh process runs its first calls up to a third slower than later
    ones (allocator and library warm-up), and how much slower varies from
    run to run; the checks on the round still count.
    """
    runner.protocol_round(rec)
    rec.times.clear()


def timed_run(pkg, spec, args, runner_for):
    setups = [_timed_setup(pkg, spec, args.seed) for _ in range(spec.setup_repeats)]
    runner = runner_for(setups[-1][0])
    rec = wl.Recorder()
    _warm_up(runner, rec)
    _loop(lambda: runner.protocol_round(rec), args.seconds * (1 - SCALING_SHARE))
    _loop(lambda: runner.scaling(rec), args.seconds * SCALING_SHARE)
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in END_TO_END:
        if name in rec.times:
            values[name] = statistics.median(rec.times[name])
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in END_TO_END.items()}
    extra = {name: {"value": rec.outputs.get(key), "unit": unit}
             for name, (unit, key, _) in SEED_SENSITIVE.items()}
    detail = {"setup_s": [s for _, s in setups], "samples": rec.times,
              "outputs": rec.outputs}
    return rec, metrics, extra, detail, None


def _timed_pass(runner, rec, tracer=None) -> float:
    t0 = time.perf_counter()
    runner.protocol_round(rec, tracer)
    runner.scaling(rec, tracer)
    return time.perf_counter() - t0


def traced_run(pkg, spec, args, runner_for):
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{time.time_ns()}")
    tracer.install(pkg)
    try:
        runner = runner_for(wl.setup(pkg, spec, args.seed))
    finally:
        tracer.uninstall()
    plain, rec = wl.Recorder(), wl.Recorder()
    _warm_up(runner, plain)
    plain_wall = _timed_pass(runner, plain)
    tracer.install(pkg)
    try:
        traced_wall = _timed_pass(runner, rec, tracer)
    finally:
        tracer.uninstall()
    diff = sorted(k for k in set(plain.outputs) | set(rec.outputs)
                  if plain.outputs.get(k) != rec.outputs.get(k))
    if diff:
        rec.fail("trace", f"traced outputs differ from untraced in {diff[:5]}")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.failures[:0] = plain.failures
    values = per_layer_metrics(tracer, rec.counts)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / plain_wall
    for _, key, name in SEED_SENSITIVE.values():
        values[name] = rec.outputs.get(key)
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "outputs": rec.outputs, "spans": len(tracer.spans)}
    return rec, metrics, {}, detail, tracer


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in ("generate_world", "generate_dataset", "normalize"):
        units[f"world.{name}_ms"] = "ms"
    for name in ("ridge_forward", "backbone_forward", "prior_train_step",
                 "retrieval_project", "lowlevel_forward", "target_embed",
                 "prior_sample", "save_checkpoint", "load_checkpoint"):
        units[f"model.{name}_ms"] = "ms"
    units["model.checkpoint_bytes"] = "B"
    for group in wl.PARAM_GROUPS:
        units[f"model.params.{group}"] = "count"
    for name in ("bimixco_loss", "soft_clip_loss", "lowlevel_loss", "total_loss"):
        units[f"losses.{name}_ms"] = "ms"
    units["tensor.backward_ms"] = "ms"
    units["tensor.ops_per_iter"] = "count"
    for op in OP_NAMES:
        units[f"tensor.ops_per_iter.{op}"] = "count"
    units["tensor.ops_per_eval"] = "count"
    units["optim.step_ms"] = "ms"
    units["optim.zero_grad_ms"] = "ms"
    units["optim.elements_per_step"] = "count"
    units["optim.bytes_per_step"] = "B-computed"
    units["train.self_ms_per_iter"] = "ms"
    units["train.iterations"] = "count"
    units["train.samples"] = "count"
    units["train.scratch_span_coverage"] = "fraction"
    for name in ("reconstruct", "retrieval_eval", "ssim", "pixcorr", "two_way",
                 "encoding_fit", "brain_correlation"):
        units[f"evaluate.{name}_ms"] = "ms"
    for name in ("pretrain", "finetune", "scratch", "evaluate_model", "self"):
        units[f"evaluate.scaling.{name}_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    for unit, _, name in SEED_SENSITIVE.values():
        units[name] = unit
    return units


PER_LAYER_UNITS = _per_layer_units()


# -- entry point -------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; rounds start while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the test suite's tiny config: seconds, not minutes")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for the result file and spans")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    pkg = load_program(ROOT)
    spec = wl.WORKLOADS[args.workload]
    if args.smoke:
        spec = wl.smoke_spec(spec)
    env = environment(ROOT)
    print(json.dumps({"environment": env}), flush=True)

    images = wl.ImageRangeCheck(pkg.evaluate)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="run-", dir=args.out) as workdir:
            def runner_for(inputs):
                return wl.Runner(pkg, spec, inputs, images, Path(workdir))

            run = traced_run if args.trace else timed_run
            rec, metrics, extra, detail, tracer = run(pkg, spec, args, runner_for)
    finally:
        images.close()

    missing = sorted(name for name, m in metrics.items() if m["value"] is None)
    attempted, failed, failures = rec.attempted, rec.failed, rec.failures
    correct = failed == 0 and not missing
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(args.out / f"{stem}.spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "trace": args.trace, "environment": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failures": failures, "missing": missing, "metrics": metrics,
              "seed_sensitive": extra, "detail": detail}
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED {failure}", flush=True)
    for name, m in {**metrics, **extra}.items():
        print(f"{name:40s} {_fmt(m['value']):>14s} {m['unit']}", flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
