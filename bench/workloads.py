"""Workload inputs and the protocol calls the benchmark times.

The calls follow the paper's workflow in a closed loop (each call starts
when the previous one returns). A protocol round is phases 1-3; phase 4 is
timed on its own because one call costs as much as several rounds:

1. ``scratch``: ``train_from_scratch`` on the held-out subject's 8 sessions at
   batch 12, then a retrieval-only ``evaluate_model``.
2. ``shared-subject``: ``pretrain`` on every other subject, the
   ``save_checkpoint`` -> ``load_checkpoint`` hand-off the CLI takes, a
   ridge-only ``finetune`` on the held-out subject's first session, and a
   retrieval-only ``evaluate_model``.
3. ``reconstruct``: ``evaluate_model`` with reconstruction and brain
   correlation on the scratch model, repeated; inference only.
4. ``scaling``: one ``run_scaling`` call, both arms over the session grid.

Every protocol call is one operation: it fails if it raises or if its output
check fails.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# the suite's small configs, restated so the benchmark does not import tests/;
# bench/tests checks that they stay equal to the suite's
TINY_WORLD = dict(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                  n_subjects=4, voxels_min=40, voxels_max=80, n_sessions=4,
                  trials_per_session=20, n_shared=16)
TINY_MODEL = dict(h=64, t_steps=8, d_cond=64, denoiser_hidden=128,
                  retr_hidden=64, d_retr=16, ll_hidden=64, ll_trunk=64,
                  teacher_hidden=32, m_tokens=6, d_token_b=16)
SCALE_WORLD = dict(image_hw=12, channels=3, n_tokens=12, d_token=40, vae_hw=4,
                   n_subjects=4, voxels_min=90, voxels_max=130, n_sessions=8,
                   trials_per_session=25, n_shared=40)
SCALE_MODEL = dict(h=128, t_steps=16, d_cond=128, denoiser_hidden=256,
                   retr_hidden=128, d_retr=32, ll_hidden=128, ll_trunk=128,
                   teacher_hidden=48, m_tokens=8, d_token_b=24)


@dataclass(frozen=True)
class Spec:
    """Everything a workload fixes; the seed supplies the rest."""

    name: str
    world: dict
    model: dict
    pretrain_sessions: int | None      # sessions per pretraining subject
    pretrain_epochs: int
    scaling_trials_per_session: int | None  # held-out trials in the scaling arm
    scratch_epochs: int                # enough that the model beats chance
    finetune_epochs: int
    eval_pool: int
    eval_repetitions: int
    scaling_grid: tuple[int, ...]
    scaling_pool: int
    scaling_repetitions: int
    setup_repeats: int = 3
    eval_repeats: int = 2          # reconstruct evals per protocol round
    batch_size: int = 12
    per_subject: int = 4


WORKLOADS = {
    # desk defaults: 16x16x3 images, 8 subjects, 3.6M parameters, 64 denoise
    # steps. Pretraining subjects get 1 session (2 epochs in the pretrain
    # phase, 20 iterations) and the scaling arm one batch per session, so that
    # a run fits three protocol rounds and one run_scaling call in about 50 s
    # on 2 cores.
    "desk": Spec(name="desk", world={}, model={}, pretrain_sessions=1,
                 pretrain_epochs=2, scaling_trials_per_session=12, scratch_epochs=1,
                 finetune_epochs=8, eval_pool=50, eval_repetitions=30,
                 scaling_grid=(1, 2, 4, 8), scaling_pool=50, scaling_repetitions=10),
    # acceptance criterion 5's config: 12x12 images, 4 subjects, 16 denoise
    # steps; per-op overhead rather than BLAS sets the pace.
    "scale": Spec(name="scale", world=SCALE_WORLD, model=SCALE_MODEL,
                  pretrain_sessions=None, pretrain_epochs=1,
                  scaling_trials_per_session=None, scratch_epochs=3,
                  finetune_epochs=8, eval_pool=40, eval_repetitions=10,
                  scaling_grid=(1, 2, 4, 8), scaling_pool=40, scaling_repetitions=10),
}


def smoke_spec(spec: Spec) -> Spec:
    """The same protocol at the test suite's tiny config, in seconds."""
    return replace(spec, world=TINY_WORLD, model=TINY_MODEL, pretrain_sessions=None,
                   pretrain_epochs=1, scaling_trials_per_session=None,
                   scratch_epochs=10, finetune_epochs=2, eval_pool=16,
                   eval_repetitions=5, scaling_grid=(1, 2, 4), scaling_pool=16,
                   scaling_repetitions=5, setup_repeats=1)


def _child_seed(seed: int, *labels: int) -> int:
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


@dataclass
class Inputs:
    world: object
    held_out: str
    target: object                # held-out subject, every session
    pretrain_sets: dict
    scaling_sets: dict
    train_seed: int
    eval_seed: int


def setup(pkg, spec: Spec, seed: int) -> Inputs:
    """Generate the world and every dataset a round uses, from the seed."""
    world_mod = pkg.world
    wcfg = world_mod.WorldConfig(**spec.world)
    world = world_mod.generate_world(wcfg, seed=_child_seed(seed, 0))
    sids = world.subject_ids
    held = sids[-1]

    def dataset(sid, label, **kw):
        return world_mod.normalize(world_mod.generate_dataset(
            world, sid, seed=_child_seed(seed, 1, label), **kw))

    target = dataset(held, len(sids))
    pretrain_sets = {sid: dataset(sid, i, n_sessions=spec.pretrain_sessions)
                     for i, sid in enumerate(sids[:-1])}
    scaling_sets = dict(pretrain_sets)
    scaling_sets[held] = target
    if spec.scaling_trials_per_session is not None:
        scaling_sets[held] = dataset(
            held, len(sids) + 1, trials_per_session=spec.scaling_trials_per_session)
    return Inputs(world=world, held_out=held, target=target,
                  pretrain_sets=pretrain_sets, scaling_sets=scaling_sets,
                  train_seed=_child_seed(seed, 2) % (2 ** 31),
                  eval_seed=_child_seed(seed, 3) % (2 ** 31))


# -- output checks ---------------------------------------------------------


def _expected_iterations(datasets: dict, per_subject: int, epochs: int) -> int:
    n_min = min(int((~ds.is_shared).sum()) for ds in datasets.values())
    return epochs * (n_min // per_subject)


def _check_log(log, expected_rows: int) -> str | None:
    if len(log.rows) != expected_rows:
        return f"{len(log.rows)} log rows, expected {expected_rows}"
    bad = [row for row in log.rows if not all(math.isfinite(v) for v in row[2:])]
    if bad:
        return f"non-finite loss at iteration {bad[0][0]}"
    return None


def _check_metrics(report, chance: float | None) -> str | None:
    for name, value in report.metrics.items():
        if not math.isfinite(value):
            return f"metric {name} is {value}"
    if chance is not None and not report.metrics["image_retrieval"] > chance:
        return (f"image_retrieval {report.metrics['image_retrieval']} not above "
                f"chance {chance}")
    return None


class ImageRangeCheck:
    """Records the range of the final images ``reconstruct`` returns.

    ``evaluate_model`` scores reconstructions without returning them, so the
    benchmark wraps the name it looks up to see them. The wrapper stays in
    place for traced and untraced rounds alike.
    """

    def __init__(self, evaluate_mod):
        self.lo, self.hi = math.inf, -math.inf
        self._mod = evaluate_mod
        self._original = evaluate_mod.reconstruct

        def checked(*args, **kwargs):
            out = self._original(*args, **kwargs)
            self.lo = min(self.lo, float(out["final"].min()))
            self.hi = max(self.hi, float(out["final"].max()))
            return out

        evaluate_mod.reconstruct = checked

    def reset(self) -> None:
        self.lo, self.hi = math.inf, -math.inf

    def problem(self) -> str | None:
        if self.lo == math.inf:
            return "evaluate_model never called reconstruct"
        if not (0.0 <= self.lo and self.hi <= 1.0):
            return f"final images span [{self.lo}, {self.hi}], outside [0, 1]"
        return None

    def close(self) -> None:
        self._mod.reconstruct = self._original


# -- protocol calls ----------------------------------------------------------


@dataclass
class Recorder:
    """Operations, timings and outputs of one pass over the protocols."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)   # must repeat exactly
    counts: dict[str, float] = field(default_factory=dict)

    def attempt(self, name: str, call, check=None):
        """Run one protocol call; returns (result, seconds) or (None, None).

        Garbage left by earlier calls is collected first, outside the timed
        region: autodiff graphs are reference cycles, so without this each
        call would pay, at a point that varies from run to run, to collect
        the graphs of the calls before it.
        """
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - t0
            problem = check(result) if check is not None else None
        except Exception as exc:  # a failing call is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(name, problem)
            return None, None
        return result, elapsed

    def fail(self, name: str, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {problem}")

    def skip(self, name: str, reason: str) -> None:
        self.attempted += 1
        self.fail(name, f"skipped, {reason}")

    def output(self, name: str, key: str, value) -> None:
        """Keep a result that must be identical every time the call repeats."""
        if key in self.outputs and self.outputs[key] != value:
            self.fail(name, f"{key} was {self.outputs[key]!r}, now {value!r}")
        self.outputs.setdefault(key, value)

    def time(self, metric: str, seconds: float) -> None:
        self.times.setdefault(metric, []).append(seconds)

    def add(self, counter: str, n: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n


class Runner:
    """Runs the protocol calls of one workload against fixed inputs.

    Calls go through module attributes (``pkg.train.pretrain``, ...) so that
    the tracer's wrappers see exactly the calls an untraced pass makes.
    """

    def __init__(self, pkg, spec: Spec, inputs: Inputs, images: ImageRangeCheck,
                 workdir: Path):
        self.pkg, self.spec, self.inputs = pkg, spec, inputs
        self.images, self.workdir = images, workdir
        self.mcfg = pkg.model.ModelConfig(**spec.model)
        self.n_sessions = int(inputs.target.session_index.max()) + 1
        self.base = pkg.train.TrainConfig(
            epochs=1, batch_size=spec.batch_size,
            samples_per_subject_per_batch=spec.per_subject,
            seed=inputs.train_seed, held_out_subject=inputs.held_out)
        self.retr_cfg = pkg.evaluate.EvalConfig(
            pool_size=spec.eval_pool, repetitions=spec.eval_repetitions,
            seed=inputs.eval_seed)
        self.chance = 1.0 / spec.eval_pool

    def protocol_round(self, rec: Recorder, tracer=None) -> None:
        """scratch, shared-subject and reconstruct, in that order."""
        with _phase(tracer, "scratch"):
            scratch_mp = self._scratch(rec, tracer)
        with _phase(tracer, "shared-subject"):
            self._shared_subject(rec, tracer)
        with _phase(tracer, "reconstruct"):
            self._reconstruct(rec, tracer, scratch_mp)

    def scaling(self, rec: Recorder, tracer=None) -> None:
        ev, inp, spec = self.pkg.evaluate, self.inputs, self.spec
        cfg = ev.EvalConfig(pool_size=spec.scaling_pool,
                            repetitions=spec.scaling_repetitions, seed=inp.eval_seed)
        with _phase(tracer, "scaling"):
            result, secs = rec.attempt("scaling", lambda: ev.run_scaling(
                inp.world, inp.scaling_sets, inp.held_out, spec.scaling_grid,
                ("pretrained", "scratch"), self.base, self.mcfg, cfg), _check_scaling)
        if result is None:
            return
        rec.time("scaling_s", secs)
        rec.output("scaling", "scaling.k1_gain", _k1_gain(result))
        for arm, curve in result.arms.items():
            for k, report in curve.items():
                for key, value in report.metrics.items():
                    rec.output("scaling", f"scaling.{arm}.{k}.{key}", value)

    def _train(self, rec, tracer, name, call, datasets, per_subject, epochs):
        expected = _expected_iterations(datasets, per_subject, epochs)
        model_mod = self.pkg.model

        def check(out):
            return _check_log(out[1], expected) or _check_param_counts(model_mod, out[0])

        with _scope(tracer, "train"):
            result, secs = rec.attempt(name, call, check)
        if result is None:
            return None
        rec.time(f"{name}_iter_ms", 1000.0 * secs / expected)
        rec.output(name, f"{name}.final_loss", result[1].final_total())
        rec.add("train.iterations", expected)
        rec.add("train.samples", expected * per_subject * len(datasets))
        return result[0]

    def _retrieval_eval(self, rec, name, mp, check_chance):
        inp = self.inputs
        report, _ = rec.attempt(name, lambda: self.pkg.evaluate.evaluate_model(
            mp, inp.world, inp.target, self.retr_cfg, include_reconstruction=False),
            lambda rep: _check_metrics(rep, self.chance if check_chance else None))
        if report is not None:
            rec.output(name, f"{name}.image_retrieval", report.metrics["image_retrieval"])

    def _scratch(self, rec, tracer):
        inp = self.inputs
        cfg = replace(self.base, epochs=self.spec.scratch_epochs)
        mp = self._train(rec, tracer, "scratch", lambda: self.pkg.train.train_from_scratch(
            inp.world, inp.target, self.n_sessions, cfg, self.mcfg),
            {inp.held_out: inp.target}, self.spec.batch_size, cfg.epochs)
        if mp is None:
            rec.skip("scratch.eval", "no scratch model")
        else:
            self._retrieval_eval(rec, "scratch.eval", mp, check_chance=True)
        return mp

    def _shared_subject(self, rec, tracer):
        """pretrain, the checkpoint hand-off, ridge-only finetune, eval."""
        inp, spec, model_mod = self.inputs, self.spec, self.pkg.model
        chain = ["save_checkpoint", "load_checkpoint", "finetune", "finetune.eval"]
        path = self.workdir / "checkpoint.me2c"
        pre_cfg = replace(self.base, epochs=spec.pretrain_epochs)
        mp = self._train(rec, tracer, "pretrain", lambda: self.pkg.train.pretrain(
            inp.world, inp.pretrain_sets, pre_cfg, self.mcfg),
            inp.pretrain_sets, spec.per_subject, pre_cfg.epochs)
        if mp is not None:
            pre_mp = mp
            rec.counts.update(param_counts(pre_mp))
            _, secs = rec.attempt("save_checkpoint",
                                  lambda: model_mod.save_checkpoint(pre_mp, path))
            chain.pop(0)
            mp = None
            if secs is not None:
                rec.counts["model.checkpoint_bytes"] = path.stat().st_size
                mp, _ = rec.attempt("load_checkpoint",
                                    lambda: model_mod.load_checkpoint(path),
                                    lambda loaded: _check_round_trip(pre_mp, loaded))
                chain.pop(0)
        if mp is not None:
            loaded = mp
            ft_cfg = replace(self.base, epochs=spec.finetune_epochs,
                             ridge_only_finetune=True)
            mp = self._train(rec, tracer, "finetune", lambda: self.pkg.train.finetune(
                loaded, inp.world, inp.target, 1, ft_cfg),
                {inp.held_out: inp.target.restrict_sessions(1)}, spec.batch_size,
                ft_cfg.epochs)
            chain.pop(0)
        if mp is not None:
            # one session of ridge-only fitting on a briefly pretrained
            # network need not beat chance, so only finiteness is checked
            self._retrieval_eval(rec, "finetune.eval", mp, check_chance=False)
            chain.pop(0)
        for step in chain:
            rec.skip(step, "an earlier step of the chain failed")

    def _reconstruct(self, rec, tracer, scratch_mp):
        """evaluate_model with reconstruction and brain correlation: inference only."""
        inp = self.inputs
        cfg = replace(self.retr_cfg, include_brain_corr=True)
        for _ in range(self.spec.eval_repeats):
            if scratch_mp is None:
                rec.skip("reconstruct", "no scratch model")
                continue
            self.images.reset()

            def check(report):
                return _check_metrics(report, self.chance) or self.images.problem()

            with _scope(tracer, "eval"):
                report, secs = rec.attempt("reconstruct", lambda: self.pkg.evaluate.evaluate_model(
                    scratch_mp, inp.world, inp.target, cfg), check)
            if report is None:
                continue
            rec.time("eval_s", secs)
            rec.add("eval.calls", 1)
            for key, value in report.metrics.items():
                rec.output("reconstruct", f"reconstruct.{key}", value)


def _scope(tracer, name):
    return nullcontext() if tracer is None else tracer.in_scope(name)


@contextmanager
def _phase(tracer, name):
    """A span around one protocol phase, whose name is also the scope."""
    if tracer is None:
        yield
        return
    with tracer.in_scope(name), tracer.span(f"phase.{name}", "bench"):
        yield


def _check_round_trip(saved, loaded) -> str | None:
    if sorted(saved.params) != sorted(loaded.params):
        return "parameter names changed in the round trip"
    for name, p in saved.params.items():
        want = p.data.astype(np.float32).astype(np.float64)
        if not np.array_equal(loaded.params[name].data, want):
            return f"{name} did not round-trip through float32"
    return None


def _check_scaling(result) -> str | None:
    for arm, curve in result.arms.items():
        for k, rep in curve.items():
            problem = _check_metrics(rep, None)
            if problem:
                return f"{arm} k={k}: {problem}"
    if not result.valid_norm_metrics():
        return "every metric has a degenerate baseline-to-anchor span"
    gain = _k1_gain(result)
    if not math.isfinite(gain):
        return f"k=1 gain is {gain}"
    return None


def _k1_gain(result) -> float:
    """Pretrained minus scratch normalized mean at one session, over the
    metrics whose normalization span is not degenerate (as the CSV does)."""
    valid = result.valid_norm_metrics()
    return (result.normalized_mean("pretrained", 1, valid)
            - result.normalized_mean("scratch", 1, valid))


PARAM_GROUPS = ("ridge", "backbone", "prior", "retrieval", "lowlevel", "converter")


def param_counts(mp) -> dict[str, int]:
    """Parameter count per module, keyed by the name prefix before the dot."""
    counts = {f"model.params.{g}": 0 for g in PARAM_GROUPS}
    for name, p in mp.params.items():
        key = f"model.params.{name.split('.', 1)[0]}"
        counts[key] = counts.get(key, 0) + p.size
    return counts


def _check_param_counts(model_mod, mp) -> str | None:
    counts = param_counts(mp)
    unknown = sorted(set(counts) - {f"model.params.{g}" for g in PARAM_GROUPS})
    if unknown:
        return f"parameters outside the known modules: {unknown}"
    expected = model_mod.expected_parameter_count(mp.world_cfg, mp.mcfg, mp.subjects)
    if sum(counts.values()) != expected:
        return (f"module parameter counts sum to {sum(counts.values())}, "
                f"expected_parameter_count gives {expected}")
    return None
