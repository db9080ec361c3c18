"""Span tracing and op counting installed from outside the package.

The tracer replaces public names at the module boundaries where callers
look them up (``mindalign.train.backbone_forward``,
``mindalign.evaluate.prior_sample``, ``AdamW.step``, ``Tensor.backward``,
...) with wrappers that record a span: name, start, end and parent, tagged
with one run id. Tensor ops called from ``model`` and ``losses`` get a
counting wrapper instead of a span, because a timer around every op would
cost more than the op. ``uninstall`` puts every original object back, so a
traced and an untraced pass can share one process.

Spans stay in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) pairs wrapped with a span; the span is named after the
# layer that owns the function, not the module it is looked up in.
SPAN_TARGETS = {
    "world": [("world", "generate_world"), ("world", "generate_dataset"),
              ("world", "normalize")],
    "model": [("train", "ridge_forward"), ("train", "backbone_forward"),
              ("train", "prior_train_step"), ("train", "retrieval_project"),
              ("train", "lowlevel_forward"), ("train", "target_embed"),
              ("evaluate", "ridge_forward"), ("evaluate", "backbone_forward"),
              ("evaluate", "prior_sample"), ("evaluate", "retrieval_project"),
              ("evaluate", "lowlevel_forward"), ("evaluate", "target_embed"),
              ("model", "save_checkpoint"), ("model", "load_checkpoint")],
    "losses": [("train", "bimixco_loss"), ("train", "soft_clip_loss"),
               ("train", "lowlevel_loss"), ("train", "total_loss")],
    "train": [("train", "train_from_scratch"), ("train", "pretrain"),
              ("train", "finetune"), ("evaluate", "train_from_scratch"),
              ("evaluate", "pretrain"), ("evaluate", "finetune")],
    "evaluate": [("evaluate", "evaluate_model"), ("evaluate", "run_scaling"),
                 ("evaluate", "reconstruct"), ("evaluate", "retrieval_eval"),
                 ("evaluate", "ssim"), ("evaluate", "pixcorr"),
                 ("evaluate", "two_way_identification"),
                 ("evaluate", "brain_correlation")],
}
# methods wrapped on their class: (layer, module, class, method)
METHOD_TARGETS = [("tensor", "tensor", "Tensor", "backward"),
                  ("optim", "optim", "AdamW", "step"),
                  ("optim", "optim", "AdamW", "zero_grad"),
                  ("evaluate", "evaluate", "EncodingModel", "fit_from_dataset")]
# modules whose calls into tensor ops are counted
OP_CALLERS = ("model", "losses")
# ops with a metric of their own; calls to any other op count as "other"
OP_NAMES = ("add", "sub", "mul", "scale", "matmul", "transpose", "reshape",
            "tensor_slice", "concat", "tensor_sum", "tensor_mean", "gelu",
            "layernorm", "l2_normalize", "mse_loss", "l1_loss",
            "cross_entropy_soft", "other")
LAYERS = ("world", "model", "losses", "tensor", "optim", "train", "evaluate")
# float64 arrays an AdamW step touches per parameter element: it reads the
# parameter, gradient and both moments and writes the parameter and moments
ADAMW_ARRAYS_PER_ELEMENT = 7
# Tensor operator sugar, counted under the op it dispatches to
TENSOR_METHOD_OPS = {"__add__": "add", "__sub__": "sub", "__mul__": "mul",
                     "__rmul__": "mul", "__neg__": "scale", "__matmul__": "matmul",
                     "__getitem__": "tensor_slice", "reshape": "reshape",
                     "transpose": "transpose", "sum": "tensor_sum",
                     "mean": "tensor_mean"}


class Tracer:
    """Records spans and op counts for one traced pass.

    ``scope`` labels the protocol step the benchmark is in (``train``,
    ``eval``, ...); every span and op count carries the scope that was set
    when it started, so per-iteration and per-call figures can be taken
    without attributing one protocol's work to another.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [id, name, layer, scope, start, end, parent]
        self.op_counts: Counter = Counter()   # (scope, op) -> calls
        self.scope = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        stack = self._stack()
        with self._lock:
            rec = [len(self.spans), name, layer, self.scope, time.perf_counter(),
                   0.0, stack[-1] if stack else None]
            self.spans.append(rec)
        stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            stack.pop()

    @contextmanager
    def in_scope(self, scope: str):
        previous, self.scope = self.scope, scope
        try:
            yield
        finally:
            self.scope = previous

    def _span_wrapper(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def _count_wrapper(self, op: str, fn):
        counts, tracer = self.op_counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(tracer.scope, op)] += 1
            return fn(*args, **kwargs)

        return counted

    def _method_count_wrapper(self, op: str, fn, callers: frozenset[str]):
        counts, tracer = self.op_counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in callers:
                counts[(tracer.scope, op)] += 1
            return fn(*args, **kwargs)

        return counted

    def _step_counter(self, fn):
        counts, tracer = self.op_counts, self

        @functools.wraps(fn)
        def step(opt):
            counts[(tracer.scope, "optim.steps")] += 1
            counts[(tracer.scope, "optim.elements")] += sum(
                p.data.size for p in opt.params.values() if p.grad is not None)
            return fn(opt)

        return step

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the boundary names of ``package`` (the imported mindalign)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: getattr(package, name) for name in
                ("world", "model", "losses", "tensor", "optim", "train", "evaluate")}
        for layer, targets in SPAN_TARGETS.items():
            for mod_name, attr in targets:
                mod = mods[mod_name]
                self._patch(mod, attr, self._span_wrapper(
                    f"{layer}.{attr}", layer, getattr(mod, attr)))
        adamw = mods["optim"].AdamW
        self._patch(adamw, "step", self._step_counter(adamw.__dict__["step"]))
        for layer, mod_name, cls_name, meth in METHOD_TARGETS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span_wrapper(
                    f"{layer}.{cls_name}.{meth}", layer, original.__func__))
            else:
                wrapped = self._span_wrapper(f"{layer}.{cls_name}.{meth}", layer,
                                             original)
            self._patch(cls, meth, wrapped)
        tensor_mod = mods["tensor"]
        for mod_name in OP_CALLERS:
            mod = mods[mod_name]
            for attr, value in list(vars(mod).items()):
                if (callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == tensor_mod.__name__):
                    self._patch(mod, attr, self._count_wrapper(attr, value))
        callers = frozenset(mods[m].__name__ for m in OP_CALLERS)
        for meth, op in TENSOR_METHOD_OPS.items():
            self._patch(tensor_mod.Tensor, meth, self._method_count_wrapper(
                op, tensor_mod.Tensor.__dict__[meth], callers))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[list]]:
        out: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[6] is not None:
                out.setdefault(rec[6], []).append(rec)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover, in s.

        Spans of one thread never overlap their siblings, so the covered
        time is the sum of the children's durations.
        """
        kids = self.children()
        return {rec[0]: (rec[5] - rec[4]) - sum(c[5] - c[4] for c in kids.get(rec[0], ()))
                for rec in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": rec[0], "name": rec[1],
                                     "layer": rec[2], "scope": rec[3],
                                     "start": rec[4], "end": rec[5],
                                     "parent": rec[6]}) + "\n")


def per_layer_metrics(tracer: Tracer, counts: dict) -> dict[str, float]:
    """The per-layer split of one traced round.

    Training-path spans are per training iteration of the round's own
    ``train_from_scratch``, ``pretrain`` and ``finetune`` calls (scope
    ``train``); reconstruction spans are per ``evaluate_model`` call with
    reconstruction (scope ``eval``); world and checkpoint spans are per call.
    ``counts`` holds the round's iteration, eval-call, parameter and
    checkpoint counts.
    """
    iters = counts.get("train.iterations", 0)
    evals = counts.get("eval.calls", 0)
    total: dict[tuple[str, str], float] = {}
    calls: dict[str, int] = {}
    for rec in tracer.spans:
        key = (rec[3], rec[1])
        total[key] = total.get(key, 0.0) + rec[5] - rec[4]
        calls[rec[1]] = calls.get(rec[1], 0) + 1
    self_s = tracer.self_times()

    def in_scope(scope, name, per):
        return 1000.0 * total.get((scope, name), 0.0) / per if per else None

    def per_call(name):
        n = calls.get(name, 0)
        return 1000.0 * sum(v for (_, nm), v in total.items() if nm == name) / n if n else None

    out: dict[str, float] = {}
    for name in ("generate_world", "generate_dataset", "normalize"):
        out[f"world.{name}_ms"] = per_call(f"world.{name}")
    for name in ("ridge_forward", "backbone_forward", "prior_train_step",
                 "retrieval_project", "lowlevel_forward", "target_embed"):
        out[f"model.{name}_ms"] = in_scope("train", f"model.{name}", iters)
    out["model.prior_sample_ms"] = in_scope("eval", "model.prior_sample", evals)
    out["model.save_checkpoint_ms"] = per_call("model.save_checkpoint")
    out["model.load_checkpoint_ms"] = per_call("model.load_checkpoint")
    for key in counts:
        if key.startswith("model."):
            out[key] = counts[key]
    for name in ("bimixco_loss", "soft_clip_loss", "lowlevel_loss", "total_loss"):
        out[f"losses.{name}_ms"] = in_scope("train", f"losses.{name}", iters)
    out["tensor.backward_ms"] = in_scope("train", "tensor.Tensor.backward", iters)
    train_ops = {op: n for (scope, op), n in tracer.op_counts.items()
                 if scope == "train" and not op.startswith("optim.")}
    eval_ops = sum(n for (scope, op), n in tracer.op_counts.items()
                   if scope == "eval" and not op.startswith("optim."))
    out["tensor.ops_per_iter"] = sum(train_ops.values()) / iters if iters else None
    for op in OP_NAMES:
        if op == "other":
            n = sum(v for k, v in train_ops.items() if k not in OP_NAMES)
        else:
            n = train_ops.get(op, 0)
        out[f"tensor.ops_per_iter.{op}"] = n / iters if iters else None
    out["tensor.ops_per_eval"] = eval_ops / evals if evals else None
    out["optim.step_ms"] = in_scope("train", "optim.AdamW.step", iters)
    out["optim.zero_grad_ms"] = in_scope("train", "optim.AdamW.zero_grad", iters)
    steps = tracer.op_counts.get(("train", "optim.steps"), 0)
    elements = tracer.op_counts.get(("train", "optim.elements"), 0)
    out["optim.elements_per_step"] = elements / steps if steps else None
    out["optim.bytes_per_step"] = (8 * ADAMW_ARRAYS_PER_ELEMENT * elements / steps
                                   if steps else None)
    train_spans = [rec for rec in tracer.spans if rec[2] == "train" and rec[3] == "train"]
    out["train.self_ms_per_iter"] = (1000.0 * sum(self_s[rec[0]] for rec in train_spans)
                                     / iters if iters else None)
    out["train.iterations"] = iters
    out["train.samples"] = counts.get("train.samples", 0)
    kids = tracer.children()
    scratch = [rec for rec in train_spans if rec[1] == "train.train_from_scratch"]
    if scratch:
        rec = scratch[0]
        covered = sum(c[5] - c[4] for c in kids.get(rec[0], ())
                      if c[2] in ("optim", "tensor", "model", "losses"))
        out["train.scratch_span_coverage"] = covered / (rec[5] - rec[4])
    for name, span in (("reconstruct", "reconstruct"), ("retrieval_eval", "retrieval_eval"),
                       ("ssim", "ssim"), ("pixcorr", "pixcorr"),
                       ("two_way", "two_way_identification"),
                       ("encoding_fit", "EncodingModel.fit_from_dataset"),
                       ("brain_correlation", "brain_correlation")):
        out[f"evaluate.{name}_ms"] = in_scope("eval", f"evaluate.{span}", evals)
    scaling = [rec for rec in tracer.spans if rec[1] == "evaluate.run_scaling"]
    if scaling:
        rec = scaling[0]
        split = {"train.pretrain": "pretrain", "train.finetune": "finetune",
                 "train.train_from_scratch": "scratch",
                 "evaluate.evaluate_model": "evaluate_model"}
        for metric in split.values():
            out[f"evaluate.scaling.{metric}_s"] = 0.0
        for child in kids.get(rec[0], ()):
            if child[1] in split:
                out[f"evaluate.scaling.{split[child[1]]}_s"] += child[5] - child[4]
        out["evaluate.scaling.self_s"] = self_s[rec[0]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_s[rec[0]] for rec in tracer.spans
                                     if rec[2] == layer)
    return out
