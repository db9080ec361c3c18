"""The benchmark's tracer finds every name it wraps and puts each one back.

The tracer lives in ``bench/`` and reads the package's functions, methods
and Tensor operators by name; a deletion in the package that it still names
breaks the benchmark, so this checks it where the package's tests run.
"""

import sys
from pathlib import Path

import mindalign

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_class():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    return Tracer


def _namespaces() -> dict[str, object]:
    names = {name: getattr(mindalign, name) for name in
             ("world", "model", "losses", "tensor", "optim", "train", "evaluate")}
    names.update(Tensor=mindalign.tensor.Tensor, AdamW=mindalign.optim.AdamW,
                 EncodingModel=mindalign.evaluate.EncodingModel)
    return names


def test_tracer_installs_and_restores_every_name():
    before = {name: dict(vars(ns)) for name, ns in _namespaces().items()}
    tracer = _tracer_class()("t")
    try:  # a failed install still puts back what it patched
        tracer.install(mindalign)
        assert mindalign.train.bimixco_loss is not before["train"]["bimixco_loss"]
        assert vars(mindalign.tensor.Tensor)["__add__"] is not before["Tensor"]["__add__"]
    finally:
        tracer.uninstall()
    for name, ns in _namespaces().items():
        now = dict(vars(ns))
        assert now.keys() == before[name].keys(), name
        changed = [k for k, v in before[name].items() if now[k] is not v]
        assert not changed, (name, changed)
