"""The benchmark's tracer patches program functions by name; fail fast if
one of those names is removed, renamed or no longer called through.

bench/tracer.py is loaded from its file and used as it is."""

import importlib.util
import sys
from pathlib import Path

import pytest

import mlcascade.cli as cli
import mlcascade.data as data
import mlcascade.evaluate as evaluate
import mlcascade.logistic as logistic
import mlcascade.methods as methods
import mlcascade.synth as synth
import mlcascade.transforms as transforms
from mlcascade.data import gen_logical
from mlcascade.methods import METHOD_NAMES, MethodConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every module of the program and every class defined in one."""
    for module in (cli, data, evaluate, logistic, methods, synth, transforms):
        yield module
        yield from (v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == module.__name__)


def test_recording_installs_and_removes_every_binding(tracer_module):
    before = {ns: dict(vars(ns)) for ns in _namespaces()}
    tracer = tracer_module.Tracer()
    with tracer.recording("op"):
        assert transforms.train_logistic is not logistic.train_logistic
        patched = [(owner, attr) for owner, attr, _ in tracer._saved]
    assert transforms.train_logistic is logistic.train_logistic
    assert [s.name for s in tracer.spans] == ["op"]
    assert len(patched) > 20
    for owner, attr in patched:
        # A patched class defines the method itself, so patching and
        # restoring it act on that class alone; an inherited or aliased
        # method is shared with another class.
        if isinstance(owner, type):
            own = before[owner].get(attr)
            assert getattr(own, "__qualname__", None) == f"{owner.__qualname__}.{attr}", (
                f"{owner.__name__}.{attr} is inherited or an alias")
    for ns, names in before.items():
        after = dict(vars(ns))
        assert after.keys() == names.keys(), ns.__name__
        changed = [k for k, v in names.items() if after[k] is not v]
        assert changed == [], f"{ns.__name__}: {changed} not restored"


def test_a_traced_run_reaches_every_layer(tracer_module):
    tracer = tracer_module.Tracer()
    cfg = MethodConfig(base=logistic.TrainConfig(epochs=2))
    with tracer.recording("op"):
        tracer_module.evaluate.run_experiment(
            {"logical": gen_logical(20)}, [(m, cfg) for m in METHOD_NAMES],
            iterations=1, split_fraction=0.6, master_seed=1)
    names = [s.name for s in tracer.spans]
    # One iteration of the README protocol fits 36 base models.
    assert names.count("logistic.fit") == 36
    expected = {
        "transforms.train_br", "transforms.train_cc", "transforms.chain_predict",
        "transforms.br_predict", "synth.init_cascade", "synth.apply_cascade",
        "synth.init_projection", "synth.apply_projection", "synth.indicators",
        "methods.predict", "evaluate.run_experiment", "evaluate.score", "data.split",
        "data.standardize",
        *(f"methods.train.{m}" for m in tracer_module.METHOD_METRIC_NAMES.values()),
    }
    assert expected <= set(names)
