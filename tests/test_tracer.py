"""The benchmark's traced run wraps kgbench functions by name, where they are called.

``perfbench/spans.py`` replaces module attributes such as
``kgbench.ingest.build_vocabulary`` with timing wrappers. Moving or renaming
one of them breaks ``perfbench/run.py --trace 1`` with an ``AttributeError``
while every untraced run still passes; this test catches that.
"""

import importlib
from pathlib import Path

from kgbench import audit, core, evaluation, ingest, models, reporting, stats, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (audit, core, evaluation, ingest, models, reporting, stats, training)


def test_tracer_wraps_the_named_functions_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(m)) for m in MODULES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer._patched
        for owner, attr, original in tracer._patched:
            assert getattr(owner, attr) is not original
        assert {(o.__name__, a) for o, a, _ in tracer._patched} >= {
            ("kgbench.ingest", "parse_triples"), ("kgbench.ingest", "build_vocabulary"),
            ("kgbench.ingest", "SplitDataset"), ("kgbench.evaluation", "detect_oov")}
    finally:
        tracer.uninstall()
    for module, names in zip(MODULES, before):
        assert vars(module).keys() == names.keys()
        assert all(vars(module)[name] is value for name, value in names.items())
