"""The benchmark's tracer can still patch every name it targets.

perfbench/tracing.py wraps public functions of evosc by name; a name that is
renamed or removed from its module breaks the benchmark's traced runs. This
reads perfbench/ and changes nothing there.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracing_target_installs_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {}
    for owner, attr, _, _ in tracing.TARGETS:
        if attr in owner.__dict__:
            originals[owner, attr] = owner.__dict__[attr]
            # restored at teardown even if install stops half way
            monkeypatch.setattr(owner, attr, originals[owner, attr])
    undo = tracing.install(tracing.Tracer())  # KeyError if a target name is gone
    assert [(owner, attr) for owner, attr, _ in undo] == list(originals)
    for owner, attr, original in undo:
        assert original is originals[owner, attr]
        assert owner.__dict__[attr].__wrapped__ is original
    tracing.uninstall(undo)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
