"""The benchmark's tracer wraps public liftphase names from outside the
package; a change that removes or renames one breaks the benchmark.  This
test only reads ``perfbench/``."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracer_module = load_tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer_module._targets()]
    before = {(id(owner), attr): inspect.getattr_static(owner, attr)
              for owner, attr in targets}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.installed
        for owner, attr in targets:
            assert inspect.getattr_static(owner, attr) \
                is not before[(id(owner), attr)], f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr in targets:
        assert inspect.getattr_static(owner, attr) \
            is before[(id(owner), attr)], f"{attr} was not restored"
