"""What the benchmark's tracer needs of the package, checked in tier-1.

``perfbench/tracer.py`` records spans from outside: ``Tracer.install``
takes each function that its ``TRACED`` table names from the module
``lefschetz.<layer>`` in ``sys.modules``, patches every binding of it in the
loaded ``lefschetz`` modules, and wraps ``OrbitMorphism.__init__``.  The
benchmark imports ``lefschetz`` and ``lefschetz.cli`` first.  So a lazy
import of a layer, or a traced function that is removed, moved into a
class or imported from elsewhere, breaks the traced runs; these tests
break first.  ``TRACED`` is read from the tracer itself.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


TRACED = _traced()


def test_importing_the_package_and_cli_loads_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lefschetz, lefschetz.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert len(TRACED) == 7
    assert sorted("lefschetz." + layer for layer in TRACED if "lefschetz." + layer not in loaded) == []


@pytest.mark.parametrize(
    "layer, name",
    [pytest.param(layer, name, id="%s.%s" % (layer, name)) for layer, names in TRACED.items() for name in names],
)
def test_traced_name_is_a_module_level_function_of_its_layer(layer, name):
    home = importlib.import_module("lefschetz." + layer)
    fn = getattr(home, name, None)
    assert isinstance(fn, types.FunctionType), (layer, name, fn)
    assert (fn.__module__, fn.__qualname__) == (home.__name__, name)


def test_orbit_morphism_defines_its_own_init():
    from lefschetz.orbit import OrbitMorphism

    assert isinstance(vars(OrbitMorphism).get("__init__"), types.FunctionType)
