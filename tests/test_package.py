"""The package root holds only ``__version__``: every name is imported from
its own module, and each module imports on its own."""

import importlib
import os
import subprocess
import sys

import pytest

import marginlab

PACKAGE_DIR = os.path.dirname(marginlab.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR)
                 if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_module(name):
    module = importlib.import_module(f"marginlab.{name}")
    assert getattr(marginlab, name) is module


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_in_a_fresh_interpreter(name):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)}
    done = subprocess.run([sys.executable, "-c", f"import marginlab.{name}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
