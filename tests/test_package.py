import os
import subprocess
import sys
from pathlib import Path

import pytest

import binauralkit


@pytest.mark.parametrize("name", binauralkit.__all__)
def test_export_is_the_object_its_module_defines(name):
    value = getattr(binauralkit, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__.startswith("binauralkit.")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from binauralkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(binauralkit.__all__)


def test_dir_lists_every_export():
    assert set(binauralkit.__all__) <= set(dir(binauralkit))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        binauralkit.no_such_name  # noqa: B018


def test_submodule_import_still_works():
    from binauralkit import wavio

    assert wavio is sys.modules["binauralkit.wavio"]


def test_package_import_loads_no_submodule():
    # a fresh interpreter, so modules other tests loaded do not count
    env = dict(os.environ, PYTHONPATH=str(Path(binauralkit.__file__).resolve().parents[1]))
    probe = "import sys, binauralkit; print(sorted(m for m in sys.modules if 'binauralkit' in m))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['binauralkit']"
