import dataclasses
import inspect
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


def test_every_sample_rate_default_is_the_one_default():
    # the default rate is stated once, in wavio; every export that defaults one reads it
    from binauralkit import spectral, wavio

    defaults = {}
    for name in binauralkit.__all__:
        value = getattr(binauralkit, name)
        if callable(value) and "sample_rate" in inspect.signature(value).parameters:
            defaults[name] = inspect.signature(value).parameters["sample_rate"].default
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                if f.name == "sample_rate":
                    defaults[f"{name} field"] = f.default
    defaults = {k: v for k, v in defaults.items()
                if v not in (inspect.Parameter.empty, dataclasses.MISSING)}
    assert {"BFormat", "DatasetConfig", "MonoSignal", "SceneSpec", "make_separation_pair",
            "sample_scene", "synth_pack"} <= defaults.keys()
    assert {k: v for k, v in defaults.items() if v is not wavio.DEFAULT_SAMPLE_RATE} == {}
    assert spectral.DEFAULT_STFT.sample_rate == wavio.DEFAULT_SAMPLE_RATE


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
