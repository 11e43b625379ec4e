"""The package namespace: public names and layer modules resolve on first
access, to the very objects their home modules define."""

import subprocess
import sys

import pytest

import bringcover

LAYERS = ("cells", "cover", "dessins", "monodromy", "perms", "quintic",
          "tracking", "verify")


@pytest.mark.parametrize("name", bringcover.__all__)
def test_public_name_is_its_home_object(name):
    obj = getattr(bringcover, name)
    assert obj.__module__.startswith("bringcover.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bringcover import *", namespace)
    assert {name: namespace[name] for name in bringcover.__all__} == {
        name: getattr(bringcover, name) for name in bringcover.__all__}


def test_dir_lists_public_names_and_layers():
    listed = dir(bringcover)
    assert set(bringcover.__all__) <= set(listed)
    assert set(LAYERS) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bringcover.no_such_name
    with pytest.raises(ImportError):
        exec("from bringcover import no_such_name", {})


def test_layer_modules_resolve_as_attributes():
    # in a fresh process, where no layer has been imported yet
    code = ("import bringcover\n"
            f"print([getattr(bringcover, m).__name__ for m in {LAYERS!r}])\n"
            "print(bringcover.__version__)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        str([f"bringcover.{m}" for m in LAYERS]), bringcover.__version__]
