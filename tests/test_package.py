import subprocess
import sys

from conftest import package_env

# Runs in a fresh interpreter, so that modules the test session has already
# imported do not count.
_LAZY_PROBE = """
import importlib, sys
import techflux

def loaded():
    return sorted(m for m in sys.modules if m.startswith("techflux.") or m in ("numpy", "xml.etree"))

assert loaded() == [], loaded()
techflux.load_corpus
assert "techflux.corpus" in loaded(), loaded()
for name in ("cograph", "community", "transition", "breakcheck", "synth", "cli"):
    assert "techflux." + name not in loaded(), loaded()
assert "numpy" not in loaded() and "xml.etree" not in loaded(), loaded()
for name in techflux.__all__:
    value = getattr(techflux, name)
    assert value is getattr(importlib.import_module(value.__module__), name), name
    assert value.__module__.startswith("techflux."), name
from techflux import *
assert all(name in globals() for name in techflux.__all__)
assert techflux.corpus is sys.modules["techflux.corpus"]
assert techflux.fileio is sys.modules["techflux.fileio"]
try:
    techflux.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'techflux' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("techflux.no_such_name resolved")
assert "__all__" in dir(techflux) and set(techflux.__all__) <= set(dir(techflux))
print(len(techflux.__all__), techflux.__version__)
"""


def test_public_names_load_their_module_on_first_use():
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "61 0.1.0\n"


def test_each_submodule_is_an_attribute_after_a_bare_import():
    modules = ("breakcheck", "cograph", "community", "config", "corpus", "errors", "fileio", "lexicon", "synth",
               "transition")
    probe = (
        "import sys, techflux\n"
        f"for name in {modules!r}:\n"
        "    assert getattr(techflux, name) is sys.modules['techflux.' + name], name\n"
        "assert 'techflux.cli' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
