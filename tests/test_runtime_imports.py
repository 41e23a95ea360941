"""hallperm runs on the standard library alone.

A fresh interpreter imports the package and every submodule; each module
this loads must be in the standard library or under hallperm.  sympy and
the other test dependencies must never be reached from here.
"""

import json
import subprocess
import sys

_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import hallperm
for info in pkgutil.iter_modules(hallperm.__path__):
    if info.name != "__main__":  # importing it runs the command line
        importlib.import_module("hallperm." + info.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_imports_only_the_standard_library():
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         check=True)
    loaded = json.loads(out.stdout)
    assert "hallperm.cli" in loaded and "hallperm.suites" in loaded
    foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names
               and m.split(".")[0] != "hallperm"]
    assert foreign == []
