"""The benchmark tracer patches hallperm by name; every name must still exist.

perfbench/ is not collected with the library tests, so this loads the
tracer by path to catch a rename or deletion that would break a traced run.
"""

import importlib
import importlib.util
import pathlib

from hallperm.group import PermGroup, StabilizerChain
from hallperm.perm import Permutation

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _load_tracing()
    for table in (tracing.SPANNED, tracing.CACHED):
        for layer, names in table.items():
            module = importlib.import_module(f"hallperm.{layer}")
            missing = [name for name in names if not callable(getattr(module, name, None))]
            assert not missing, f"hallperm.{layer} lacks {missing}"


def test_traced_methods_exist():
    for cls, names in ((Permutation, ("__mul__", "__invert__", "conj")),
                       (StabilizerChain, ("sift", "iter_elements", "build")),
                       (PermGroup, ("elements",))):
        for name in names:
            assert name in vars(cls), f"{cls.__name__}.{name} is gone"


def test_one_conjugator_scan_under_one_span():
    """The tracer wraps pronormal.find_conjugator_in and binds the wrapper
    wherever that object is bound, so subgroup's scans count under its span
    only while both modules hold the same function."""
    import hallperm.pronormal
    import hallperm.subgroup
    assert hallperm.subgroup.find_conjugator_in is hallperm.pronormal.find_conjugator_in
