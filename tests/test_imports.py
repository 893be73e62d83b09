"""The package exports only ``__version__``; each module imports on its own."""

import subprocess
import sys
from pathlib import Path

import cvrptw_gas

MODULES = ("instance", "circuit", "qarith", "classical", "resources", "grover", "oracle", "cli")

_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(name for name in sys.modules if name.startswith("cvrptw_gas"))

import cvrptw_gas
assert loaded() == ["cvrptw_gas"], loaded()
for module in sys.argv[2:]:
    for name in loaded():
        del sys.modules[name]
    __import__("cvrptw_gas." + module)
"""


def test_each_module_imports_alone():
    """One fresh interpreter: the package import loads no submodule, and each
    module imports with no ``cvrptw_gas`` module loaded before it, so an
    import cycle cannot hide behind a fixed import order."""
    src = str(Path(cvrptw_gas.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PROBE, src, *MODULES], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
