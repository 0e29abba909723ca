"""What `import scdenoise` loads, in a fresh interpreter, and what the
benchmark under perfbench/ reads from the package.

Start-up time counts in every CLI call and benchmark set-up, and one heavy
import (numpy.random or numpy.ma take about 15 ms each) costs more than the
package's own modules together.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from scdenoise.mlp import Mlp, fit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FORBIDDEN = ("numpy.random", "numpy.ma", "numpy.polynomial", "scipy")

PROBE = """
import sys
import numpy
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import scdenoise
print(" ".join(sorted(sys.modules)))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_stdlib_modules_beyond_numpy():
    # beyond what `import numpy` loads, the package may load only standard
    # library modules and its own; numpy's heavier subpackages and scipy
    # are not loaded at all, by the package or by numpy itself
    result = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                            text=True, check=True)
    loaded, added = (line.split() for line in result.stdout.splitlines())
    assert "scdenoise" in added
    foreign = [m for m in added
               if m.split(".")[0] != "scdenoise" and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    heavy = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert heavy == []


def test_benchmark_reads_what_the_package_has():
    # perfbench/tracer.py wraps every function named in each layer module's
    # __all__ (it calls getattr on each name, so a stale entry crashes every
    # traced run) and Mlp.forward and Mlp.backward from the class dict;
    # perfbench/workloads.py digests *net.params, which must hold every
    # trained value
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"scdenoise.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), (layer, name)
    for method in tracer.MLP_METHODS:
        assert callable(vars(Mlp)[method]), method
    rng = np.random.default_rng(0)
    net = Mlp([3, 8, 2], rng=rng)
    x, target = rng.standard_normal((16, 3)), rng.standard_normal((16, 2))
    fit(net, 2, lambda step: (x, target), lambda step: 1e-2)
    params = net.params
    assert isinstance(params, list) and all(isinstance(p, np.ndarray) for p in params)
    flat = np.concatenate([p.ravel() for p in params])
    assert flat.dtype == net.theta.dtype
    np.testing.assert_array_equal(flat, net.theta)
