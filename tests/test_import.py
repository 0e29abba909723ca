"""What `import scdenoise` loads, in a fresh interpreter.

Start-up time counts in every CLI call and benchmark set-up, and one heavy
import (numpy.random or numpy.ma take about 15 ms each) costs more than the
package's own modules together.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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
