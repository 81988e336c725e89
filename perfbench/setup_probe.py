"""Time one cold set-up of toricreg in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py Q [SPEC ...]

Covers the imports, parsing the given specs and the default catalog, and
the first Field(Q).  Prints the seconds taken.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import toricreg.cli  # noqa: E402,F401  (the entry point users load)
from toricreg.field import Field  # noqa: E402
from toricreg.harness import default_catalog, parse_graph_spec  # noqa: E402

q = int(sys.argv[1])
for spec in sys.argv[2:]:
    parse_graph_spec(spec)
default_catalog()
Field(q)
print(time.perf_counter() - t0)
