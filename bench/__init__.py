"""One benchmark for the whole stack: compile → simulate → serve.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` runs
one workload and prints its metrics; ``python3 -m bench --seed N`` runs
all five, untraced then traced, and writes ``bench/out/results.json`` and
``bench/out/trace.json``.  See ``bench/README.md``.
"""

import os
import sys

# The program under test lives in ../src; the benchmark is run from a
# plain checkout, with nothing installed.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
