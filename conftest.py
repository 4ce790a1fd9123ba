"""Pytest bootstrap: make ``src/`` importable without installation.

``pip install -e .`` is the normal route; this fallback lets the test
suites run from a plain checkout (or on machines where an
editable install is unavailable, e.g. offline environments without the
``wheel`` package).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
