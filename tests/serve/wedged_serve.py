"""``repro serve`` with every pooled batch wedged.

Runs the real command line (``repro.cli.main``, ``serve()`` and its
SIGTERM handler) with :class:`ChaosServer` installed behind it, so a
subprocess test can check what a pool timeout does to the CLI daemon.
From the repository root, with ``src`` on ``PYTHONPATH``::

    python -m tests.serve.wedged_serve serve --socket PATH --jobs 2
"""

import sys

from repro.cli import main
from repro.serve import daemon
from tests.serve.chaos_harness import ChaosServer, ServeFaultPlan


class WedgedServer(ChaosServer):
    def __init__(self, config, cache=None):
        plan = ServeFaultPlan(wedge=1.0, wedge_seconds=1.5)
        super().__init__(config, plan, cache=cache)


if __name__ == "__main__":
    daemon.Server = WedgedServer
    sys.exit(main(sys.argv[1:]))
