"""Run the ``repro`` CLI with the server's wrappers and a span spool.

    python3 perfbench/harness/traced_server.py SPOOL_DIR serve --port 0

The traced ``service_jobs`` run starts the service this way, so spans
from the server and from the cell workers it forks reach the harness
through ``SPOOL_DIR`` (see :mod:`harness.tracing`).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from harness.tracing import SERVER_LAYERS, Tracer  # noqa: E402


def main() -> int:
    Tracer(spool=Path(sys.argv[1])).install(SERVER_LAYERS)
    from repro.cli import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
