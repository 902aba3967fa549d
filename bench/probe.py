"""Set-up probe: a fresh interpreter sets one workload up, then says ``ready``.

``run.py`` times this process from its start to the ``ready`` line, which
covers interpreter start, ``import repro``, the parameter-cache warm-up and,
on pool workloads, starting the engine with its shared-memory tables.

Usage: ``python3 bench/probe.py WORKLOAD SEED WORK_DIR``
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports repro from src/)


def main(argv: list) -> int:
    name, seed, work_dir = argv[0], int(argv[1]), argv[2]
    workload = workloads.make(name, seed, work_dir)
    workload.setup()
    print("ready", flush=True)
    workload.close()
    workloads.stop_helper_processes()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
