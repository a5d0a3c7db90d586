"""The repository's benchmark: synthetic SLAM runs, end to end and per layer.

    python3 perfbench/run.py --workload loop_ring --seed 1 --seconds 10 --trace 0

``--trace 0`` measures what a user of the library sees: it calls
``SlamPipeline().run_batch(clouds)`` on in-memory scans, again and again
for ``--seconds`` (at least once), and reports throughput, accuracy,
failed frames and peak memory.  ``--trace 1`` runs ``run_batch`` once, then
the same stages sequentially (``sequential.py``) once without and once with
spans, checks that all three agree exactly, and reports per-layer cost and
counts from the traced run.  Both modes check the accuracy gates.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the environment, sample counts and quartiles.  Traced runs also
write their spans to ``perfbench/out/``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import lidar_graph_slam from this checkout's sources, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import lidar_graph_slam
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lidar_graph_slam from {SRC}: {exc}")
    if Path(lidar_graph_slam.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: lidar_graph_slam came from "
                 f"{lidar_graph_slam.__file__}, not from {SRC}")


if __name__ == "__main__":
    import_program()
    from bench import main
    sys.exit(main())
