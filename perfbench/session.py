"""One measurement in a fresh interpreter.

    python3 perfbench/session.py MODE WORKLOAD SEED SECONDS

``MODE`` is ``setup`` (one cold set-up), ``run`` (set-up plus the timed
closed loop) or ``trace`` (the per-layer decomposition).  The result is
printed as one JSON line.  ``run.py`` starts one session per sample, so
no process-wide cache, table cache or ``ru_maxrss`` high-water mark
carries over from one sample to the next.

Worker processes started with the ``spawn`` method re-import this file
as ``__mp_main__``, so everything but the standard library is imported
under the ``__main__`` guard.
"""

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    mode, workload, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    if mode == "setup":
        result = workloads.setup_only(workload, seed)
    elif mode == "run":
        result = workloads.timed_run(workload, seed, seconds)
    elif mode == "trace":
        result = workloads.traced_run(workload, seed, seconds)
    else:
        raise SystemExit(f"unknown session mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
