"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample runs in a fresh interpreter
(``session.py``): with ``--trace 0`` one session runs the workload's
set-up and timed closed loop, and further sessions each time one more
cold set-up, so ``setup_s`` is the median of :data:`SETUP_SAMPLES` cold
set-ups.  With ``--trace 1`` one session runs the per-layer
decomposition instead.  Every end-to-end (or per-layer) metric is printed
by name with its unit, followed by one JSON result line.  The exit code
is 0 only when every output was checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups per run behind ``setup_s`` (one inside the timed session).
SETUP_SAMPLES = 7

#: Every session of a run must end within the run's budget: the timed
#: loop's ``--seconds`` (with room for its slice boundaries), plus seconds
#: for the timed or traced session's set-up, reference checks and
#: teardown, plus seconds for each further set-up session.
LOOP_ALLOWANCE = 1.25
MAIN_SESSION_ALLOWANCE_S = 40.0
SETUP_SESSION_ALLOWANCE_S = 15.0

#: Seconds after a session exits for the processes it started (the
#: multiprocessing resource tracker) to end before they are killed.
REAP_GRACE_S = 10.0


class BenchError(Exception):
    """A session failed, timed out or printed no result."""


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running.

    Exited processes whose parent ended first linger as zombies until
    init reaps them; they have ended, so they do not count.
    """
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap(pgid: int) -> None:
    """Wait for every process of a session's group to end; kill stragglers."""
    deadline = time.monotonic() + REAP_GRACE_S
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
        while _group_alive(pgid):
            time.sleep(0.05)


def session(mode: str, workload: str, seed: int, seconds: int,
            deadline: float) -> dict:
    """Run one ``session.py`` in a fresh interpreter and parse its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a session could start")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), mode, workload,
         str(seed), str(seconds)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _reap(proc.pid)
        raise BenchError(f"{mode} session timed out after {timeout:.0f}s")
    _reap(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{mode} session exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} session printed no result")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    # Workload and metric names, and the metrics' units, are defined once,
    # in BENCHMARK.json at the repository root.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    setup_sessions = 0 if args.trace else SETUP_SAMPLES - 1
    deadline = (time.monotonic() + args.seconds * LOOP_ALLOWANCE
                + MAIN_SESSION_ALLOWANCE_S
                + SETUP_SESSION_ALLOWANCE_S * setup_sessions)
    mode = "trace" if args.trace else "run"
    try:
        result = session(mode, args.workload, args.seed, args.seconds,
                         deadline)
        metrics = dict(result["metrics"])
        if not args.trace:
            setups = [result["setup_s"]] + [
                session("setup", args.workload, args.seed, args.seconds,
                        deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = statistics.median(setups)
    except BenchError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1

    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for err in result["errors"]:
        print("failure " + err.strip().replace("\n", " | "))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
