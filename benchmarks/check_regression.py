"""Perf-trajectory regression alerting: ``python -m benchmarks.check_regression``.

CI commits one ``benchmarks/results/BENCH_<sha>.json`` per main-branch
push (the perf-trajectory job).  This checker turns that history into a
**multi-metric gate**: for each gate below it extracts a metric from
the newest record, compares it against the median of a trailing window
of earlier records, and exits nonzero when the newest value regresses
by more than the threshold (default 30%) in the metric's bad direction.

Default gates:

* ``e13-docs-per-sec`` — median ``compiled docs/s`` of the E13a table
  (higher is better): the compiled-runtime throughput gate since PR 3.
* ``e10d-fused-seconds`` — median ``fused (s)`` of the E10d table
  (lower is better): the fused equality join must not silently slide
  back toward materializing ``A_eq``.
* ``e13j-fused-speedup`` — median ``fused speedup`` of the E13j table
  (higher is better): fused multi-query serving must keep beating Q
  sequential scans; a slide toward 1.0 means the fused task lost its
  sharing advantage.
* ``peak-rss-kib`` / ``peak-rss-children-kib`` — the run's peak
  resident-set high-water marks (max over the recorded experiments;
  lower is better): the memory trajectory PR 3 started stamping.

Every gate takes its metric's median over both the table rows and the
baseline window, so one noisy row or one noisy historical run cannot
flip the verdict.  **Old records are never an error**: a record that
predates an experiment, table, column or RSS field is simply not
comparable — it contributes nothing to that gate's baseline.  If the
*newest* record lacks a newer gate's metric the gate is skipped with
a notice (the E10/RSS gates only start to bind once the trajectory
contains data for them); the long-standing E13 gate is *required* —
its absence from the newest record means the table/column was renamed
or the experiment dropped, and exits 2 rather than silently disabling
the gate.  The RSS gates additionally only compare records that ran
the **same experiment set** (peak RSS is a process-lifetime high-water
mark, so adding an experiment to the trajectory job legitimately
raises it — that resets the baseline instead of tripping the gate).
With fewer than two records — including a missing or empty results
directory, the state of a freshly reset trajectory's first run —
the gate is skipped with a clear message and exit 0, never a crash.

Besides the gates, the checker reports (informationally, never as an
exit-code failure) the newest record's fleet fault counters — the
``timeouts`` / ``quarantines`` columns of the E13g table — its
resource-governance counters — the ``degraded`` / ``truncated``
columns of the E13h table — and its durable-store counters — the
``hits`` / ``corrupt`` / ``orphans`` columns of the E13i table.  All
three runs are the healthy path, so every fault counter must read 0
(and E13i's ``hits`` must be nonzero); a nonzero total flags the
record's timings as contaminated by deadline retries (E13g), limit
trips (E13h) or cache/crash recovery work (E13i).  Records predating
a table simply skip that report.

Timing on shared CI runners is noisy; 30% is deliberately far above
run-to-run jitter (single-digit percents on these workloads) so the
check only fires on real regressions.

The record schema the gates read is documented in
``benchmarks/results/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

DEFAULT_RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_THRESHOLD = 0.30
DEFAULT_WINDOW = 5

#: Directions: "higher" = throughput-like (a drop is a regression),
#: "lower" = cost-like (a rise is a regression).
HIGHER, LOWER = "higher", "lower"


def table_metric(
    record: dict, experiment: str, table_prefix: str, column: str
) -> float | None:
    """Median of ``column`` over the rows of one experiment table.

    ``None`` when the record predates the experiment/table/column (old
    layouts must not crash the gate — they are simply not comparable).
    """
    for exp in record.get("experiments", ()):
        if exp.get("experiment") != experiment:
            continue
        for table in exp.get("tables", ()):
            if not str(table.get("title", "")).startswith(table_prefix):
                continue
            headers = list(table.get("headers", ()))
            if column not in headers:
                return None
            idx = headers.index(column)
            values = [
                float(row[idx])
                for row in table.get("rows", ())
                if isinstance(row[idx], (int, float))
            ]
            return median(values) if values else None
    return None


def table_total(
    record: dict, experiment: str, table_prefix: str, column: str
) -> float | None:
    """Sum of ``column`` over the rows of one experiment table.

    Counter columns (timeouts fired, queries quarantined) aggregate by
    total, not median — one bad row must not be voted away.  ``None``
    when the record predates the experiment/table/column.
    """
    for exp in record.get("experiments", ()):
        if exp.get("experiment") != experiment:
            continue
        for table in exp.get("tables", ()):
            if not str(table.get("title", "")).startswith(table_prefix):
                continue
            headers = list(table.get("headers", ()))
            if column not in headers:
                return None
            idx = headers.index(column)
            values = [
                float(row[idx])
                for row in table.get("rows", ())
                if isinstance(row[idx], (int, float))
            ]
            return sum(values) if values else None
    return None


#: Fault-tolerance counters stamped into the E13g table since PR 6.
FLEET_COUNTER_COLUMNS = ("timeouts", "quarantines")

#: Resource-governance counters stamped into the E13h table since PR 7.
RESOURCE_COUNTER_COLUMNS = ("degraded", "truncated")


def report_fleet_counters(records: list[tuple[str, dict]]) -> None:
    """Informational: the newest record's fleet fault counters.

    The E13g table runs the healthy path with deadlines enabled, so
    both counters must read 0; a nonzero value means deadlines tripped
    *during the benchmark run* and its timings include retries.  That
    is a data-quality notice for whoever reads the trajectory — never
    an exit-code failure, and records predating E13g stay silent.
    """
    newest_name, newest = records[-1]
    totals = {
        column: table_total(newest, "E13", "E13g", column)
        for column in FLEET_COUNTER_COLUMNS
    }
    if all(value is None for value in totals.values()):
        return  # record predates the E13g table
    rendered = ", ".join(
        f"{column}={int(value or 0)}" for column, value in totals.items()
    )
    print(f"perf-trajectory [fleet-counters]: newest {newest_name}: {rendered}")
    if any(value for value in totals.values()):
        print(
            "  notice: nonzero fault counters — deadlines tripped during "
            "the benchmark run, so its fleet timings include retries; "
            "treat this record's throughput numbers with suspicion"
        )


def report_resource_counters(records: list[tuple[str, dict]]) -> None:
    """Informational: the newest record's governance counters.

    The E13h table arms every resource limit at values far above the
    workload, so both counters must read 0; a nonzero value means a
    limit tripped *during the benchmark run* — its "on" timings then
    include pipe fallbacks or truncated enumerations and the measured
    overhead is not the healthy-path cost.  A data-quality notice for
    the trajectory reader — never an exit-code failure, and records
    predating E13h stay silent.
    """
    newest_name, newest = records[-1]
    totals = {
        column: table_total(newest, "E13", "E13h", column)
        for column in RESOURCE_COUNTER_COLUMNS
    }
    if all(value is None for value in totals.values()):
        return  # record predates the E13h table
    rendered = ", ".join(
        f"{column}={int(value or 0)}" for column, value in totals.items()
    )
    print(
        f"perf-trajectory [resource-counters]: newest {newest_name}: "
        f"{rendered}"
    )
    if any(value for value in totals.values()):
        print(
            "  notice: nonzero governance counters — a resource limit "
            "tripped during the benchmark run, so its governed timings "
            "include degraded transport or truncated results; the "
            "measured overhead is not the healthy-path cost"
        )


#: Durable-store health counters stamped into the E13i table since PR 8.
STORE_COUNTER_COLUMNS = ("hits", "corrupt", "orphans")


def report_store_counters(records: list[tuple[str, dict]]) -> None:
    """Informational: the newest record's durable-store counters.

    The E13i table registers each query once cold and once warm through
    a fresh FileStore, so ``hits`` must equal the number of rows while
    ``corrupt`` and ``orphans`` must read 0 — a nonzero ``corrupt``
    means the benchmark revived (and silently recompiled past) a
    damaged cache entry, and a nonzero ``orphans`` means the runner's
    ``/dev/shm`` held leftovers of an earlier crashed run that the
    startup sweep had to reap.  Either way the warm timings are
    contaminated by recovery work.  A data-quality notice for the
    trajectory reader — never an exit-code failure, and records
    predating E13i stay silent.
    """
    newest_name, newest = records[-1]
    totals = {
        column: table_total(newest, "E13", "E13i", column)
        for column in STORE_COUNTER_COLUMNS
    }
    if all(value is None for value in totals.values()):
        return  # record predates the E13i table
    rendered = ", ".join(
        f"{column}={int(value or 0)}" for column, value in totals.items()
    )
    print(f"perf-trajectory [store-counters]: newest {newest_name}: {rendered}")
    if totals.get("corrupt") or totals.get("orphans"):
        print(
            "  notice: nonzero store recovery counters — the benchmark "
            "quarantined corrupt cache entries or swept crash-orphaned "
            "shm segments mid-run, so its warm-register timings include "
            "recovery work, not just the fingerprint-hit cost"
        )


def report_backend_comparison(records: list[tuple[str, dict]]) -> None:
    """Informational: the newest record's E13k backend head-to-head.

    Which compute backend wins the E13a workload depends on the
    interpreter build (GIL vs free-threaded), the core count and the
    document mix — machine-dependent by design, so this is surfaced
    for the trajectory reader rather than gated (every cell is already
    asserted byte-identical inside the benchmark itself).  Records
    predating E13k stay silent.
    """
    newest_name, newest = records[-1]
    for exp in newest.get("experiments", ()):
        if exp.get("experiment") != "E13":
            continue
        for table in exp.get("tables", ()):
            if not str(table.get("title", "")).startswith("E13k"):
                continue
            headers = list(table.get("headers", ()))
            try:
                cols = [headers.index(c) for c in
                        ("backend", "workers", "docs/s")]
            except ValueError:
                return
            cells = ", ".join(
                f"{row[cols[0]]}@{row[cols[1]]}w="
                f"{float(row[cols[2]]):.0f} docs/s"
                for row in table.get("rows", ())
                if isinstance(row[cols[2]], (int, float))
            )
            print(
                f"perf-trajectory [backend-comparison]: newest "
                f"{newest_name}: {cells}"
            )
            return


def rss_metric(record: dict, field: str) -> float | None:
    """The run's peak RSS: max of ``field`` over the experiments.

    ``ru_maxrss`` is a process-lifetime high-water mark, so the last
    experiment's value dominates anyway; the max is robust to record
    ordering.  ``None`` when no experiment carries the field (records
    predating PR 3, or non-POSIX runners where it is recorded as
    null).
    """
    values = [
        float(exp[field])
        for exp in record.get("experiments", ())
        if isinstance(exp.get(field), (int, float))
    ]
    return max(values) if values else None


def _experiment_ids(record: dict) -> frozenset:
    return frozenset(
        exp.get("experiment") for exp in record.get("experiments", ())
    )


def _same_experiment_set(newest: dict, baseline: dict) -> bool:
    """Whether two records measured the same experiment set.

    Process-lifetime metrics (peak RSS is an ``ru_maxrss`` high-water
    mark over the whole harness run) are only comparable between runs
    that executed the same experiments — adding an experiment to the
    trajectory job legitimately raises the peak, and must reset the
    baseline rather than read as a regression.
    """
    return _experiment_ids(newest) == _experiment_ids(baseline)


@dataclass(frozen=True)
class Gate:
    """One metric watched across the trajectory.

    ``required``: the metric must exist in the newest record — its
    absence is a configuration error (exit 2), not a skip.  The
    long-standing E13 gate is required so that renaming its table or
    column cannot silently disable the throughput gate; the newer
    gates skip instead, because trajectories genuinely predate them.

    ``comparable``: optional predicate restricting which baseline
    records the newest record may be compared against.
    """

    name: str
    direction: str  # HIGHER: drops fail; LOWER: rises fail
    extract: Callable[[dict], float | None]
    unit: str = ""
    required: bool = False
    comparable: Callable[[dict, dict], bool] | None = None

    def bound(self, baseline: float, threshold: float) -> float:
        """The worst acceptable newest value for ``baseline``."""
        if self.direction == HIGHER:
            return baseline * (1.0 - threshold)
        return baseline * (1.0 + threshold)

    def regressed(self, newest: float, bound: float) -> bool:
        if self.direction == HIGHER:
            return newest < bound
        return newest > bound


def default_gates() -> list[Gate]:
    return [
        Gate(
            "e13-docs-per-sec",
            HIGHER,
            lambda r: table_metric(r, "E13", "E13a", "compiled docs/s"),
            unit="docs/s",
            required=True,  # recorded since PR 1: absence = breakage
        ),
        Gate(
            "e10d-fused-seconds",
            LOWER,
            lambda r: table_metric(r, "E10", "E10d", "fused (s)"),
            unit="s",
        ),
        Gate(
            "e13j-fused-speedup",
            HIGHER,
            lambda r: table_metric(r, "E13", "E13j", "fused speedup"),
            unit="x",
        ),
        Gate(
            "peak-rss-kib",
            LOWER,
            lambda r: rss_metric(r, "peak_rss_kb"),
            unit="KiB",
            comparable=_same_experiment_set,
        ),
        Gate(
            "peak-rss-children-kib",
            LOWER,
            lambda r: rss_metric(r, "peak_rss_children_kb"),
            unit="KiB",
            comparable=_same_experiment_set,
        ),
    ]


def load_records(results_dir: Path) -> list[tuple[str, dict]]:
    """``(name, payload)`` for every BENCH_*.json, oldest first.

    Ordered by the recorded ``unix_time`` (fall back to file mtime), so
    renamed or re-committed files still line up chronologically.
    """
    records = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            print(f"warning: skipping unreadable {path.name}: {err}")
            continue
        stamp = payload.get("unix_time")
        if not isinstance(stamp, (int, float)):
            stamp = path.stat().st_mtime
        records.append((stamp, path.name, payload))
    records.sort(key=lambda item: item[0])
    return [(name, payload) for _stamp, name, payload in records]


def check_gate(
    gate: Gate,
    records: list[tuple[str, dict]],
    *,
    threshold: float,
    window: int,
) -> str:
    """Run one gate over the trajectory: "ok", "regression" or "error"."""
    newest_name, newest = records[-1]
    newest_metric = gate.extract(newest)
    if newest_metric is None:
        if gate.required:
            print(
                f"error: newest record {newest_name} does not record the "
                f"required {gate.name} metric — the gate's table/column "
                "was renamed or the experiment dropped"
            )
            return "error"
        print(
            f"perf-trajectory [{gate.name}]: newest record {newest_name} "
            "does not record this metric — skipping (not comparable)"
        )
        return "ok"
    baseline_values = []
    baseline_names = []
    for name, payload in records[-(window + 1) : -1]:
        if gate.comparable is not None and not gate.comparable(
            newest, payload
        ):
            continue
        value = gate.extract(payload)
        if value is not None:
            baseline_values.append(value)
            baseline_names.append(name)
    if not baseline_values:
        print(
            f"perf-trajectory [{gate.name}]: no comparable baseline "
            "records in the trailing window — passing trivially"
        )
        return "ok"
    baseline = median(baseline_values)
    bound = gate.bound(baseline, threshold)
    regressed = gate.regressed(newest_metric, bound)
    verdict = "REGRESSION" if regressed else "OK"
    sign = "-" if gate.direction == HIGHER else "+"
    print(
        f"perf-trajectory [{gate.name}]: newest {newest_name} = "
        f"{newest_metric:.1f} {gate.unit}, baseline median of "
        f"{len(baseline_values)} record(s) = {baseline:.1f}, "
        f"bound ({sign}{threshold:.0%}) = {bound:.1f} -> {verdict}"
    )
    if regressed:
        print(f"  baseline window: {', '.join(baseline_names)}")
    return "regression" if regressed else "ok"


def check(
    results_dir: Path,
    *,
    gates: list[Gate] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> int:
    """Exit code 0 = all gates pass (or no baseline), 1 = any regression,
    2 = usage error."""
    if not results_dir.is_dir():
        # A freshly reset trajectory has no results directory at all;
        # the gate's job on that first run is to skip loudly, not to
        # crash the CI job that would produce the first record.
        print(
            f"perf-trajectory: no results dir at {results_dir} — "
            "no prior records, gate skipped"
        )
        return 0
    records = load_records(results_dir)
    if records:
        report_fleet_counters(records)
        report_resource_counters(records)
        report_store_counters(records)
        report_backend_comparison(records)
    if len(records) < 2:
        print(
            f"perf-trajectory: {len(records)} record(s) in {results_dir} — "
            "no baseline yet, gate skipped (passing trivially)"
        )
        return 0
    if gates is None:
        gates = default_gates()
    failures = []
    for gate in gates:
        verdict = check_gate(
            gate, records, threshold=threshold, window=window
        )
        if verdict == "error":
            return 2
        if verdict == "regression":
            failures.append(gate.name)
    if failures:
        print(f"perf-trajectory: FAILED gates: {', '.join(failures)}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.check_regression",
        description=(
            "Fail when the newest BENCH_<sha>.json regresses E13 "
            "docs/sec, E10d fused timings or peak RSS by more than the "
            "threshold against a trailing-window median."
        ),
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=DEFAULT_RESULTS_DIR,
        help="directory holding BENCH_*.json records",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional regression that fails the check (default 0.30)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help="how many trailing records form the baseline (default 5)",
    )
    parser.add_argument(
        "--experiment",
        help="run a single custom table gate over this experiment id "
        "instead of the default gate set",
    )
    parser.add_argument(
        "--table-prefix",
        help="table-title prefix for the custom gate (e.g. E13a)",
    )
    parser.add_argument(
        "--column", help="metric column name for the custom gate"
    )
    parser.add_argument(
        "--direction",
        choices=(HIGHER, LOWER),
        default=HIGHER,
        help="which way the custom gate's metric regresses "
        "(default: higher-is-better)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be a fraction in (0, 1)")
    if args.window < 1:
        parser.error("--window must be >= 1")
    custom = (args.experiment, args.table_prefix, args.column)
    gates: list[Gate] | None = None
    if any(v is not None for v in custom):
        if not all(v is not None for v in custom):
            parser.error(
                "--experiment, --table-prefix and --column must be "
                "given together"
            )
        gates = [
            Gate(
                f"{args.experiment}/{args.table_prefix}/{args.column}",
                args.direction,
                lambda r: table_metric(
                    r, args.experiment, args.table_prefix, args.column
                ),
                # An explicitly requested metric missing from the
                # newest record is a usage error, as it always was.
                required=True,
            )
        ]
    return check(
        args.results_dir,
        gates=gates,
        threshold=args.threshold,
        window=args.window,
    )


if __name__ == "__main__":
    sys.exit(main())
