"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload direct-plummer --seed 1 \
        --seconds 10 --trace 0

Prints a human-readable table of every end-to-end metric (name, value,
unit, clock, sample counts) — or, with ``--trace 1``, every per-layer
metric — then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the metrics
``BENCHMARK.json`` names.  Exits non-zero when any correctness check or
operation failed, and refuses to run without the native kernels.  The
traced run also writes its spans to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Pinned regardless of the caller's environment: the shard executor
#: (serial — the thread executor measures this host's scheduler), the
#: engine, lint/sanitize off, native kernels on, Scope file output off.
PINNED_ENV = {
    "REPRO_SHARD_WORKERS": "serial",
    "REPRO_TT_ENGINE": "batched",
    "REPRO_LINT": "off",
    "REPRO_SANITIZE": "0",
    "REPRO_NATIVE": "1",
}
UNSET_ENV = ("REPRO_TRACE", "REPRO_PAPER_SCALE")

#: the end-to-end metrics BENCHMARK.json gates: every workload reports
#: them (see README.md for why the others are printed but not gated)
GATED = ("setup_s", "latency_s.p50", "peak_rss_mb")

#: print order of the end-to-end table (a workload prints those that apply)
E2E_ORDER = GATED + (
    "particle_steps_per_s", "step_wall_s.p50", "step_wall_s.tail",
    "jobs_per_s", "job_latency_s.p50", "job_latency_s.tail",
    "model_s", "force_err", "energy_err", "failed_frac",
)


def _pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    # the native .so cache and compiler scratch live in the checkout
    work = HERE / ".work" / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    import tempfile

    tempfile.tempdir = None


def result_line(report: dict, trace: bool) -> dict:
    """The result line: the gated metrics (or every per-layer one), unrounded."""
    outcome = report["outcome"]
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {name: {"value": report["e2e"][name]["value"],
                          "unit": report["e2e"][name]["unit"]}
                   for name in GATED}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def format_report(report: dict, trace: bool) -> str:
    outcome = report["outcome"]
    host = report["host"]
    lines = [
        f"perfbench {report['workload']} seed={report['seed']} "
        f"trace={int(trace)}",
        "host: " + " ".join(f"{k}={v}" for k, v in host.items()),
        "samples: " + " ".join(f"{k}={v}" for k, v in report["samples"].items()),
    ]
    if trace:
        lines.append(f"{'per-layer metric':38s} {'value':>14s}  unit")
        for name, (value, unit) in report["layers"].items():
            lines.append(f"{name:38s} {value:14.6g}  {unit}")
    else:
        e2e = dict(report["e2e"])
        e2e["failed_frac"] = {
            "value": outcome.failed / max(outcome.attempted, 1),
            "unit": "ratio", "clock": "none",
            "attempted": outcome.attempted,
        }
        lines.append(f"{'metric':24s} {'value':>14s}  {'unit':6s} "
                     f"{'clock':9s} note")
        for name in (n for n in E2E_ORDER if n in e2e):
            entry = e2e[name]
            note = " ".join(f"{k}={v:.6g}" if isinstance(v, float)
                            else f"{k}={v}" for k, v in entry.items()
                            if k not in ("value", "unit", "clock"))
            lines.append(f"{name:24s} {entry['value']:14.6g}  "
                         f"{entry['unit']:6s} {entry['clock']:9s} {note}")
    for name, ok in outcome.checks.items():
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}")
    lines.extend(f"error: {e}" for e in outcome.errors[:20])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from harness import NativeUnavailable, host_facts, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        host = host_facts()
    except NativeUnavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    trace = bool(args.trace)
    report = run_workload(workload, args.seed, args.seconds, trace, host)
    if trace:
        report["spans"].write(
            HERE / ".out" / f"{workload.name}-seed{args.seed}-spans.json",
            {"workload": workload.name, "seed": args.seed, "host": host},
        )
    print(format_report(report, trace))
    line = result_line(report, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
