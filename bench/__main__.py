"""Command line of the benchmark: ``python -m bench [options]``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench import config

# One BLAS thread, set before numpy loads and inherited by `repro
# serve`: the benchmark runs single-threaded, and on a small machine a
# second BLAS thread only contends with the server and other tenants;
# on the 2-vCPU machine of the committed record it made every time both
# slower and noisier.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def _commit() -> str | None:
    if not (config.ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=config.ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads; returns the exit status."""
    if not (config.SRC / "repro").is_dir():
        print(f"error: no program source at {config.SRC}", file=sys.stderr)
        return 2
    try:
        spec = config.load()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    problems = config.validate(spec)
    if problems:
        for problem in problems:
            print(f"error: BENCHMARK.json: {problem}", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in spec["workloads"]]

    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run, repeatable (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=2000,
        help="seed every input is generated from (default: %(default)s)",
    )
    parser.add_argument(
        "--seconds", type=int, default=spec["run_seconds"],
        help="run length; fixes each workload's operation count "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics, untraced; 1: per-layer metrics, "
        "traced (default: both, one after the other)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a correctness gate fails",
    )
    parser.add_argument(
        "--baseline", metavar="RECORD",
        help="a committed run record; exit 1 when an end-to-end metric "
        "is worse than it by more than its bound",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # A SIGTERM unwinds like an error, so every workload's close() runs
    # and the serve subprocesses it started are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, str(config.SRC))
    from bench import harness
    from bench.stats import pin_to_one_cpu, regressions

    # Before `repro serve` starts: it inherits the CPU.
    cpu = pin_to_one_cpu()

    config.OUT.mkdir(parents=True, exist_ok=True)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    records: list[dict[str, Any]] = []
    for name in args.workload or names:
        for trace in modes:
            record = harness.run(name, args.seed, args.seconds, trace, spec)
            records.append(record)
            print(harness.format_run(record), flush=True)

    commit = _commit()
    document = {
        "schema": "repro.bench/v1",
        "commit": commit,
        "machine": {
            "python": platform.python_version(),
            # Not platform.platform(): it runs `uname -p` in a child.
            "platform": "-".join(
                (platform.system(), platform.release(), platform.machine())
            ),
            "cpus": os.cpu_count(),
            "pinned_cpu": cpu,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": records,
    }
    path = config.OUT / f"{commit or 'record'}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"record written to {path.relative_to(config.ROOT)}")

    status = 0
    if args.check and not all(record["correct"] for record in records):
        print("CHECK FAILED: a correctness gate failed", file=sys.stderr)
        status = 1
    if args.baseline:
        found = regressions(
            _end_to_end(json.loads(Path(args.baseline).read_text())),
            _end_to_end(document),
            spec["end_to_end"],
        )
        for regression in found:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        status = status or int(bool(found))
    print(harness.result_line(records))
    return status


def _end_to_end(document: dict[str, Any]) -> dict[str, dict[str, float]]:
    return {
        run["workload"]: {
            name: entry["value"] for name, entry in run["metrics"].items()
        }
        for run in document["runs"]
        if not run["trace"]
    }


if __name__ == "__main__":
    sys.exit(main())
