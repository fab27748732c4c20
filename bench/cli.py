"""``python -m bench run|compare`` — the benchmark's one command.

``run --workload NAME`` measures one workload in this process and prints
every metric by name with its unit, then the result as one JSON object on
the last line. Without ``--workload`` it runs every workload, each in its
own fresh process, one at a time. ``compare A B`` reads two sets of result
files written with ``--out`` and judges each pair against the bounds in
``BENCHMARK.json``. Both exit non-zero when a check or comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench.calibrate import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "BENCHMARK.json"
#: Where traced runs write their span files unless ``--spans`` says otherwise.
SPANS_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 2023


def load_config() -> dict:
    return json.loads(CONFIG.read_text(encoding="utf-8"))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", help="one workload name (default: all, one process each)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed")
    run.add_argument("--seconds", type=float, default=None,
                     help="timed phase length (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--spans", default=None,
                     help="span file of a traced run (default: .bench_out/)")
    run.add_argument("--out", default=None, help="append each result as a JSON line")
    cmp = sub.add_parser("compare", help="compare two sets of result files")
    cmp.add_argument("a", help="parent results: a result file or a directory of them")
    cmp.add_argument("b", help="change results: a result file or a directory of them")
    return parser


def _print_report(report) -> None:
    print(f"{report.workload:<15} host times scaled to a {REFERENCE_S:g} s reference pass; "
          f"it took {report.reference_s:.4g} s here ({report.iterations} iterations)")
    for name, (value, unit) in report.metrics.items():
        print(f"{report.workload:<15} {name:<30} {value:>16.6g} {unit}")
    for failure in report.failures:
        print(f"{report.workload}: CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(report.result()), flush=True)


def _run_one(args, seconds: float) -> int:
    from bench.runner import measure, measure_traced

    if args.trace:
        spans = args.spans
        if spans is None:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        report, _ = measure_traced(args.workload, args.seed, spans_path=spans)
    else:
        report = measure(args.workload, args.seed, seconds=seconds)
    if args.out:
        line = {"workload": report.workload, "seed": report.seed,
                "trace": report.trace, **report.result()}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
    _print_report(report)
    return 0 if report.correct else 1


def _run_all(args, seconds: float) -> int:
    from bench.workloads import WORKLOADS

    codes = {}
    for name in WORKLOADS:
        cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", os.path.abspath(args.out)]
        codes[name] = subprocess.run(cmd, cwd=ROOT, check=False).returncode
    for name, code in codes.items():
        print(f"{name:<15} {'ok' if code == 0 else f'FAILED (exit {code})'}")
    return 0 if all(code == 0 for code in codes.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    config = load_config()
    if args.command == "compare":
        from bench.compare import run_compare

        return run_compare(args.a, args.b, config["end_to_end"])
    seconds = args.seconds if args.seconds is not None else float(config["run_seconds"])
    if args.workload is None:
        return _run_all(args, seconds)
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return _run_one(args, seconds)
