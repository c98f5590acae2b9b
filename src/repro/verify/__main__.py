"""CLI for the verification subsystem.

Usage::

    python -m repro.verify            # everything (model + smoke + analyze)
    python -m repro.verify model      # schedule exploration of the real schemes
    python -m repro.verify smoke      # traced scheme runs + invariant audit
    python -m repro.verify analyze    # whole-program static analysis

Each layer prints a one-line ``[verify] <layer>: PASS|FAIL`` summary to
stderr and the exit status identifies the (first) failing layer without
scrollback: model=3, smoke=4, analyze=5.

``analyze`` options: ``--format json`` emits the full machine-readable
report on stdout (the CI artifact), and ``--paths`` restricts analysis to
a file subset (whole-program completeness checks are skipped then).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional

from .analyze import analyze
from .explorer import explore
from .smoke import SMOKE_SCHEMES, make_smoke_scheme, run_smoke

__all__ = ["main", "LAYER_CODES"]

#: exit code identifying each failing layer.
LAYER_CODES = {"model": 3, "smoke": 4, "analyze": 5}


def _summary(layer: str, ok: bool) -> int:
    print(f"[verify] {layer}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else LAYER_CODES[layer]


def _run_model(ranks: List[int], verbose: bool) -> int:
    # every smoke scheme (all four families) under explored schedules
    failed = 0
    for name in SMOKE_SCHEMES:
        for n in ranks:
            result = explore(partial(make_smoke_scheme, name), n)
            print(f"[verify:model] {name} n={n}: {result.summary()}")
            if not result.ok:
                print(f"  schedule: {result.schedule}")
                for v in result.violations[: None if verbose else 3]:
                    print(f"  {v}")
            failed += 0 if result.ok else 1
    return _summary("model", not failed)


def _run_smoke(seed: int, verbose: bool) -> int:
    results = run_smoke(seed=seed, verbose=verbose)
    bad = 0
    for name, report in results:
        print(f"[verify:smoke] {name:<16} {report.summary()}")
        for v in report.violations[:5]:
            print(f"  [{v.invariant}] t={v.time:.6f} {v.message}")
        bad += 0 if report.ok else 1
    return _summary("smoke", not bad)


def _run_analyze(args) -> int:
    report = analyze(paths=[Path(p) for p in args.paths] if args.paths else None)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        for line in report.render_text():
            print(line)
    return _summary("analyze", report.ok)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.verify", description=__doc__)
    parser.add_argument(
        "layer",
        nargs="?",
        default="all",
        choices=[*LAYER_CODES, "all"],
    )
    parser.add_argument(
        "--ranks",
        type=int,
        nargs="+",
        default=[2, 3, 4],
        help="system sizes for the schedule explorer (default: 2 3 4)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="analyze output format (default: text)",
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help="restrict analyze to these files/directories (skips whole-program checks)",
    )
    args = parser.parse_args(argv)

    # the first failing layer determines the exit code (LAYER_CODES) so
    # CI logs identify the layer at a glance.
    status = 0
    if args.layer in ("model", "all"):
        code = _run_model(args.ranks, args.verbose)
        status = status or code
    if args.layer in ("smoke", "all"):
        code = _run_smoke(args.seed, args.verbose)
        status = status or code
    if args.layer in ("analyze", "all"):
        code = _run_analyze(args)
        status = status or code
    if not (args.layer == "analyze" and args.format == "json"):
        # with `analyze --format json` stdout is exactly the JSON report
        # (the CI artifact); the PASS/FAIL summary already went to stderr.
        print(f"[verify] {'PASS' if status == 0 else 'FAIL'}")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
