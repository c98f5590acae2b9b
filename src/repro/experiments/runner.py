"""Command-line entry point: regenerate any table or supporting experiment.

Usage::

    python -m repro.experiments.runner table1 [--quick] [--seed N]
    python -m repro.experiments.runner table2
    python -m repro.experiments.runner table3
    python -m repro.experiments.runner ablation-staggering
    python -m repro.experiments.runner ablation-sync
    python -m repro.experiments.runner sweep-writers
    python -m repro.experiments.runner sweep-storage
    python -m repro.experiments.runner domino
    python -m repro.experiments.runner storage-overhead
    python -m repro.experiments.runner resilience
    python -m repro.experiments.runner all [--jobs N]
    python -m repro.experiments.runner --list-schemes

Every experiment is a declarative :class:`~repro.experiments.grid.ExperimentSpec`;
the runner hands the selected specs to one shared
:class:`~repro.experiments.executor.GridExecutor`, which deduplicates
identical cells across experiments, fans unique cells out over ``--jobs``
worker processes and memoises results in a content-keyed on-disk cache
(``--cache-dir``, ``--no-cache``).  Tables go to stdout; all diagnostics
(executor statistics, wall time, ``--timings`` notices) go to stderr, so
stdout is byte-identical regardless of job count or cache state.

Any invocation accepts ``--verify``: every simulation run is then audited
live by the trace invariant engine (:mod:`repro.verify`), and the
first violated invariant aborts the experiment with a VerificationError.
Before any cell runs, ``--verify`` also gates on the static analyzer's
whole-tree report (exit 2 on any finding); a clean verdict is recorded in
the result cache and reused while the code and the interpreter version
stay the same.
The verification smoke battery (a small traced run of every scheme, plus
a crash, with the audit always on) is ``python -m repro.verify smoke``.

Robustness: every finished cell is a fsynced, atomically renamed cache
entry, so a sweep killed mid-flight (even ``kill -9``) resumes where it
left off, with byte-identical stdout, when rerun against the same
``--cache-dir``; ``--cell-timeout SECONDS`` bounds each cell's wall clock
(a timed-out cell is retried once, then recorded as failed).  Failed or
timed-out cells no longer abort the whole sweep: the runner renders every
table it can, prints a per-cell failure summary to stderr and exits
non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .. import experiments
from ..machine import MachineParams
from .executor import (
    GridExecutor,
    code_fingerprint,
    default_cache_dir,
    write_json_atomic,
)
from .grid import ExperimentSpec

__all__ = ["main"]

#: CLI name -> (spec name, report title, view restriction, print summary?).
#: ``table2`` and ``table3`` are two views of the single shared ``table23``
#: grid result — the executor runs that spec once for both.
_EXPERIMENTS = {
    "table1": ("table1", "Table 1 — overhead per checkpoint", None, True),
    "table2": ("table23", "Table 2 — execution times", "table2", False),
    "table3": ("table23", "Table 3 — overhead percentages", "table3", True),
    "ablation-staggering": (
        "ablation-staggering", "A1 — staggering ablation", None, False,
    ),
    "ablation-sync": (
        "ablation-sync", "A2 — synchronisation vs saving cost", None, False,
    ),
    "sweep-writers": ("sweep-writers", "S1 — writer sweep", None, False),
    "sweep-storage": (
        "sweep-storage", "S2 — storage-bandwidth sweep", None, False,
    ),
    "domino": ("domino", "R1 — rollback behaviour", None, False),
    "storage-overhead": (
        "storage-overhead", "R2 — stable-storage overhead", None, False,
    ),
    "capture": ("capture", "E1 — capture modes and incremental", None, False),
    "failure-rates": (
        "failure-rates", "E2/F1 — completion vs failure rate", None, False,
    ),
    "interval-sweep": (
        "interval-sweep", "E2/F2 — interval sweep vs Young", None, False,
    ),
    "two-level": ("two-level", "E3 — two-level stable storage", None, False),
    "resilience": (
        "resilience", "R3 — resilience under faulty stable storage", None, False,
    ),
    "scale": ("scale", "Scale — overhead vs machine size", None, True),
}

#: ``all`` excludes the scale sweep: its N=1024 cells dwarf every other
#: experiment's wall time (run it explicitly: ``runner scale --quick``).
_ALL_ORDER = [name for name in _EXPERIMENTS if name != "scale"]


def _emit(body: str, summary: str = "") -> None:
    print()
    print(body)
    if summary:
        print()
        print(summary)
    print()


def _shape_report(shapes: dict) -> str:
    lines = ["shape checks (paper's qualitative claims):"]
    for key, ok in shapes.items():
        lines.append(f"  [{'ok' if ok else 'MISS'}] {key}")
    return "\n".join(lines)


#: spec name -> (factory, the keyword its ``--ranks`` workload override
#: goes by: a row list or a single workload).  Factories are looked up by
#: name on the package surface, which imports the one module defining
#: each, so a command loads only the experiments it runs.  Every factory
#: here takes ``seed``, ``scale`` and ``machine``; ``scale`` and
#: ``sweep-writers`` size their own machines and are built separately in
#: :func:`_build_spec`.
_FACTORIES = {
    "table1": ("table1_spec", "workloads"),
    "table23": ("table23_spec", "workloads"),
    "ablation-staggering": ("staggering_spec", "workloads"),
    "ablation-sync": ("sync_cost_spec", "workloads"),
    "sweep-storage": ("bandwidth_sweep_spec", "workload"),
    "domino": ("domino_spec", "workloads"),
    "storage-overhead": ("storage_overhead_spec", "workloads"),
    "capture": ("capture_spec", "workloads"),
    "failure-rates": ("failure_rates_spec", "workload"),
    "interval-sweep": ("interval_sweep_spec", "workload"),
    "two-level": ("two_level_spec", "workloads"),
    "resilience": ("resilience_spec", "workload"),
}


def _build_spec(
    spec_name: str,
    seed: int,
    scale: float,
    ranks: Optional[int] = None,
    topology: Optional[str] = None,
) -> ExperimentSpec:
    """One experiment spec, with ``--quick``'s scale plumbed everywhere.

    ``--ranks``/``--topology`` resize the simulated machine for *any*
    experiment: the machine becomes the named preset (or the scale
    sweep's default shape) at ``ranks`` nodes, and — because the paper's
    fixed-size workload catalogues cannot be partitioned over arbitrarily
    many ranks — the workload becomes the weak-scaled SOR row used by the
    scale sweep. At the default 8 ranks with no topology flag nothing
    changes.
    """
    if spec_name == "scale":
        return experiments.scale_spec(
            ns=(ranks,) if ranks is not None else None,
            seed=seed,
            scale=scale,
            topology=topology,
        )
    if spec_name == "sweep-writers":
        if ranks is None:
            return experiments.writer_sweep_spec(
                seed=seed, scale=scale, topology=topology
            )
        counts = sorted({max(2, ranks // 4), max(2, ranks // 2), ranks})
        return experiments.writer_sweep_spec(
            node_counts=counts,
            seed=seed,
            scale=scale,
            base_grid=max(128, 4 * counts[0] + 2),
            topology=topology,
        )
    if spec_name not in _FACTORIES:
        raise ValueError(f"unknown spec {spec_name!r}")
    factory, workload_kw = _FACTORIES[spec_name]
    machine = None
    if ranks is not None or topology is not None:
        machine = experiments.scale_machine(
            ranks if ranks is not None else 8, topology
        )
    override = None
    if ranks is not None:
        override = experiments.scale_workload(ranks, scale)
        if workload_kw == "workloads":
            override = [override]
    return getattr(experiments, factory)(
        seed=seed, scale=scale, machine=machine, **{workload_kw: override}
    )


#: layout version of a recorded static-gate verdict.
_VERDICT_VERSION = 1


def _static_gate(cache_dir: Optional[str], use_cache: bool) -> bool:
    """``--verify``'s static gate: the whole-tree analyzer report, clean
    only with no finding.

    The verdict is a pure function of two inputs — every ``*.py`` under
    the package (:func:`code_fingerprint`, the analyzer included) and the
    interpreter's minor version (its ``ast``) — so a clean one is
    recorded in the result cache under their sha256 and the next command
    on the same tree reuses it without importing the analyzer. A failing
    verdict is never recorded: its findings print on every run until they
    are fixed.
    """
    fingerprint = code_fingerprint()
    key = hashlib.sha256(fingerprint.encode("ascii"))
    key.update("{}.{}".format(*sys.version_info[:2]).encode("ascii"))
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / "gate" / f"{key.hexdigest()}.json"
    if use_cache:
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            entry = {}
        if entry.get("version") == _VERDICT_VERSION and entry.get("ok") is True:
            print(
                f"[runner] static gate: reused the clean verdict for tree "
                f"{fingerprint[:12]}",
                file=sys.stderr,
            )
            return True
    from ..verify.analyze import check_tree

    report = check_tree(force=True)
    if not report.ok:
        for line in report.render_text():
            print(line, file=sys.stderr)
        print(
            "[runner] static analysis failed; fix each finding or waive "
            "its line with `# verify: allow[rule]` (never in repro/core/)",
            file=sys.stderr,
        )
        return False
    print(
        f"[runner] static gate: analysed tree {fingerprint[:12]}: clean",
        file=sys.stderr,
    )
    if use_cache:
        write_json_atomic(
            path,
            {"version": _VERDICT_VERSION, "fingerprint": fingerprint, "ok": True},
        )
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=list(_EXPERIMENTS) + ["all"],
    )
    parser.add_argument(
        "--list-schemes",
        action="store_true",
        help="print every scheme alias (family + fixed overrides) from "
        "the protocol registry, then exit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ranks",
        type=int,
        default=None,
        metavar="N",
        help="simulate N ranks instead of the experiment's default size "
        "(swaps the workload for the weak-scaled SOR row; for the scale "
        "sweep, runs just the N-rank point)",
    )
    parser.add_argument(
        "--topology",
        choices=list(MachineParams.TOPOLOGY_PRESETS),
        default=None,
        help="machine preset to run on (default: each experiment's own "
        "machine; the scale sweep picks flat at 8 ranks, racks beyond)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="audit every run's event stream live (repro.verify)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink iteration counts ~5x (faster, same checkpoint volumes)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the grid (default: all CPU cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"result cache location (default: {default_cache_dir()}); "
        "rerunning a killed sweep against it resumes the sweep",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget per cell (0 = unbounded); a timed-out "
        "cell is retried once, then recorded as failed",
    )
    parser.add_argument(
        "--timings",
        metavar="PATH",
        default=None,
        help="write per-experiment execution seconds + executor stats as JSON",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write a consolidated markdown report of everything run",
    )
    args = parser.parse_args(argv)

    if args.list_schemes:
        from ..chklib.schemes.registry import ALIASES, BASES

        for alias, base, fixed in ALIASES:
            family = BASES[base][0]
            overrides = (
                " ".join(f"{k}={v}" for k, v in sorted(fixed.items())) or "-"
            )
            print(f"{alias:<18} {family:<12} {overrides}")
        return 0
    if args.experiment is None:
        parser.error("an experiment is required (or --list-schemes)")

    if args.verify:
        from ..verify.trace_check import set_runtime_verification

        set_runtime_verification(True)
        # static gate before any simulation. Output goes to stderr only —
        # runner stdout is byte-compared by the resume-smoke CI job and
        # must stay result-only.
        if not _static_gate(args.cache_dir, use_cache=not args.no_cache):
            return 2

    scale = 0.2 if args.quick else 1.0
    t0 = time.time()  # verify: allow[wall-clock] — CLI wall-time reporting
    todo = [args.experiment] if args.experiment != "all" else list(_ALL_ORDER)

    # one spec per distinct grid (table2 + table3 share "table23")
    specs: Dict[str, ExperimentSpec] = {}
    for exp in todo:
        spec_name = _EXPERIMENTS[exp][0]
        if spec_name not in specs:
            specs[spec_name] = _build_spec(
                spec_name,
                args.seed,
                scale,
                ranks=args.ranks,
                topology=args.topology,
            )

    executor = GridExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        verify=args.verify,
        cell_timeout=args.cell_timeout,
        raise_on_failure=False,
    )
    results = executor.run_specs(list(specs.values()))

    report_sections = []
    for exp in todo:
        spec_name, title, view, with_summary = _EXPERIMENTS[exp]
        res = results.get(spec_name)
        if res is None:
            print(
                f"[runner] {exp}: no result "
                f"({executor.spec_errors.get(spec_name, 'spec failed')})",
                file=sys.stderr,
            )
            continue
        if view is not None and not with_summary:  # table2: just the table
            report_sections.append((title, res.view(view)))
            _emit(res.render(view))
            continue
        if view is not None:  # table3: one view + the shared shapes/summary
            from ..analysis import TableResult

            narrowed = TableResult(
                name=view,
                views=[res.view(view)],
                shapes=res.shapes,
                summary_lines=res.summary_lines,
            )
            report_sections.append((title, narrowed))
            _emit(
                narrowed.render(),
                narrowed.summary() + "\n" + _shape_report(narrowed.shapes),
            )
            continue
        report_sections.append((title, res))
        summary = _shape_report(res.shape_holds())
        if with_summary and res.summary_lines:
            summary = res.summary() + "\n" + summary
        _emit(res.render(), summary)

    if args.report and report_sections:
        from ..analysis import build_report

        text = build_report(report_sections, seed=args.seed)
        with open(args.report, "w") as fh:
            fh.write(text)
        print(f"[runner] report written to {args.report}", file=sys.stderr)

    if args.timings:
        timings = {
            "experiments": {
                name: round(executor.spec_seconds(spec), 6)
                for name, spec in specs.items()
            },
            "stats": executor.stats.as_dict(),
            "jobs": executor.jobs,
            "wall_seconds": round(time.time() - t0, 3),  # verify: allow[wall-clock] — CLI wall-time reporting
        }
        with open(args.timings, "w") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
        print(f"[runner] timings written to {args.timings}", file=sys.stderr)

    print(f"[runner] grid: {executor.stats}", file=sys.stderr)
    wall = time.time() - t0  # verify: allow[wall-clock] — CLI wall-time reporting
    print(f"[runner] done in {wall:.1f}s wall", file=sys.stderr)

    if executor.failures or executor.spec_errors:
        if executor.failures:
            print(
                f"[runner] {len(executor.failures)} cell(s) FAILED:",
                file=sys.stderr,
            )
            for key, rec in executor.failures.items():
                cell = rec["cell"]
                scheme = (cell.get("scheme") or {}).get("name", "baseline")
                print(
                    f"    {cell['workload']['label']}/{scheme} "
                    f"({rec['kind']}, {rec['attempts']} attempts, "
                    f"key {key[:12]}...): {rec['error']}",
                    file=sys.stderr,
                )
        for name, msg in executor.spec_errors.items():
            print(f"[runner] spec {name}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
