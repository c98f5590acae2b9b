"""The repo benchmark: four whole commands, timed as a user runs them,
plus one traced run that splits the time by layer.

Two ways to run it::

    python benchmarks/e2e/bench_e2e.py                      # the ledger
    python benchmarks/e2e/bench_e2e.py --workload scale512 --repeats 3
    python benchmarks/e2e/bench_e2e.py --aa                 # two sets, gaps vs bounds
    python benchmarks/e2e/bench_e2e.py --update-baseline    # rewrite baseline.json

    python benchmarks/e2e/bench_e2e.py --workload tables8 --seed 3 \
        --seconds 15 --trace 0                              # one driver run

The ledger runs every workload ``--repeats`` times (each repeat: one cold
command, three warm reruns, three set-up probes) and then one traced run,
prints every metric by name with its unit, checks the outputs and compares
the exact counts with ``baseline.json``. A driver run (``--trace`` given) is one
repeat (``--trace 0``) or one traced run (``--trace 1``) and ends with one
JSON line, as ``BENCHMARK.json`` at the repository root describes.

Every timed command is a fresh interpreter running
``python -m repro.experiments.runner ... --jobs 1 --seed S --cache-dir
<fresh> --timings <tmp>``, one at a time: a closed loop of one client.
End-to-end numbers are always taken with tracing off. Layers are measured
from outside, through their public functions; see README.md beside this
file for the glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from layers import Sampler, Spans, hi_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for cache directories and child output; inside the checkout.
WORK = ROOT / ".bench_e2e"
BASELINE = HERE / "baseline.json"
GOLDEN_TABLES8 = ROOT / "tests" / "golden" / "table3_quick.txt"

QUICK = 0.2  # what ``runner --quick`` passes to every spec constructor
SETUP_PROBES = 3
WARM_RERUNS = 3
CHILD_LIMIT_S = 170.0  # a driver run must end within 180 s
CAL_OPS = 2_000_000  # the bench_kernel.py calibration spin
#: Reference work of a command, from its own simulated statistics: host
#: seconds per simulated second (numerics-bound cells: the flops an app
#: charges follow the numerics it really does) plus host seconds per
#: simulated message (event-bound cells). The rates are this benchmark's
#: first ledger, rounded; they only make seeds comparable (TSP's instance on
#: tables8 and the crash sample on faults8 change how much is simulated) and
#: cancel between two commits that simulate the same thing.
REF_S_PER_SIM_S = 3.8e-3
REF_S_PER_MESSAGE = 41e-6
#: settings that silently change what a command does or where it caches.
GUARDED_ENV = ("REPRO_CACHE_DIR", "REPRO_KERNEL_BACKEND", "REPRO_KERNEL_HEAP_ONLY")
#: at most this share of the traced wall may belong to no layer.
UNATTRIBUTED_LIMIT = 0.10


# -- workloads -----------------------------------------------------------------


def _tables8_spec(seed: int):
    from repro.experiments import table23_spec, table23_workloads

    return table23_spec(workloads=table23_workloads(QUICK), seed=seed)


def _scale_spec(ranks: int, seed: int):
    from repro.experiments import scale_spec

    return scale_spec(ns=(ranks,), seed=seed, scale=QUICK)


def _faults8_spec(seed: int):
    from repro.experiments import failure_rates_spec

    return failure_rates_spec(seed=seed, scale=QUICK)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]  #: what follows ``python -m repro.experiments.runner``
    build: Callable[[int], object]  #: seed -> the ExperimentSpec the command runs
    view: Optional[str] = None  #: the runner prints only this view of the table
    lead_summary: bool = True  #: the runner prints summary lines above the shapes
    verify: bool = False  #: ``--verify``: static gate, post-hoc trace audit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables8", ("table3", "--quick"), _tables8_spec, view="table3"),
        Workload(
            "scale512", ("scale", "--quick", "--ranks", "512"), partial(_scale_spec, 512)
        ),
        Workload(
            "faults8", ("failure-rates", "--quick"), _faults8_spec, lead_summary=False
        ),
        Workload(
            "audit256",
            ("scale", "--quick", "--ranks", "256", "--verify"),
            partial(_scale_spec, 256),
            verify=True,
        ),
    )
}

#: which end-to-end metric each layer's numbers should move, and where.
LAYER_MOVES = {
    "core": "cold wall on scale512, faults8, audit256; no visible move on tables8",
    "net": "cold wall on scale512, faults8, audit256; none on tables8",
    "chklib": "cold wall on scale512, audit256, faults8; recoveries only on faults8",
    "machine": "cold wall on scale512 and audit256; none on tables8",
    "apps": "cold wall on tables8 most of all",
    "fault": "faults8 only; exactly zero crashes elsewhere",
    "verify": "cold wall, peak_rss_mb, setup_s, warm_wall_s on audit256; audits nothing elsewhere",
    "analysis": "warm_wall_s on every workload",
    "experiments": "warm_wall_s and setup_s on every workload; under 1 % of any cold wall",
}


def render_as_runner(workload: Workload, table) -> str:
    """What ``runner <experiment>`` prints to stdout for *table*."""
    shapes = "\n".join(
        ["shape checks (paper's qualitative claims):"]
        + [f"  [{'ok' if ok else 'MISS'}] {key}" for key, ok in table.shapes.items()]
    )
    summary = shapes
    if workload.lead_summary and table.summary_lines:
        summary = table.summary() + "\n" + shapes
    return f"\n{table.render(workload.view)}\n\n{summary}\n\n"


# -- environment ---------------------------------------------------------------


def calibration_spin() -> float:
    """One timed pure-Python spin: the host interpreter's speed, so ledgers
    from different hosts can be normalised."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_OPS):
        acc += i & 7
    return time.perf_counter() - t0


def environment_record(allow_env: bool) -> dict:
    """Who measured: interpreter, cores, kernel backend, guarded settings."""
    found = {name: os.environ[name] for name in GUARDED_ENV if name in os.environ}
    if found and not allow_env:
        raise SystemExit(
            f"bench_e2e: {', '.join(sorted(found))} set in the environment; "
            "unset them, or pass --allow-env to run with them and record them"
        )
    from repro.core.kernel import resolve_backend

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": resolve_backend(),
        "guarded_env": found,
    }


def metric_table() -> Dict[str, dict]:
    """``BENCHMARK.json``: metric name -> {unit, better, bound?}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


# -- running commands ------------------------------------------------------------


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A fresh directory under the checkout, removed afterwards."""
    path = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only succeeds once no other run is using it


@dataclass
class Child:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: Sequence[str], cwd: Path, tag: str) -> Child:
    """Run one command to its end in a fresh interpreter; wall clock from
    spawn to reaped, peak RSS from the child's ``rusage``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out, err = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=stdout, stderr=stderr, env=env, cwd=cwd
        )
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read_bytes(), err.read_bytes()
    )


@dataclass
class Tally:
    """Failures counted against everything attempted."""

    commands: int = 0
    nonzero_exits: int = 0
    cells: int = 0
    failed_cells: int = 0
    checks_failed: int = 0
    notes: Tuple[str, ...] = ()  #: one line per failure, for the reader

    def command(self, child: Child, what: str) -> None:
        self.commands += 1
        if child.exit_code != 0:
            self.nonzero_exits += 1
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.notes += (f"{what}: exit code {child.exit_code}: {' | '.join(tail)}",)

    def cell_stats(self, stats: Dict[str, int]) -> None:
        """Executor statistics of one command, as ``--timings`` writes them."""
        self.cells += stats["requested"]
        self.failed_cells += stats["failed"] + stats["timeouts"]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks_failed += 1
            self.notes += (what,)

    @property
    def failed(self) -> int:
        return self.nonzero_exits + self.failed_cells + self.checks_failed

    @property
    def attempted(self) -> int:
        return self.commands + self.cells

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "notes": list(self.notes)}


# -- output checks ---------------------------------------------------------------


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text())


def check_stdout(
    workload: str, seed: int, stdout: bytes, pins: Dict[str, str], golden: Path
) -> List[str]:
    """At seed 0 every workload's stdout is pinned: ``tables8`` to the
    golden fixture the tier-1 suite compares, the others to a sha256."""
    if seed != 0:
        return []
    if workload == "tables8":
        if not golden.is_file():
            return [f"{workload}: golden fixture {golden} is missing"]
        if stdout != golden.read_bytes():
            return [f"{workload}: stdout differs from {golden.name}"]
        return []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != pins.get(workload):
        return [f"{workload}: stdout sha256 {digest} is not the pinned one"]
    return []


def report_counts(reports: Sequence) -> Dict[str, int]:
    """The simulated statistics of one command's cells; exact at a seed."""
    return {
        "sim_seconds": sum(r.sim_time for r in reports),
        "net.messages": sum(r.app_messages + r.control_messages for r in reports),
        "net.bytes": sum(r.app_bytes + r.control_bytes for r in reports),
        "chklib.checkpoints_taken": sum(r.checkpoints_taken for r in reports),
        "chklib.checkpoints_committed": sum(r.checkpoints_committed for r in reports),
        "chklib.control_messages": sum(r.control_messages for r in reports),
        "chklib.recoveries": sum(len(r.recoveries) for r in reports),
        "machine.storage_bytes_written": int(
            sum(r.storage_bytes_written for r in reports)
        ),
    }


def read_back(workload: Workload, seed: int, cache_dir: Path) -> Tuple[str, dict, int]:
    """Re-derive a command's stdout and counts from the cache it filled,
    through the public grid API: (rendering, counts, cells executed)."""
    from repro.experiments import GridExecutor

    spec = workload.build(seed)
    executor = GridExecutor(jobs=1, cache_dir=cache_dir)
    table = executor.run_specs([spec])[spec.name]
    cells = spec.all_cells(executor.results)
    counts = report_counts([executor.results[c] for c in cells])
    return render_as_runner(workload, table), counts, executor.stats.executed


# -- one repeat: set-up probes, cold command(s), warm reruns ---------------------


def runner_argv(workload: Workload, seed: int, cache: Path, timings: Path) -> List[str]:
    return [
        "-m", "repro.experiments.runner", *workload.argv,
        "--jobs", "1", "--seed", str(seed),
        "--cache-dir", str(cache), "--timings", str(timings),
    ]  # fmt: skip


def setup_probe(workload: Workload, seed: int) -> None:
    """What every command pays before its first cell (runs in a child)."""
    import repro.experiments.runner  # noqa: F401 - the import is the cost
    from repro.experiments.executor import code_fingerprint

    code_fingerprint()
    workload.build(seed)
    if workload.verify:
        from repro.verify.analyze import check_tree

        check_tree()


def measure(workload: Workload, seed: int, seconds: float, pins: Dict[str, str]) -> dict:
    """One repeat with tracing off. Cold commands repeat while another one
    fits in *seconds*; a whole command always runs at least once."""
    tally = Tally()
    cold: List[Child] = []
    calibration: List[float] = []
    counts: Optional[Dict[str, int]] = None
    miss_lines = 0
    with scratch() as tmp:
        started = time.perf_counter()
        while True:
            cache = tmp / f"cache{len(cold)}"
            timings = tmp / "timings.json"
            calibration.append(calibration_spin())
            child = run_child(runner_argv(workload, seed, cache, timings), tmp, "cold")
            tally.command(child, "cold command")
            cold.append(child)
            if child.exit_code == 0:
                stats = json.loads(timings.read_text())["stats"]
                tally.cell_stats(stats)
                rendering, seen, executed = read_back(workload, seed, cache)
                tally.check(executed == 0, "cold command left cells out of its cache")
                tally.check(
                    rendering.encode() == child.stdout,
                    "cold stdout differs from the rendering through the grid API",
                )
                seen["experiments.cells_executed"] = stats["executed"]
                seen["experiments.cells_deduped"] = stats["deduped"]
                tally.check(
                    counts is None or seen == counts,
                    "a count changed between two cold commands at one seed",
                )
                counts = seen
                miss_lines = child.stdout.count(b"[MISS]")
                for failure in check_stdout(
                    workload.name, seed, child.stdout, pins, GOLDEN_TABLES8
                ):
                    tally.check(False, failure)
            spent = time.perf_counter() - started
            if spent + spent / len(cold) > seconds:
                break

        warm = []
        for _ in range(WARM_RERUNS):
            child = run_child(runner_argv(workload, seed, cache, timings), tmp, "warm")
            tally.command(child, "warm command")
            warm.append(child.wall_s)
            tally.check(child.stdout == cold[-1].stdout, "warm stdout differs from cold")
            if child.exit_code == 0:
                stats = json.loads(timings.read_text())["stats"]
                tally.cell_stats(stats)
                tally.check(stats["executed"] == 0, "warm command executed cells")

        # last, so the commands above have compiled whatever bytecode the
        # interpreter caches and the first probe is like the others
        probe_argv = [str(HERE / "bench_e2e.py"), "--setup-probe", workload.name,
                      "--seed", str(seed)]  # fmt: skip
        setup = []
        for _ in range(SETUP_PROBES):
            child = run_child(probe_argv, tmp, "probe")
            tally.command(child, "set-up probe")
            setup.append(child.wall_s)

    if counts is None:
        raise SystemExit("bench_e2e: no cold command succeeded:\n" + "\n".join(tally.notes))
    cold_wall = statistics.median(c.wall_s for c in cold)
    reference = (
        REF_S_PER_SIM_S * counts["sim_seconds"]
        + REF_S_PER_MESSAGE * counts["net.messages"]
    )
    return {
        "metrics": {
            "cold_wall_s": cold_wall,
            "cold_wall_norm": cold_wall / reference,
            "warm_wall_s": statistics.median(warm),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c.rss_mb for c in cold),
        },
        "counts": counts,
        "miss_lines": miss_lines,
        "host_calibration_s": calibration,
        "cold_stdout_sha256": hashlib.sha256(cold[-1].stdout).hexdigest(),
        "samples": {"cold": len(cold), "warm": len(warm), "setup": len(setup)},
        **tally.as_dict(),
    }


# -- the traced run --------------------------------------------------------------


def traced(workload: Workload, seed: int, pins: Dict[str, str]) -> dict:
    """Drive ``baselines -> plan -> cells -> reduce -> render`` through the
    public grid API with a span around every call and the stack sampler on;
    before that, run the baseline cells through a cold and a warm
    ``GridExecutor`` as the untraced reference."""
    from repro.chklib import CheckpointRuntime
    from repro.chklib.runtime import RunReport
    from repro.experiments import GridExecutor, GridResults, cell_key, run_cell
    from repro.experiments.executor import code_fingerprint
    from repro.verify import verified

    tally = Tally()
    spans = Spans()
    with spans.span("code_fingerprint"):
        code_fingerprint()
    with spans.span("spec"):
        spec = workload.build(seed)
    if workload.verify:
        from repro.verify.analyze import check_tree

        with spans.span("check_tree"):
            tally.check(check_tree().ok, "static gate reports findings")

    events = [0]
    audit = {"recorded": 0, "audited": 0, "crashes": 0}
    reports: Dict[str, RunReport] = {}
    results = GridResults()

    def on_event(_time, _event) -> None:
        events[0] += 1

    def run_cells(cells) -> None:
        for cell in cells:
            with spans.span("cell_key"):
                key = cell_key(cell)
            if key in reports:
                continue
            # run_cell, spelled out so the engine and the tracer can be reached
            with spans.span("run_cell"):
                runtime = CheckpointRuntime(
                    cell.workload.build(),
                    scheme=cell.scheme.build() if cell.scheme is not None else None,
                    machine=cell.machine,
                    seed=cell.seed,
                    fault_model=cell.fault,
                )
                runtime.engine.step_hook = on_event
                report = runtime.run()
            audit["recorded"] += len(runtime.tracer.events)
            audit["crashes"] += len(runtime.tracer.events_named("recover.crash"))
            if workload.verify:
                audit["audited"] += len(runtime.tracer.events)
            with spans.span("RunReport.to_dict"):
                as_dict = report.to_dict()
            with spans.span("RunReport.from_dict"):
                reports[key] = RunReport.from_dict(as_dict)
            results.put(key, reports[key])

    sampler = Sampler(observer=str(HERE))
    with scratch() as tmp, (verified() if workload.verify else contextlib.nullcontext()):
        run_cell(spec.baselines[0])  # untimed: lazy imports and first-call set-up
        cold = GridExecutor(jobs=1, cache_dir=tmp / "cache")
        with spans.span("run_cells.cold"):
            cold.run_cells(spec.baselines)
        cache_bytes = sum(p.stat().st_size for p in (tmp / "cache").rglob("*.json"))
        warm = GridExecutor(jobs=1, cache_dir=tmp / "cache")
        with spans.span("run_cells.warm"):
            warm.run_cells(spec.baselines)
        tally.check(warm.stats.executed == 0, "warm run_cells executed cells")

        with spans.span("traced"), sampler.running():
            run_cells(spec.baselines)
            with spans.span("spec.plan"):
                planned = list(spec.plan(results))
            run_cells(planned)
            with spans.span("spec.reduce"):
                table = spec.reduce(results)
            with spans.span("TableResult.render"):
                rendering = render_as_runner(workload, table)

    tally.commands += 3  # cold run_cells, warm run_cells, the traced pass
    requested = len(spec.baselines) + len(planned)
    tally.cells += cold.stats.requested + warm.stats.requested + requested
    tally.failed_cells += cold.stats.failed + cold.stats.timeouts
    for failure in check_stdout(
        workload.name, seed, rendering.encode(), pins, GOLDEN_TABLES8
    ):
        tally.check(False, failure)
    tally.check(
        all(
            reports[cell_key(c)].to_dict() == cold.results[c].to_dict()
            for c in spec.baselines
        ),
        "a traced cell's report differs from the untraced one",
    )

    traced_wall = spans.total("traced")
    unattributed = sampler.seconds.get(None, 0.0)
    tally.check(
        unattributed <= UNATTRIBUTED_LIMIT * traced_wall,
        f"{unattributed / traced_wall:.1%} of the traced wall belongs to no layer",
    )

    executed = list(reports.values())
    counts = report_counts(executed)
    counts.update(
        {
            "core.events_fired": events[0],
            "core.trace_events_recorded": audit["recorded"],
            "fault.crashes": audit["crashes"],
            "verify.trace_events": audit["audited"],
            "experiments.cells_executed": len(executed),
            "experiments.cells_deduped": requested - len(executed),
        }
    )
    cell_s = spans.durations("run_cell")
    hi_value, hi_pct, hi_n = hi_percentile(cell_s)
    reference_s = sum(cold.cell_seconds.values())
    n_reference = cold.stats.executed

    def layer(name: str) -> float:
        return sampler.seconds.get(name, 0.0)

    def per(total: float, count: float, scale: float) -> float:
        return total * scale / count if count else 0.0

    metrics: Dict[str, float] = dict(counts)
    for name in LAYER_MOVES:
        metrics[f"{name}.self_s"] = layer(name)
    metrics.update(
        {
            "core.us_per_event": per(layer("core"), events[0], 1e6),
            "net.us_per_message": per(layer("net"), counts["net.messages"], 1e6),
            "chklib.ms_per_checkpoint": per(
                layer("chklib"), counts["chklib.checkpoints_taken"], 1e3
            ),
            "apps.numpy_s": sampler.numpy_seconds.get("apps", 0.0),
            "verify.static_gate_s": spans.total("check_tree"),
            "verify.us_per_trace_event": per(layer("verify"), audit["audited"], 1e6),
            "experiments.fingerprint_s": spans.total("code_fingerprint"),
            "experiments.spec_build_s": spans.total("spec"),
            "experiments.cell_key_us": statistics.mean(spans.durations("cell_key")) * 1e6,
            "experiments.report_roundtrip_us": per(
                spans.total("RunReport.to_dict") + spans.total("RunReport.from_dict"),
                len(executed),
                1e6,
            ),
            "experiments.cache_bytes_per_cell": per(cache_bytes, n_reference, 1),
            "experiments.cache_write_ms_per_cell": per(
                spans.total("run_cells.cold") - reference_s, n_reference, 1e3
            ),
            "experiments.cache_read_ms_per_cell": per(
                spans.total("run_cells.warm"), warm.stats.cache_hits, 1e3
            ),
            "experiments.reduce_render_s": spans.total("spec.reduce")
            + spans.total("TableResult.render"),
            "cell_wall_p50_ms": statistics.median(cell_s) * 1e3,
            "cell_wall_hi_ms": hi_value * 1e3,
            "sim_s_per_host_s": counts["sim_seconds"] / sum(cell_s),
            "unattributed_s": unattributed,
            "trace_overhead_ratio": sum(cell_s[:n_reference]) / reference_s,
        }
    )
    return {
        "metrics": metrics,
        "counts": counts,
        "traced_wall_s": traced_wall,
        "cell_wall_hi": {"percentile": hi_pct, "samples": hi_n},
        "spans": {
            name: {
                "count": len(spans.durations(name)),
                "total_s": spans.total(name),
                "self_s": spans.self_time(name),
            }
            for name in sorted({record[0] for record in spans.records})
        },
        **tally.as_dict(),
    }


# -- the ledger ------------------------------------------------------------------


def summarise(values: Sequence[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def ledger(names: Sequence[str], seed: int, repeats: int, env: dict) -> dict:
    """Every workload: *repeats* untraced repeats, then one traced run in a
    fresh interpreter (no memoised fingerprint or gate, no inherited RSS)."""
    meta = metric_table()
    pins = load_baseline()["pins"]
    out: Dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        print(f"== {name}  (runner {' '.join(workload.argv)})  seed {seed}, "
              f"{repeats} repeats", flush=True)  # fmt: skip
        runs = [measure(workload, seed, 0.0, pins) for _ in range(repeats)]
        end_to_end = {
            metric: summarise([run["metrics"][metric] for run in runs])
            for metric in runs[0]["metrics"]
        }
        for metric, s in end_to_end.items():
            unit = meta[metric]["unit"] if metric in meta else "s"
            print(f"  {metric:<38} {s['median']:>14.4f} {unit:<6} "
                  f"[min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']}]")  # fmt: skip
        print(f"  [MISS] lines in stdout: {runs[0]['miss_lines']}", flush=True)

        with scratch() as tmp:
            detail = tmp / "traced.json"
            child = run_child(
                [str(HERE / "bench_e2e.py"), "--workload", name, "--seed", str(seed),
                 "--trace", "1", "--json", str(detail)],
                tmp,
                "traced",
            )  # fmt: skip
            if child.exit_code != 0:
                raise SystemExit(f"bench_e2e: the traced run failed:\n{child.stderr.decode()}")
            trace = json.loads(detail.read_text())
        hi = trace["cell_wall_hi"]
        print(f"  per layer, one traced run of {trace['traced_wall_s']:.2f} s "
              f"(cell_wall_hi_ms is p{hi['percentile']:.1f} of {hi['samples']} cells):")  # fmt: skip
        group = None
        for metric, m in meta.items():
            if "bound" in m:
                continue
            head = metric.split(".")[0] if "." in metric else "run"
            if head != group:
                group = head
                print(f"    -- {head}: {LAYER_MOVES.get(head, 'the whole traced run')}")
            print(f"    {metric:<36} {trace['metrics'][metric]:>16.4f} {m['unit']}")

        parts = runs + [trace]
        extra = []
        if any(run["counts"] != runs[0]["counts"] for run in runs):
            extra.append("a count changed between repeats")
        if any(trace["counts"][k] != v for k, v in runs[0]["counts"].items()):
            extra.append("the traced run's counts differ from the commands'")
        notes = [note for part in parts for note in part["notes"]] + extra
        attempted = sum(part["attempted"] for part in parts)
        failed = sum(part["failed"] for part in parts) + len(extra)
        print(f"  failed_share {failed / attempted:.6f}  ({failed} of {attempted} attempted)")
        for note in notes:
            print(f"  FAILED: {note}")
        out[name] = {
            "end_to_end": end_to_end,
            "per_layer": trace["metrics"],
            "counts": trace["counts"],
            "miss_lines": runs[0]["miss_lines"],
            "stdout_sha256": runs[0]["cold_stdout_sha256"],
            "host_calibration_s": [c for run in runs for c in run["host_calibration_s"]],
            "cell_wall_hi": hi,
            "spans": trace["spans"],
            "failed": failed,
            "attempted": attempted,
            "notes": notes,
        }
    return {"seed": seed, "repeats": repeats, "environment": env, "workloads": out}


def report_drift(result: dict, baseline: dict) -> None:
    """Counts against ``baseline.json`` exactly, timings relatively — apart,
    so a speed-only change can show every simulated statistic identical."""
    if result["seed"] != baseline.get("seed"):
        print(f"drift: baseline.json is for seed {baseline.get('seed')}; not compared")
        return
    cal_now = statistics.median(
        c for w in result["workloads"].values() for c in w["host_calibration_s"]
    )
    cal_then = baseline["environment"]["host_calibration_s"]
    print(f"drift against baseline.json (host calibration spin {cal_now / cal_then - 1:+.1%}):")
    for name, now in result["workloads"].items():
        then = baseline["workloads"].get(name)
        if then is None:
            continue
        moved = {
            k: (then["counts"].get(k), v)
            for k, v in now["counts"].items()
            if then["counts"].get(k) != v
        }
        if moved:
            print(f"count drift on {name}:")
            for key, (old, new) in moved.items():
                print(f"    {key}: {old} -> {new}")
        else:
            print(f"count drift on {name}: none, every simulated statistic identical")
        for metric, s in now["end_to_end"].items():
            old = then["end_to_end"][metric]["median"]
            print(f"    timing drift {metric:<24} {s['median'] / old - 1:+8.1%}")


def aa_gaps(first: dict, second: dict) -> int:
    """Two sets of runs of one code: the gap of the medians, per workload and
    end-to-end metric, against the bound ``BENCHMARK.json`` fixes."""
    bounds = {n: m["bound"] for n, m in metric_table().items() if "bound" in m}
    over = 0
    print("A/A: relative gap of the medians against each metric's bound")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, bound in bounds.items():
            one = a["end_to_end"][metric]["median"]
            two = b["end_to_end"][metric]["median"]
            gap = abs(two - one) / one
            verdict = "ok" if gap <= bound else "OVER"
            over += gap > bound
            print(f"  {name:<9} {metric:<22} {one:>12.4f} {two:>12.4f}  "
                  f"gap {gap:6.2%}  bound {bound:.0%}  {verdict}")  # fmt: skip
    return over


def write_baseline(result: dict) -> None:
    """``baseline.json``: the pins, the exact counts and the first ledger."""
    if result["seed"] != 0 or set(result["workloads"]) != set(WORKLOADS):
        raise SystemExit("bench_e2e: the baseline is all four workloads at seed 0")
    env = dict(result["environment"])
    env["host_calibration_s"] = statistics.median(
        c for w in result["workloads"].values() for c in w["host_calibration_s"]
    )
    BASELINE.write_text(
        json.dumps(
            {
                "seed": 0,
                "repeats": result["repeats"],
                "environment": env,
                "pins": {
                    name: w["stdout_sha256"]
                    for name, w in result["workloads"].items()
                    if name != "tables8"
                },
                "workloads": {
                    name: {
                        key: w[key]
                        for key in ("counts", "end_to_end", "per_layer",
                                    "cell_wall_hi", "miss_lines")  # fmt: skip
                    }
                    for name, w in result["workloads"].items()
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"baseline written to {BASELINE}")


# -- entry point -----------------------------------------------------------------


def driver_run(
    workload: Workload, seed: int, seconds: float, trace: int, detail: Optional[str]
) -> None:
    """One run as ``BENCHMARK.json`` describes it; the result is the last line."""
    meta = metric_table()
    pins = load_baseline()["pins"]
    run = traced(workload, seed, pins) if trace else measure(workload, seed, seconds, pins)
    for note in run["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    if detail:
        Path(detail).write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": run["metrics"][name], "unit": m["unit"]}
                    for name, m in meta.items()
                    if ("bound" in m) != bool(trace)
                },
            }
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")  # fmt: skip
    parser.add_argument("--seed", type=int, default=0, help="forwarded as --seed")
    parser.add_argument("--repeats", type=int, default=5,
                        help="ledger: untraced repeats per workload (at least 3)")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="driver run: cold commands repeat while one more fits")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver run: 0 = end-to-end metrics, 1 = per-layer")  # fmt: skip
    parser.add_argument("--aa", action="store_true",
                        help="run two full sets; exit non-zero if a gap exceeds its bound")  # fmt: skip
    parser.add_argument("--json", metavar="PATH",
                        help="also write the ledger, or the driver run in full, as JSON")  # fmt: skip
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite baseline.json from this ledger")  # fmt: skip
    parser.add_argument("--allow-env", action="store_true",
                        help=f"run with {'/'.join(GUARDED_ENV)} set, and record them")  # fmt: skip
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(WORKLOADS[args.setup_probe], args.seed)
        return 0
    env = environment_record(args.allow_env)

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        driver_run(
            WORKLOADS[args.workload[0]], args.seed, args.seconds, args.trace, args.json
        )
        return 0

    if args.repeats < 3:
        parser.error("--repeats below 3 gives no median worth the name")
    names = args.workload or list(WORKLOADS)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    result = ledger(names, args.seed, args.repeats, env)
    failed = sum(w["failed"] for w in result["workloads"].values())
    if args.aa:
        second = ledger(names, args.seed, args.repeats, env)
        failed += sum(w["failed"] for w in second["workloads"].values())
        failed += aa_gaps(result, second)
        result = {"first": result, "second": second}
    elif args.update_baseline:
        write_baseline(result)
    else:
        report_drift(result, load_baseline())
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
