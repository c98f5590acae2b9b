"""Kernel micro-benchmark suite: measure and defend the hot path.

Every table of the reproduction is produced by millions of pops through
``Engine.step``; this suite pins down what one pop, one timeout, one
message round-trip and one full checkpoint round cost, so kernel changes
are measurable (and regressions catchable in CI).

Benchmarks
----------

* ``event_churn``      — succeed/pop cycles of bare ``Event``s (the
  delay-0 fast lane: every ``succeed``, process bootstrap and condition
  trigger takes this path);
* ``timeout_storm``    — many processes sleeping on distinct non-zero
  delays (the future-event heap path);
* ``ping_pong``        — a message round-trip between two ranks through
  the full net stack (mailbox match, transport, link resource);
* ``coord_nbm_round``  — a complete Coord_NBM run of a small SOR grid
  (checkpoint rounds included: 2PC control traffic, storage writes);
* ``indep_run``        — the same workload under independent
  checkpointing with message logging;
* ``scale_512``        — one staggered coordinated round (Coord_NBMS,
  peers-scoped markers) at 512 ranks on the 16-rack hierarchical
  machine: the large-topology path (per-rack link costs, multi-server
  storage plane, per-server staggering rings) under load;
* ``scale_1024``       — the same round at 1024 ranks (32 racks): more
  events at each shared timestamp, longer timeout storms.

Backends: ``--backend {reference,twotier}`` runs the whole
suite under one kernel backend (it sets ``REPRO_KERNEL_BACKEND`` for
every engine the benches build). Per-backend baselines live in the
``backends`` section of BENCH_kernel.json — record one with
``--backend X --update-backend-baseline`` and gate against it with
``--backend X --check BENCH_kernel.json`` (each backend is compared
against its *own* committed numbers; the legacy ``after`` section
gates runs with no backend recorded).

Timing harness: stdlib only — ``time.perf_counter`` around whole
simulation runs, median of ``--repeats`` fresh runs.  Every sample is
paired with an *adjacent* pure-Python calibration spin, and the
``normalised`` score is the median of per-sample ``bench/calibration``
ratios: host-load drift (shared CI runners, noisy containers) hits the
sample and its calibration alike, so the ratio stays comparable across
machines and across differently-loaded runs of the same machine.  The
CI gate (``--check``) compares normalised medians and fails on >25 %
regression against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py                # table
    PYTHONPATH=src python benchmarks/bench_kernel.py --json out.json
    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --update-baseline after --baseline BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --check BENCH_kernel.json                                   # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, IndependentScheme
from repro.core.engine import Engine
from repro.core.kernel import BACKEND_ENV, DEFAULT_BACKEND, available_backends
from repro.core.events import Event
from repro.machine import MachineParams
from repro.machine.cluster import Cluster
from repro.net.api import Comm
from repro.net.transport import Transport

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: benchmarks whose committed before/after speedup the acceptance
#: criteria call out explicitly.
HEADLINE = ("event_churn", "timeout_storm")

#: normalised-median regression tolerance for the CI gate.
TOLERANCE = 1.25


# ---------------------------------------------------------------------------
# micro-benchmarks (each returns the number of kernel "operations" done)


def bench_event_churn(scale: float = 1.0) -> int:
    """Delay-0 event cycles: allocate, succeed, pop, resume."""
    ops = max(1000, int(200_000 * scale))
    eng = Engine()

    def churner():
        for _ in range(ops):
            ev = Event(eng)
            ev.succeed(None)
            yield ev

    eng.process(churner())
    eng.run()
    return ops


def bench_timeout_storm(scale: float = 1.0) -> int:
    """Future-event heap churn: 32 tickers on distinct periods."""
    n_procs = 32
    per = max(100, int(3_000 * scale))
    eng = Engine()

    def ticker(i: int):
        delay = 0.001 + i * 0.000097
        for _ in range(per):
            yield eng.timeout(delay)

    for i in range(n_procs):
        eng.process(ticker(i))
    eng.run()
    return n_procs * per


def bench_ping_pong(scale: float = 1.0) -> int:
    """Message round-trips through mailbox + transport + link."""
    rounds = max(200, int(8_000 * scale))
    eng = Engine()
    cluster = Cluster(eng, MachineParams.xplorer(2))
    transport = Transport(cluster)
    c0 = Comm(transport, 0, 2)
    c1 = Comm(transport, 1, 2)

    def ping():
        for i in range(rounds):
            yield from c0.send(1, i)
            yield from c0.recv(source=1)

    def pong():
        for _ in range(rounds):
            msg = yield from c1.recv(source=0)
            yield from c1.send(0, msg.payload)

    eng.process(ping())
    eng.process(pong())
    eng.run()
    return 2 * rounds


def _sor_runtime(scheme_factory, scale: float) -> CheckpointRuntime:
    app = SOR(n=48, iters=max(8, int(30 * scale)))
    machine = MachineParams.xplorer(4)
    # Probe the uncheckpointed duration once so checkpoint times land
    # inside the run regardless of scale (cached across repeats).
    key = scale
    t = _sor_runtime._durations.get(key)
    if t is None:
        probe = CheckpointRuntime(
            SOR(n=48, iters=max(8, int(30 * scale))),
            machine=machine,
            seed=1,
            trace=False,
        ).run()
        t = probe.sim_time
        _sor_runtime._durations[key] = t
    times = [t / 4, t / 2, 3 * t / 4]
    return CheckpointRuntime(
        app, scheme=scheme_factory(times), machine=machine, seed=1, trace=False
    )


_sor_runtime._durations = {}  # type: ignore[attr-defined]


def bench_coord_nbm_round(scale: float = 1.0) -> int:
    """Full Coord_NBM checkpoint rounds on a small SOR grid."""
    rt = _sor_runtime(CoordinatedScheme.NBM, scale)
    report = rt.run()
    return rt.engine._seq  # events processed ≈ kernel ops


def bench_indep_run(scale: float = 1.0) -> int:
    """Independent checkpointing (logged) on the same workload."""
    rt = _sor_runtime(
        lambda times: IndependentScheme.Indep(times, skew=0.05, logging=True),
        scale,
    )
    rt.run()
    return rt.engine._seq


def _bench_scale(n_ranks: int, scale: float) -> int:
    """One staggered Coord_NBMS round at *n_ranks* on the hierarchical
    machine (16 racks at 512, 32 at 1024)."""
    from repro.experiments import scale_workload

    machine = MachineParams.hierarchical(n_ranks)
    iters = max(3, int(8 * scale))

    def build_app():
        app = scale_workload(n_ranks).build()
        app.iters = iters
        return app

    key = (f"scale_{n_ranks}", scale)
    t = _sor_runtime._durations.get(key)
    if t is None:
        t = (
            CheckpointRuntime(build_app(), machine=machine, seed=1, trace=False)
            .run()
            .sim_time
        )
        _sor_runtime._durations[key] = t
    rt = CheckpointRuntime(
        build_app(),
        scheme=CoordinatedScheme.NBMS([t / 2], marker_scope="peers"),
        machine=machine,
        seed=1,
        trace=False,
    )
    rt.run()
    return rt.engine._seq


def bench_scale_512(scale: float = 1.0) -> int:
    """One Coord_NBMS round at 512 ranks on the 16-rack machine."""
    return _bench_scale(512, scale)


def bench_scale_1024(scale: float = 1.0) -> int:
    """The same round at 1024 ranks on the 32-rack machine."""
    return _bench_scale(1024, scale)


#: pure-Python spin length for one calibration sample — deliberately NOT
#: scaled by ``--quick``: a constant yardstick across runs and machines.
_CAL_OPS = 2_000_000


def bench_calibration(scale: float = 1.0) -> int:
    """Fixed pure-Python spin: measures the host interpreter's speed.

    Shown in the table for reference; normalisation itself uses a fresh
    spin adjacent to every sample (see :func:`run_bench`).
    """
    acc = 0
    for i in range(_CAL_OPS):
        acc += i & 7
    return _CAL_OPS


BENCHES: Dict[str, Callable[[float], int]] = {
    "calibration": bench_calibration,
    "event_churn": bench_event_churn,
    "timeout_storm": bench_timeout_storm,
    "ping_pong": bench_ping_pong,
    "coord_nbm_round": bench_coord_nbm_round,
    "indep_run": bench_indep_run,
    "scale_512": bench_scale_512,
    "scale_1024": bench_scale_1024,
}


# ---------------------------------------------------------------------------
# timing harness


def _calibration_sample() -> float:
    """One timed pure-Python spin (the per-sample normalisation yardstick)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_CAL_OPS):
        acc += i & 7
    return time.perf_counter() - t0


def run_bench(
    fn: Callable[[float], int], scale: float, repeats: int
) -> Dict[str, float]:
    fn(min(scale, 0.1))  # warm up imports/caches outside the timed region
    samples: List[Tuple[float, int, float]] = []
    for _ in range(repeats):
        cal = _calibration_sample()
        t0 = time.perf_counter()
        ops = fn(scale)
        samples.append((time.perf_counter() - t0, ops, cal))
    median_s = statistics.median(s for s, _, _ in samples)
    # Median of per-sample bench/calibration ratios: load spikes hit a
    # sample and its adjacent spin alike, so the ratio cancels them.
    normalised = statistics.median(s / c for s, _, c in samples if c > 0)
    ops = samples[0][1]
    return {
        "median_s": round(median_s, 6),
        "normalised": round(normalised, 4),
        "ops": ops,
        "ops_per_s": round(ops / median_s, 1) if median_s > 0 else 0.0,
        "repeats": repeats,
    }


def run_all(scale: float, repeats: int, only: Optional[List[str]] = None) -> dict:
    results: Dict[str, Dict[str, float]] = {}
    names = only or list(BENCHES)
    if "calibration" not in names:
        names = ["calibration"] + names
    for name in names:
        results[name] = run_bench(BENCHES[name], scale, repeats)
        print(
            f"  {name:<16} median {results[name]['median_s']*1e3:9.2f} ms   "
            f"normalised {results[name]['normalised']:8.4f}   "
            f"{results[name]['ops_per_s']:>12,.0f} ops/s",
            file=sys.stderr,
        )
    return {
        "python": platform.python_version(),
        "scale": scale,
        "backend": os.environ.get(BACKEND_ENV, "").strip().lower()
        or DEFAULT_BACKEND,
        "benchmarks": results,
    }


# ---------------------------------------------------------------------------
# baseline bookkeeping + CI gate


def load_baseline(path: Path) -> dict:
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    return {"version": 1}


def update_baseline(path: Path, stage: str, run: dict) -> None:
    base = load_baseline(path)
    base["version"] = 1
    base[stage] = run
    if "before" in base and "after" in base:
        speedup = {}
        raw = {}
        for name, after_row in base["after"]["benchmarks"].items():
            before_row = base["before"]["benchmarks"].get(name)
            if not before_row:
                continue
            # Headline speedup from normalised scores (load-robust);
            # raw wall-clock ratio kept alongside for reference.
            if after_row.get("normalised"):
                speedup[name] = round(
                    before_row["normalised"] / after_row["normalised"], 2
                )
            if after_row["median_s"] > 0:
                raw[name] = round(
                    before_row["median_s"] / after_row["median_s"], 2
                )
        base["speedup"] = speedup
        base["speedup_raw_wallclock"] = raw
    with open(path, "w") as fh:
        json.dump(base, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench] baseline {stage!r} written to {path}", file=sys.stderr)


def update_backend_baseline(path: Path, run: dict) -> None:
    """Record *run* as the committed baseline for its kernel backend."""
    base = load_baseline(path)
    base["version"] = 1
    base.setdefault("backends", {})[run["backend"]] = run
    with open(path, "w") as fh:
        json.dump(base, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"[bench] backend baseline {run['backend']!r} written to {path}",
        file=sys.stderr,
    )


def check_against_baseline(path: Path, run: dict, tolerance: float) -> int:
    """CI gate: compare this run's *normalised* medians against the
    committed baseline; fail on >(tolerance-1) regression.

    A run made under ``--backend X`` gates against the ``backends.X``
    section when one is committed (each backend defends its own
    numbers); otherwise the legacy ``after`` section is the yardstick.
    """
    base = load_baseline(path)
    section = base.get("backends", {}).get(run.get("backend"))
    if section is None:
        section = base.get("after", {})
    else:
        print(
            f"[bench] gating against backend baseline {run['backend']!r}",
            file=sys.stderr,
        )
    committed = section.get("benchmarks")
    if not committed:
        print(f"[bench] no baseline in {path}; nothing to gate", file=sys.stderr)
        return 1
    scale_matches = run.get("scale") == section.get("scale")
    failures = []
    for name, row in run["benchmarks"].items():
        if name == "calibration":
            continue
        if not scale_matches and name not in HEADLINE + ("ping_pong",):
            # the macro benches (full checkpointed runs) carry fixed
            # setup costs, so their per-op cost is only comparable at
            # the baseline's own scale
            continue
        ref = committed.get(name)
        if ref is None or not ref.get("normalised") or not ref.get("ops"):
            continue
        # Compare per-op normalised cost, so a --quick gate run (fewer
        # ops) is still meaningful against a full-scale baseline.
        per_op = row["normalised"] / row["ops"]
        ref_per_op = ref["normalised"] / ref["ops"]
        ratio = per_op / ref_per_op
        status = "ok" if ratio <= tolerance else "REGRESSED"
        print(
            f"  [{status:>9}] {name:<16} "
            f"normalised/op {per_op:.3e} vs baseline {ref_per_op:.3e}  "
            f"(x{ratio:.2f})",
            file=sys.stderr,
        )
        if ratio > tolerance:
            failures.append((name, ratio))
    if failures:
        print(
            "[bench] perf gate FAILED: "
            + ", ".join(f"{n} x{r:.2f}" for n, r in failures),
            file=sys.stderr,
        )
        return 1
    print("[bench] perf gate passed", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="~10x fewer ops")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--backend",
        choices=list(available_backends()),
        default=None,
        help="run the whole suite under one kernel backend "
        f"(sets {BACKEND_ENV})",
    )
    parser.add_argument(
        "--only", nargs="*", default=None, choices=list(BENCHES), metavar="NAME"
    )
    parser.add_argument(
        "--update-baseline",
        choices=["before", "after"],
        default=None,
        help="merge this run into the committed baseline file",
    )
    parser.add_argument(
        "--update-backend-baseline",
        action="store_true",
        help="record this run as the committed baseline for its backend",
    )
    parser.add_argument("--baseline", metavar="PATH", default=str(BASELINE_PATH))
    parser.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help="compare against a committed baseline; exit 1 on regression",
    )
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    args = parser.parse_args(argv)

    if args.backend:
        os.environ[BACKEND_ENV] = args.backend
    scale = 0.1 if args.quick else 1.0
    run = run_all(scale, args.repeats, only=args.only)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(run, fh, indent=2, sort_keys=True)
    if args.update_baseline:
        update_baseline(Path(args.baseline), args.update_baseline, run)
    if args.update_backend_baseline:
        update_backend_baseline(Path(args.baseline), run)
    if args.check:
        return check_against_baseline(Path(args.check), run, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
