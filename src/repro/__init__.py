"""repro — a reproduction of Silva & Silva, "The Performance of Coordinated
and Independent Checkpointing" (IPPS 1999).

The package contains everything the study needs, built from scratch:

* :mod:`repro.core` — a deterministic discrete-event simulation kernel;
* :mod:`repro.machine` — the Parsytec-Xplorer-like machine model (nodes,
  links, shared stable storage with contention);
* :mod:`repro.net` — the CHK-LIB communication layer: reliable FIFO
  channels with an MPI-like API and collectives;
* :mod:`repro.chklib` — the checkpointing library: coordinated
  (`NB`/`NBM`/`NBMS`) and independent (`Indep`/`Indep_M`) schemes, recovery
  lines, rollback-dependency analysis, garbage collection, message logging
  and the crash/rollback runtime;
* :mod:`repro.apps` — the seven application benchmarks (ISING, SOR, ASP,
  NBODY, GAUSS, TSP, NQUEENS);
* :mod:`repro.experiments` — regeneration of the paper's Tables 1-3 plus
  ablations, sweeps and recovery experiments;
* :mod:`repro.analysis` — overhead metrics and table rendering.

Importing :mod:`repro` loads none of them, and each subpackage imports the
submodule behind a name only when that name is first used
(:mod:`repro._lazy`), so a command pays at start-up for what it runs.

Quickstart::

    from repro.apps import SOR
    from repro.chklib import CheckpointRuntime, CoordinatedScheme

    baseline = CheckpointRuntime(SOR(n=256, iters=200), seed=0).run()
    times = [baseline.sim_time * f for f in (0.25, 0.5, 0.75)]
    report = CheckpointRuntime(
        SOR(n=256, iters=200),
        scheme=CoordinatedScheme.NBMS(times),
        seed=0,
    ).run()
    print(report.sim_time - baseline.sim_time, "seconds of overhead")
"""

__version__ = "1.0.0"
