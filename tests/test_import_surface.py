"""What a command imports: package surfaces resolve names on first use.

Every package that re-exports names does so through one PEP 562 table
(name -> defining submodule, :mod:`repro._lazy`), and ``import repro``
loads nothing below it. The payoff is pinned on a warm rerun: with every
cell a cache hit, a command reads reports and renders a table, and must
not pay for the simulator, the applications, the verify stack or the
experiments it did not ask for.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro.experiments.executor as executor_mod
import repro.experiments.runner as runner_mod

#: every package whose ``__init__`` is a lazy surface.
LAZY_PACKAGES = (
    "repro.analysis",
    "repro.apps",
    "repro.chklib",
    "repro.chklib.schemes",
    "repro.core",
    "repro.experiments",
    "repro.fault",
    "repro.machine",
    "repro.net",
    "repro.verify",
    "repro.verify.analyze",
)

_WARM = ["scale", "--quick", "--ranks", "8", "--jobs", "1"]

#: modules (and everything below them) a warm ``runner scale`` never
#: loads: it executes no cell, audits no trace, runs no analyzer and
#: builds no other experiment.
NOT_LOADED_WARM = (
    "numpy",
    "networkx",
    "repro.apps",
    "repro.fault",
    "repro.net",
    "repro.core.engine",
    "repro.core.events",
    "repro.core.rng",
    "repro.core.tracing",
    "repro.machine.cluster",
    "repro.machine.storage_plane",
    "repro.chklib.runtime",
    "repro.chklib.schemes.base",
    "repro.chklib.schemes.coordinated",
    "repro.chklib.dependency",
    "repro.chklib.recovery",
    "repro.verify",
    "repro.analysis.timeline",
    "repro.experiments.ablations",
    "repro.experiments.capture",
    "repro.experiments.domino",
    "repro.experiments.faults",
    "repro.experiments.resilience",
    "repro.experiments.sweeps",
    "repro.experiments.table1",
    "repro.experiments.table23",
    "repro.experiments.twolevel",
)

_WARM_FAULTS = ["failure-rates", "--quick", "--jobs", "1"]

#: what a warm ``runner failure-rates`` never loads: the scale rerun's
#: set, less the experiment it runs and the fault model its cells hold
#: (a crash schedule is a recipe: nothing draws it, so neither NumPy nor
#: ``repro.core.rng`` loads), plus the storage injector and the scale
#: experiment.
NOT_LOADED_WARM_FAULTS = tuple(
    p for p in NOT_LOADED_WARM if p not in ("repro.fault", "repro.experiments.faults")
) + ("repro.fault.injection", "repro.experiments.scale")

_PROBE = """
import json, sys
import repro.experiments.runner as runner
code = runner.main(sys.argv[1:])
warm = sorted(sys.modules)
# only the domino experiment walks a graph: importing the module that
# holds the graph code must not pay networkx's import either
from repro.chklib.dependency import line_via_graph
print(json.dumps({"code": code, "warm": warm,
                  "networkx": "networkx" in sys.modules}))
"""


def _fresh_interpreter(*args):
    """stdout of ``python *args`` in a new interpreter seeing this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _warm_rerun(argv, not_loaded):
    """What a fresh interpreter rerunning *argv* on a filled cache
    imports: (the probe's record, the names it loaded of *not_loaded*)."""
    seen = json.loads(_fresh_interpreter("-c", _PROBE, *argv).splitlines()[-1])
    assert seen["code"] == 0
    loaded = [
        name
        for name in seen["warm"]
        if any(name == p or name.startswith(p + ".") for p in not_loaded)
    ]
    return seen, loaded


def test_a_warm_run_imports_only_what_it_runs(tmp_path):
    argv = _WARM + ["--cache-dir", str(tmp_path / "cache")]
    assert runner_mod.main(argv) == 0  # cold: fills the cache

    seen, loaded = _warm_rerun(argv, NOT_LOADED_WARM)
    assert loaded == [], f"a warm rerun imported {loaded}"
    assert "repro.experiments.scale" in seen["warm"]
    assert seen["networkx"] is False


def test_a_warm_failure_rates_rerun_draws_no_crash_time(tmp_path, monkeypatch):
    # The cold fill simulates the baseline only (~0.1 s, where the 40
    # real cells take ~7 s of CPU): each planned cell is cached with the
    # baseline's report. The warm rerun reads every cell back, plans and
    # reduces as it would on real reports, and executes nothing.
    simulate = executor_mod._run_cell_task
    baseline = []

    def fill(cell):
        if not baseline:
            baseline.append(simulate(cell))
        return baseline[0]

    monkeypatch.setattr(executor_mod, "_run_cell_task", fill)
    argv = _WARM_FAULTS + ["--cache-dir", str(tmp_path / "cache")]
    assert runner_mod.main(argv) == 0

    seen, loaded = _warm_rerun(argv, NOT_LOADED_WARM_FAULTS)
    assert loaded == [], f"a warm failure-rates rerun imported {loaded}"
    assert {"repro.experiments.faults", "repro.fault.plans"} <= set(seen["warm"])


def test_importing_repro_loads_no_subpackage():
    probe = "import sys, repro; print([m for m in sys.modules if m.startswith('repro')])"
    assert _fresh_interpreter("-c", probe).strip() == "['repro']"


# -- the lazy surfaces ---------------------------------------------------------


@pytest.fixture(params=LAZY_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_all_is_the_lazy_table(package):
    own = [name for name in package.__all__ if name not in package._LAZY]
    assert [n for n in package.__all__ if n in package._LAZY] == list(package._LAZY)
    # a package may also export what its own __init__ defines
    for name in own:
        assert getattr(package, name).__module__ == package.__name__, name
    assert len(set(package.__all__)) == len(package.__all__)


def test_each_name_is_its_submodules_object(package):
    for name, submodule in package._LAZY.items():
        module = importlib.import_module(f"{package.__name__}.{submodule}")
        assert getattr(package, name) is getattr(module, name), name


def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=package.__name__.replace(".", r"\.")):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    assert set(package._LAZY) <= set(dir(package))
