"""Tests for the analyzer's sim-hygiene pass, one module at a time."""

from repro.verify.analyze.frontend import Module, default_target
from repro.verify.analyze.passes.hygiene import module_hygiene


def _hygiene(source, path="<string>"):
    return module_hygiene(Module.from_source(source, path=path))


def _rules(source):
    return [f.rule for f in _hygiene(source)]


# -- wall clock ---------------------------------------------------------------


def test_time_time_flagged():
    assert _rules("import time\nt = time.time()\n") == ["wall-clock"]


def test_perf_counter_flagged():
    assert _rules("import time\nt = time.perf_counter()\n") == ["wall-clock"]


def test_datetime_now_flagged():
    src = "import datetime\nt = datetime.datetime.now()\n"
    assert _rules(src) == ["wall-clock"]


def test_from_time_import_flagged():
    src = "from time import time\nt = time()\n"
    rules = _rules(src)
    assert rules.count("wall-clock") == 2  # the import and the call


def test_ns_clocks_imported_from_time_flagged():
    src = (
        "from time import perf_counter_ns, monotonic_ns\n"
        "a = perf_counter_ns()\n"
        "b = monotonic_ns()\n"
    )
    findings = _hygiene(src)
    assert [(f.rule, f.line) for f in findings] == [
        ("wall-clock", 1),
        ("wall-clock", 1),
        ("wall-clock", 2),
        ("wall-clock", 3),
    ]


def test_engine_now_is_fine():
    assert _rules("t = engine.now\n") == []


def test_unrelated_dot_time_not_flagged():
    # `span.time()` or `report.time()` must not trip the suffix match
    assert _rules("t = report.elapsed()\n") == []


# -- nondeterminism -----------------------------------------------------------


def test_global_random_call_flagged():
    assert _rules("import random\nx = random.random()\n") == ["nondeterminism"]


def test_from_random_import_flagged():
    assert _rules("from random import choice\n") == ["nondeterminism"]


def test_numpy_global_rng_flagged():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert _rules(src) == ["nondeterminism"]


def test_unseeded_default_rng_flagged():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert _rules(src) == ["nondeterminism"]


def test_seeded_default_rng_allowed():
    src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
    assert _rules(src) == []


def test_seeded_default_rng_keyword_allowed():
    src = "import numpy as np\nrng = np.random.default_rng(seed=s)\n"
    assert _rules(src) == []


def test_local_variable_named_random_not_flagged():
    # no `import random`, so `random.x()` is someone's object attribute
    assert _rules("x = random.shuffle(deck)\n") == []


def test_os_urandom_flagged():
    assert _rules("import os\nx = os.urandom(8)\n") == ["nondeterminism"]


def test_uuid_flagged():
    assert _rules("import uuid\nrun_id = uuid.uuid4()\n") == ["nondeterminism"]


def test_unseeded_random_instance_flagged():
    findings = _hygiene("import random\nrng = random.Random()\n")
    assert [f.rule for f in findings] == ["nondeterminism"]
    assert "without an explicit seed" in findings[0].message


def test_seeded_random_instance_still_global_rng():
    # seeded, but still the stdlib RNG rather than the run's RngStreams
    assert _rules("import random\nrng = random.Random(42)\n") == ["nondeterminism"]


def test_strftime_of_current_time_flagged():
    assert _rules("import time\ns = time.strftime('%H:%M')\n") == ["wall-clock"]


def test_strftime_with_explicit_tuple_allowed():
    src = "import time\ns = time.strftime('%H:%M', sim_tuple)\n"
    assert _rules(src) == []


# -- bare assert --------------------------------------------------------------


def test_bare_assert_flagged():
    assert _rules("assert x > 0, 'boom'\n") == ["bare-assert"]


def test_isinstance_assert_allowed():
    assert _rules("assert isinstance(agent, CoordinatedAgent)\n") == []


# -- pragmas ------------------------------------------------------------------


def test_allow_pragma_waives_named_rule():
    src = "import time\nt = time.time()  # verify: allow[wall-clock]\n"
    assert _rules(src) == []


def test_allow_pragma_blanket():
    src = "import time\nt = time.time()  # verify: allow\n"
    assert _rules(src) == []


def test_allow_pragma_wrong_rule_does_not_waive():
    src = "import time\nt = time.time()  # verify: allow[bare-assert]\n"
    assert _rules(src) == ["wall-clock"]


# -- the pass itself ----------------------------------------------------------


def test_syntax_error_is_a_finding_not_a_crash():
    assert _rules("def broken(:\n") == ["syntax"]


def test_findings_sort_by_position():
    # calls are checked before asserts; the report is in source order
    src = "def f(ctx):\n    assert ctx\n    assert time.time()\n"
    findings = _hygiene("import time\n" + src)
    assert [(f.line, f.col, f.rule) for f in findings] == [
        (3, 4, "bare-assert"),
        (4, 4, "bare-assert"),
        (4, 11, "wall-clock"),
    ]


def test_default_target_is_the_repro_package():
    target = default_target()
    assert target.name == "repro"
    assert (target / "core").is_dir()
