"""Tests for the shared static-analysis front-end (Module/Project)."""

import ast
import textwrap
from collections import Counter

from repro.verify.analyze import analyze, frontend, run_passes
from repro.verify.analyze.frontend import (
    GENERATOR_PRIMITIVES,
    Module,
    Project,
    build_project,
    child_nodes,
    dotted_name,
)
from repro.verify.analyze.passes import cleanup_mutation


def _module(source, path="pkg/mod.py"):
    return Module.from_source(textwrap.dedent(source), path=path)


def _project(*sources):
    return Project([_module(s, path=f"pkg/m{i}.py") for i, s in enumerate(sources)])


# -- Module indexing ----------------------------------------------------------


def test_functions_indexed_with_generator_flag():
    mod = _module(
        """
        def plain(x):
            return x + 1

        def gen(ctx):
            yield from ctx.timeout(1.0)
        """
    )
    by_name = {f.name: f for f in mod.functions}
    assert not by_name["plain"].is_generator
    assert by_name["gen"].is_generator


def test_generator_flag_is_own_scope_only():
    # a yield inside a nested def must not make the outer def a generator
    mod = _module(
        """
        def outer(ctx):
            def inner():
                yield 1
            return inner
        """
    )
    by_name = {f.name: f for f in mod.functions}
    assert not by_name["outer"].is_generator
    assert by_name["inner"].is_generator


def test_method_qualnames():
    mod = _module(
        """
        class Agent:
            def step(self, ctx):
                yield from ctx.compute(1.0)
        """
    )
    (fn,) = mod.functions
    assert fn.qualname == "Agent.step"


def test_own_scope_skips_nested_defs_and_lambdas():
    mod = _module(
        """
        def outer(a=default()):
            x = f()
            g = lambda: hidden()
            def inner():
                return secret
            return x
        """
    )
    outer = mod.functions[0]
    names = {n.id for n in outer.own if isinstance(n, ast.Name)}
    assert {"default", "f", "x", "g"} <= names
    assert not {"hidden", "secret"} & names
    assert outer.loaded == {"default", "f", "x"}
    assert [ast.dump(r) for r in outer.returns] == [ast.dump(ast.Name("x", ast.Load()))]


def test_kind_comparisons_and_consumes_are_indexed():
    mod = _module(
        """
        class Audit:
            consumes = ("msg.send", "msg.deliver")

            def on_event(self, ev):
                if ev.kind == "msg.send":
                    pass
                elif ev.kind in ("msg.deliver", "proto.cut"):
                    pass
                if msg.kind == "app":  # a message kind, not an event kind
                    pass

        def free(event):
            return event.kind != "gc.run"
        """
    )
    (cls,) = mod.classes
    assert [names for _stmt, names in cls.consumes] == [("msg.send", "msg.deliver")]
    assert [
        (names, owner.name if owner else None)
        for _node, names, owner in mod.kind_compares
    ] == [
        (("msg.send",), "Audit"),
        (("msg.deliver", "proto.cut"), "Audit"),
        (("gc.run",), None),
    ]


def test_syntax_error_recorded_not_raised():
    mod = _module("def broken(:\n")
    assert mod.tree is None
    assert mod.syntax_error is not None
    assert mod.functions == []


def test_allow_pragma_named_blanket_and_mismatch():
    mod = _module(
        """
        a = 1  # verify: allow[cleanup-mutation]
        b = 2  # verify: allow
        c = 3
        """
    )
    assert mod.allowed(2, "cleanup-mutation")
    assert not mod.allowed(2, "nondet-taint")
    assert mod.allowed(3, "anything-at-all")
    assert not mod.allowed(4, "cleanup-mutation")


# -- generator-name classification --------------------------------------------


def test_name_with_all_generator_defs_classifies():
    project = _project(
        """
        def warmup(ctx):
            yield from ctx.compute(1.0)
        """,
        """
        class Other:
            def warmup(self, ctx):
                yield from ctx.timeout(1.0)
        """,
    )
    assert "warmup" in project.generator_names


def test_ambiguous_name_does_not_classify():
    # one def is a generator, one is not -> by-name attribution is unsafe
    project = _project(
        """
        def run(ctx):
            yield from ctx.compute(1.0)
        """,
        """
        def run(x):
            return x
        """,
    )
    assert "run" not in project.generator_names


def test_thin_wrapper_classifies_to_fixed_point():
    project = _project(
        """
        def base_step(ctx):
            yield from ctx.compute(1.0)

        def wrapper(ctx):
            return base_step(ctx)

        def wrapper_of_wrapper(ctx):
            return wrapper(ctx)
        """
    )
    assert "wrapper" in project.generator_names
    assert "wrapper_of_wrapper" in project.generator_names


def test_wrapper_of_primitive_classifies():
    project = _project(
        """
        def pause(ctx, dt):
            return ctx.timeout(dt)
        """
    )
    assert "pause" in project.generator_names


# -- misc ---------------------------------------------------------------------


def test_dotted_name_on_chains_and_non_chains():
    import ast

    def expr(src):
        return ast.parse(src, mode="eval").body

    assert dotted_name(expr("a.b.c")) == "a.b.c"
    assert dotted_name(expr("name")) == "name"
    assert dotted_name(expr("f().g")) is None


def test_primitive_set_covers_the_comm_surface():
    assert {"timeout", "compute", "send", "recv", "barrier"} <= GENERATOR_PRIMITIVES


def test_build_project_default_is_whole_program():
    project = build_project()
    assert project.whole_program
    assert project.modules  # the src/repro tree parsed


def test_build_project_subset_is_not_whole_program(tmp_path):
    f = tmp_path / "one.py"
    f.write_text("x = 1\n")
    project = build_project([tmp_path])
    assert not project.whole_program
    assert len(project.modules) == 1


# -- the single walk ----------------------------------------------------------


def _spy_listings(monkeypatch):
    """Count every child listing: ``ast.iter_child_nodes`` (which
    ``ast.walk`` lists through), ``ast.walk`` itself, and the front-end's
    lister."""
    counts = Counter()

    def spy(name, real):
        def counted(node):
            counts[name] += 1
            return real(node)

        return counted

    monkeypatch.setattr(ast, "iter_child_nodes", spy("iter_child_nodes", ast.iter_child_nodes))
    monkeypatch.setattr(ast, "walk", spy("walk", ast.walk))
    monkeypatch.setattr(frontend, "child_nodes", spy("child_nodes", frontend.child_nodes))
    return counts


def test_child_nodes_is_iter_child_nodes():
    for module in build_project().modules:
        for node in ast.walk(module.tree):
            assert child_nodes(node) == list(ast.iter_child_nodes(node))


def test_analyze_lists_children_at_most_once_and_a_half_per_node(monkeypatch):
    nodes = sum(
        sum(1 for _ in ast.walk(m.tree)) for m in build_project().modules
    )
    counts = _spy_listings(monkeypatch)
    analyze()
    listings = counts["iter_child_nodes"] + counts["child_nodes"]
    assert listings <= 1.5 * nodes, (listings, nodes)


def test_passes_walk_nothing_but_cleanup_bodies(monkeypatch):
    project = build_project()
    counts = _spy_listings(monkeypatch)
    run_passes(project)
    assert counts["walk"] == counts["child_nodes"] == 0
    assert counts["iter_child_nodes"] > 0  # cleanup-mutation's finally bodies
    counts.clear()
    monkeypatch.setattr(cleanup_mutation, "_body_nodes", lambda stmts: iter(()))
    run_passes(project)
    assert sum(counts.values()) == 0
