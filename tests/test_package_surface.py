"""Package-surface guards: every module-level function, class and method in
src/entrel is reached from the package itself or from the benchmark, and
only the functions the benchmark hands a label space take one.

A name only the tests reach is a test-only path shipped inside the package.
The check is a name search over the parsed source: any name, attribute or
import of the same identifier in src/entrel or perfbench/*.py counts (a
``def`` statement's own name is not a reference). Dunder methods are
reached by the language.

There is one label set, ``LabelSpace()``; a ``label_space`` parameter is a
knob nothing varies, kept only where perfbench/bench_workloads.py uses one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrel"

# reached only by a test until the paper's CRF-vs-softmax claim is put
# under test on it, or the grammar is retired (ROADMAP item 2)
ALLOWED_UNREACHED = {("synth", "ambiguous_grammar")}

# the benchmark passes a label space to init_params and score_queries and
# reads ModelParams.label_space
LABEL_SPACE_TAKERS = {"model.ModelParams.__init__", "model.init_params",
                      "evaluation.score_queries"}


def _package():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """Names of every module-level function and class and every non-dunder
    method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub.name


def _references(tree: ast.Module):
    """Every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def unreached():
    """(module, name) of every package definition nothing references."""
    package = _package()
    bench = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = {name for tree in [*package.values(), *bench] for name in _references(tree)}
    return [(module, name) for module, tree in package.items()
            for name in _definitions(tree) if name not in used]


def test_every_definition_is_reached_outside_the_tests():
    assert set(unreached()) - ALLOWED_UNREACHED == set()


def test_the_guard_sees_the_package_and_flags_the_allowed_name():
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert set(unreached()) == ALLOWED_UNREACHED


def _parameters_named(node, name, prefix=""):
    """Qualified name of every function, method and nested function under
    ``node`` with a parameter called ``name``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                args = child.args
                if any(arg.arg == name for arg in args.posonlyargs + args.args + args.kwonlyargs):
                    yield qualified
            yield from _parameters_named(child, name, qualified + ".")
        else:
            yield from _parameters_named(child, name, prefix)


def test_only_what_the_benchmark_hands_a_label_space_takes_one():
    takers = {f"{module}.{name}" for module, tree in _package().items()
              for name in _parameters_named(tree, "label_space")}
    assert takers == LABEL_SPACE_TAKERS
