"""Every public name of the package has a user outside the tests, the
package imports nothing but the standard library and numpy, no module
imports a name it never uses, the README's library example runs, and every
name the README gives in the package resolves.

A name only the tests reach is a test oracle and belongs in `tests/`.
"""

import ast
import importlib
import re
import sys

from helpers import ROOT, library_example, run_python_bounded


def public_names_used_only_by_the_tests(public) -> list[str]:
    """The top-level statements of `src/wfdem` whose public names `public`
    gives, each named nowhere outside its own statement: not elsewhere in
    the package (not counting `__init__.py`), in `scripts/` or
    `perfbench/`, or in the README's library example."""
    modules = {p: p.read_text() for p in sorted(ROOT.glob("src/wfdem/*.py"))
               if p.name != "__init__.py"}
    outside = [library_example()] + [
        p.read_text() for d in ("scripts", "perfbench")
        for p in sorted((ROOT / d).glob("*.py"))]
    unused = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            names = [n for n in public(node) if not n.startswith("_")]
            if not names:
                continue
            first = min([node.lineno] + [
                d.lineno for d in getattr(node, "decorator_list", [])])
            corpus = ["\n".join(lines[:first - 1] + lines[node.end_lineno:]),
                      *outside, *(t for p, t in modules.items() if p != path)]
            unused += [f"{path.stem}.{name}" for name in names
                       if not any(re.search(rf"\b{name}\b", t)
                                  for t in corpus)]
    return unused


def test_every_public_definition_is_used_outside_the_tests():
    """A public top-level def or class of `src/wfdem` is named outside its
    own definition."""
    unused = public_names_used_only_by_the_tests(
        lambda node: [node.name] if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else [])
    assert not unused, f"used only by the tests: {', '.join(unused)}"


def test_every_public_constant_is_used_outside_the_tests():
    """A public name bound by a top-level assignment of `src/wfdem` is
    named outside that assignment."""
    def bound(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            return []
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    unused = public_names_used_only_by_the_tests(bound)
    assert not unused, f"used only by the tests: {', '.join(unused)}"


def test_the_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "wfdem"}
    foreign = []
    for path in sorted(ROOT.glob("src/wfdem/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue      # not an import, or a relative one
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside stdlib and numpy: {foreign}"
    # nor does anything it imports pull in the former schema stack
    child = run_python_bounded(["-c", (
        "import wfdem.cli, sys; print(sorted(m for m in sys.modules if "
        "m.split('.')[0] in {'jsonschema', 'referencing', 'rpds', "
        "'attrs'}))")], timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_readme_library_example_runs():
    """The README's "Library use" block runs from the repo root, as
    written, without a warning, and prints E, E' and one NRMSE per scored
    signal of its case-b C = 3 DEM."""
    child = run_python_bounded(["-c", library_example()], timeout=120,
                               cwd=ROOT)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    errors, nrmse = child.stdout.splitlines()
    assert all(0 <= float(e) <= 0.02 for e in errors.split())
    nrmse = ast.literal_eval(nrmse)
    assert list(nrmse) == ["poi_p"] + [f"group{g}_u_dc" for g in range(3)]
    assert all(0 < v < 0.05 for v in nrmse.values())


# the extensions of the file names that the README writes in backticks
FILE_SUFFIXES = {"py", "json", "csv", "svg", "npz", "md"}


def test_readme_references_to_the_package_resolve():
    """Each backticked dotted name in the README that starts with a module
    of `src/wfdem`, bare or after `wfdem.` (`clustering.group_wts`,
    `wfdem.farm.farm_from_dict`, `wt.SagSpec.t_start`), resolves by
    `getattr`, name by name.  A file name such as `cases.py` is not a
    reference."""
    modules = sorted(p.stem for p in ROOT.glob("src/wfdem/*.py"))
    refs = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                          (ROOT / "README.md").read_text()))
    stale = []
    for ref in sorted(refs):
        names = ref.removeprefix("wfdem.").split(".")
        if names[0] not in modules or names[-1] in FILE_SUFFIXES:
            continue
        obj = importlib.import_module(f"wfdem.{names[0]}")
        try:
            for name in names[1:]:
                obj = getattr(obj, name)
        except AttributeError:
            stale.append(ref)
    assert not stale, f"README names what wfdem does not define: {stale}"


def test_no_module_imports_a_name_it_never_uses():
    """Each name an import binds in a module of `src/wfdem`, `scripts` or
    `tests` is read somewhere in that module.  A package `__init__.py`
    imports to re-export, and `from __future__` binds no name."""
    unused = []
    for path in sorted(p for d in ("src/wfdem", "scripts", "tests")
                       for p in (ROOT / d).glob("*.py")
                       if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0]
                          for a in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}"
                   for name in sorted(bound - read)]
    assert not unused, f"imported and never used: {unused}"
