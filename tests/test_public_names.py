"""Every public name of the package has a user outside the tests.

A name only the tests reach is a test oracle and belongs in `tests/`.
"""

import ast
import re

from helpers import ROOT


def test_every_public_definition_is_used_outside_the_tests():
    """A public top-level def or class of `src/wfdem` is named outside its
    own definition: elsewhere in the package (not counting `__init__.py`),
    in `scripts/` or `perfbench/`, or in the README's library example."""
    modules = {p: p.read_text() for p in sorted(ROOT.glob("src/wfdem/*.py"))
               if p.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python", readme.index("## Library use"))
    outside = [readme[start:readme.index("```\n", start + 1)]] + [
        p.read_text() for d in ("scripts", "perfbench")
        for p in sorted((ROOT / d).glob("*.py"))]
    unused = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            corpus = ["\n".join(lines[:first - 1] + lines[node.end_lineno:]),
                      *outside, *(t for p, t in modules.items() if p != path)]
            if not any(re.search(rf"\b{node.name}\b", t) for t in corpus):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"used only by the tests: {', '.join(unused)}"
