"""The README's python examples run as written and print what they say."""

import ast
import re
from pathlib import Path

from kantorovich.ground import metric_from_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(block: str, namespace: dict) -> list:
    """Run ``block`` in ``namespace``; the values of its expression statements."""
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_readme_python_examples_run_in_one_namespace(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    _run(blocks[0], namespace)
    assert namespace["result"].cost == 0.5
    second_order_cost, _ = _run(blocks[1], namespace)
    assert second_order_cost == 1.5


def test_readme_metric_specs_load():
    # a spec field that its kind does not read exits 2, so every spec the
    # README shows, in a JSON block or on a command line, must load
    text = README.read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    specs = [line for b in blocks for line in b.splitlines() if line.startswith('{"kind"')]
    specs += re.findall(r"--metric '(\{.*\})'", text)
    assert len(specs) == 6
    for spec in specs:
        metric_from_spec(spec)
