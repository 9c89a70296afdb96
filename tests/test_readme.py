import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    # the README's python blocks run in order in one namespace, and give
    # the values their comments state
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 3
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    assert (ns["tb"].t_minus, ns["tb"].t_plus) == (4, 30)
    assert round(ns["tri"].lam, 3) == 1.076
