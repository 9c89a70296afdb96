import json
import re
import shlex
from pathlib import Path

import gwpva as g
from gwpva.cli import main
from gwpva.datasets import synthetic_life_table

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


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every gwpva line of the CLI block, in order, on the bundled synthetic
    # table and a flat prior, as the text under the block says
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
                if "gwpva fit" in b]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gwpva ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    Path("counts.csv").write_text(g.format_life_table(synthetic_life_table()))
    Path("prior.json").write_text(json.dumps(
        {"format_version": 1, "K": 1, "pairs": [{"i": 1, "j": 1, "kappa": 4}]}))
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().err == "", command
