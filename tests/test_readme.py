"""README's CLI section: every ``detmc ...`` command runs and exits 0, a traced one
prints what it prints untraced, and the keys it lists are the ones ``detmc`` prints,
in order.  Its Python API block runs, asserts included."""

import pathlib
import re
import shlex

import numpy as np
import pytest

from detmc.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_section():
    return section("CLI")


def cli_commands():
    block = re.search(r"```bash\n(.*?)```", cli_section(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("detmc ")]


def test_the_cli_section_has_commands():
    assert len(cli_commands()) >= 3


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: " ".join(argv[1:4]))
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys, write_matrix):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "my_matrix.txt", np.diag([2.0, -1.0, 0.5]))
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_readme_trace_leaves_the_summary_unchanged(tmp_path, monkeypatch, capsys):
    traced = [argv for argv in cli_commands() if "--trace" in argv]
    assert traced
    monkeypatch.chdir(tmp_path)
    for argv in traced:
        at = argv.index("--trace")
        assert main(argv[1:at] + argv[at + 2:]) == 0
        untraced = capsys.readouterr().out
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == untraced


def test_readme_lists_the_keys_estimate_prints(capsys):
    listed = cli_section().split("line per key, in this order:", 1)[1].split(". ", 1)[0]
    assert main(["--estimator", "sphere_invdet", "--ensemble", "orthogonal",
                 "--n", "3", "--samples", "6"]) == 0
    printed = [line.partition(": ")[0] for line in capsys.readouterr().out.splitlines()]
    assert re.findall(r"`(\w+)`", listed) == printed


def test_readme_python_api_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", section("Python API"), re.S).group(1)
    assert "num_streams=1" in block
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3  # the printed log_mean, exact, std_error
