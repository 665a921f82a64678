"""Every ``detmc ...`` command in README's CLI section runs and exits 0."""

import pathlib
import re
import shlex

import numpy as np
import pytest

from detmc.cli import main
from detmc.linalg import DenseMatrix, save_matrix

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def cli_commands():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("detmc ")]


def test_the_cli_section_has_commands():
    assert len(cli_commands()) >= 3


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: " ".join(argv[1:4]))
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "my_matrix.txt", DenseMatrix(np.diag([2.0, -1.0, 0.5])))
    assert main(argv[1:]) == 0, capsys.readouterr().err
