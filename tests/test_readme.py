"""Every fenced ``python`` block and every ``limitcurves`` command of
README.md runs as documented."""

import pathlib
import re
import shlex

import pytest

from limitcurves import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# config files: each ``ini`` block starts with a comment line naming its file
CONFIGS = re.findall(r"^```ini\n# (\S+)\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("limitcurves ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """The commands depend on each other's outputs, so they run in order.
    None may print a ``warning:`` line, so the README cannot show a
    deprecated flag or an unconverged model."""
    assert COMMANDS and CONFIGS
    monkeypatch.chdir(tmp_path)
    for name, body in CONFIGS:
        (tmp_path / name).write_text(body)
    for line in COMMANDS:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert "warning:" not in capsys.readouterr().err, line


def test_readme_flags_exist():
    """Every ``--flag`` README.md names, outside its install and benchmark
    lines, is an option of some subcommand, so the README cannot keep a
    deleted flag. ``--conf`` is named as a refused abbreviation."""
    _, registry = cli.build_parser()
    options = {opt for sub in registry.values() for a in sub._actions for opt in a.option_strings}
    lines = [line for line in TEXT.splitlines() if not re.search(r"pip install|perfbench/run\.py", line)]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    assert named - options - {"--conf"} == set()
