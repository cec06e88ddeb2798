"""The README's examples run as written: every command of its command-line
block exits 0, run in process through ``fluidqoe.cli.main`` from the
repository root; the library quickstart runs; the model config example loads;
the README, the CLI's subcommand table and its docstring name the same
subcommands."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fluidqoe import cli
from fluidqoe.cli import main, resolve_model_snapshot

ROOT = Path(__file__).resolve().parents[1]

# optimize warns of negative densities on the way, which test_cli's
# test_optimize_and_compare already reports.
NEGATIVE_DENSITY = pytest.mark.filterwarnings(
    "ignore::fluidqoe.errors.NegativeDensityWarning")


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the README heading ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    pattern = rf"{re.escape(heading)}\s+```{language}\n(.*?)```"
    return re.search(pattern, text, re.S).group(1)


def readme_commands() -> list:
    block = readme_block("## Command line", "sh")
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def _param(argv: list):
    sub = argv[1]
    config = next((Path(a).stem for a in argv if a.endswith(".json")), None)
    marks = {"optimize": [NEGATIVE_DENSITY]}.get(sub, [])
    return pytest.param(argv[1:], id=f"{sub}-{config}" if config else sub, marks=marks)


@pytest.mark.parametrize("argv", [_param(argv) for argv in readme_commands()])
def test_readme_command_exits_zero(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0


def test_library_quickstart_runs(capsys):
    exec(compile(readme_block("## Library quickstart", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_model_config_example_loads():
    data = json.loads(readme_block("### Model config (strict JSON)", "json"))
    snapshot = resolve_model_snapshot(data)
    assert snapshot["states"] == 2 and (snapshot["x"], snapshot["Z"]) == (40.0, 500.0)


def test_subcommand_lists_agree():
    readme = list(dict.fromkeys(argv[1] for argv in readme_commands()))
    listed = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.S).group(1)
    docstring = [name.strip() for name in listed.split(",")]
    assert readme == list(cli._SUBCOMMANDS) == docstring
