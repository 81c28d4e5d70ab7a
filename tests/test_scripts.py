"""The command-line scripts under scripts/ run to completion."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, argv", [
    ("convergence_curve", []),
    ("mode_tables", ["--max-degree", "2"]),
    ("run_suite", ["--presets", "heisenberg",
                   "--only", "weight_projection_partition,embedding_roundtrip",
                   "--window", "0:3", "--mode-degree", "2"]),
], ids=["convergence_curve", "mode_tables", "run_suite"])
def test_script_exits_zero(name, argv, capsys):
    assert _main(name)(argv) == 0
    assert capsys.readouterr().out
