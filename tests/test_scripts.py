"""The command-line scripts under scripts/ run to completion."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).resolve().parent / "data"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, argv", [
    ("mode_tables", ["--max-degree", "2"]),
    ("mode_tables", ["--json", "--max-degree", "2", "--preset", "heisenberg",
                     "affine_sl2", "--level", "1,2/3"]),
], ids=["mode_tables", "mode_tables_json"])
def test_script_exits_zero(name, argv, capsys):
    assert _main(name)(argv) == 0
    assert capsys.readouterr().out


def test_mode_tables_json_remakes_golden_file(capsys):
    # two of the presets of tests/data/parent_mode_tables.json, remade
    assert _main("mode_tables")(["--json", "--preset", "heisenberg",
                                 "virasoro", "--c", "1/3"]) == 0
    got = json.loads(capsys.readouterr().out)
    golden = json.loads((DATA / "parent_mode_tables.json").read_text())
    assert got == [t for t in golden
                   if (t["preset"], t["c"]) in {("heisenberg", "0"),
                                                ("virasoro", "1/3")}]
