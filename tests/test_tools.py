"""The A/B timing tool in ``tools/``, loaded by path."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_streams.py"
PACKAGE = TOOL.parent.parent / "src" / "satlab"


@pytest.fixture(scope="module")
def ab_streams():
    spec = importlib.util.spec_from_file_location("ab_streams", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text,case", [
    ("9:g6:C`:2", (9, "g6:C`", 2)),
    ("11:k_3:8", (11, "k_3", 8)),
    ("8:g6:C`:4", (8, "g6:C`", 4)),
    ("cli:3:check --sat ks --s 4 -i g.g6", ("cli", ("check", "--sat", "ks", "--s", "4",
                                                     "-i", "g.g6"), 3)),
    ("expected:5:12:c_4:k_2_2:20:0", ("expected", (12, "c_4", "k_2_2", 20, 0), 5)),
    ("expected:3:8:g6:C`:g6:Bw:4:7", ("expected", (8, "g6:C`", "g6:Bw", 4, 7), 3)),
])
def test_parse_case(ab_streams, text, case):
    assert ab_streams.parse_case(text) == case


def _main(ab_streams, case: str) -> int:
    # both sides import this checkout's package; their outputs must agree
    try:
        return ab_streams.main([str(PACKAGE), str(PACKAGE), case])
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("satlab_parent", "satlab_change")]:
            del sys.modules[name]


def test_main_runs_a_g6_case(ab_streams, capsys):
    assert _main(ab_streams, "6:g6:C`:2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "case round first parent_s change_s"
    assert [line.split()[:3] for line in out[1:3]] == [["n=6:g6:C`", "1", "parent"],
                                                        ["n=6:g6:C`", "2", "change"]]
    assert out[-1].startswith("n=6:g6:C` 2 ")


def test_main_runs_a_cli_case(ab_streams, capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text("Bw\n>>graph6<<DQc\r\n")
    assert _main(ab_streams, f"cli:2:count --pattern star --t 2 -i {src}") == 0
    out = capsys.readouterr().out.splitlines()
    label = f"cli:count --pattern star --t 2 -i {src}"
    assert [line.removeprefix(label).split()[:2] for line in out[1:3]] == [["1", "parent"],
                                                                          ["2", "change"]]
    assert out[-1].startswith(f"{label} 2 2 ")  # two rounds, two stdout lines


def test_main_runs_an_expected_case(ab_streams, capsys):
    assert _main(ab_streams, "expected:2:8:c_4:k_2_2:3:0") == 0
    out = capsys.readouterr().out.splitlines()
    label = "expected:8:c_4:k_2_2:3:0"
    assert [line.split()[:3] for line in out[1:3]] == [[label, "1", "parent"],
                                                        [label, "2", "change"]]
    assert out[-1].startswith(f"{label} 2 3 ")  # two rounds, three trials
