"""tools/check_docs.py: knob coverage is checked in both directions."""

import textwrap

import pytest

from tools import check_docs

CLOCK = '''
from dataclasses import dataclass

@dataclass
class EngineConfig:
    """Knobs."""
    mode: str = "indexed"
    num_shards: int = 1
'''

README = """
# Project

See the [guide](docs/guide.md).

## Engine knobs (`EngineConfig`)

| knob | values | effect |
|---|---|---|
| `mode` | `indexed`, `naive` | evaluator |
{extra_row}

## Other tables

| name | meaning |
|---|---|
| `not_a_knob` | rows outside the knob section are not knob rows |
"""


@pytest.fixture
def repo(tmp_path):
    def build(extra_row="| `num_shards` | `1` | partitions |"):
        (tmp_path / "src" / "repro" / "engine").mkdir(parents=True, exist_ok=True)
        (tmp_path / "src" / "repro" / "engine" / "clock.py").write_text(CLOCK)
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / "docs" / "guide.md").write_text("# Guide\n")
        (tmp_path / "README.md").write_text(
            textwrap.dedent(README).format(extra_row=extra_row)
        )
        return ["--repo-root", str(tmp_path)]

    return build


def test_clean_tree_passes(repo, capsys):
    assert check_docs.main(repo()) == 0
    assert "no stale knob rows" in capsys.readouterr().out


def test_undocumented_field_fails(repo, capsys):
    assert check_docs.main(repo(extra_row="")) == 1
    assert "EngineConfig.num_shards is not mentioned" in capsys.readouterr().out


def test_knob_row_naming_no_field_fails(repo, capsys):
    args = repo(
        extra_row="| `num_shards` | `1` | partitions |\n"
        "| `worker_scope` | `full`, `shards` | a knob that was deleted |"
    )
    assert check_docs.main(args) == 1
    out = capsys.readouterr().out
    assert "README.md:" in out and "`worker_scope`" in out
    assert "not_a_knob" not in out


def test_this_repository_is_clean():
    assert check_docs.main([]) == 0
