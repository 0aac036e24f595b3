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


def name_repo(repo, tmp_path, text):
    """*repo* plus a package ``repro.obs`` re-exporting ``load_trace``
    and a guide naming *text*."""
    args = repo()
    (tmp_path / "src" / "repro" / "obs").mkdir(exist_ok=True)
    (tmp_path / "src" / "repro" / "obs" / "__init__.py").write_text(
        "from .trace import load_trace\n"
    )
    (tmp_path / "src" / "repro" / "obs" / "trace.py").write_text(
        "def load_trace(path):\n    return path\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(f"# Guide\n\n{text}\n")
    return args


def test_dotted_names_that_resolve_pass(repo, tmp_path, capsys):
    text = (
        "`repro.engine.clock` holds `repro.engine.clock.EngineConfig`; "
        "`repro.engine.clock.EngineConfig.mode` is a field.  "
        "`repro.obs.load_trace` (re-exported) and `repro.obs.trace`.\n"
        "```\nfrom repro.obs.trace import load_trace\n```"
    )
    assert check_docs.main(name_repo(repo, tmp_path, text)) == 0
    assert "every repro.… name resolves" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name",
    [
        "repro.algebra.executor",  # a deleted module
        "repro.engine.clock.SimulationEngine",  # nothing binds it
        "repro.engine.clock.EngineConfig.cascade",  # no such class member
        "repro.obs.trace.dump_trace",
    ],
)
def test_dotted_name_that_does_not_resolve_fails(repo, tmp_path, capsys, name):
    text = f"See `{name}` for details."
    assert check_docs.main(name_repo(repo, tmp_path, text)) == 1
    out = capsys.readouterr().out
    assert f"docs/guide.md:3: `{name}` names no module" in out
