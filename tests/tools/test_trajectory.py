"""The perf-trajectory gate's handling of rows that disappear."""

import json

from benchmarks import trajectory


def _write(directory, results):
    directory.mkdir()
    payload = {"bench": "shards", "equivalence_ok": True, "results": results}
    (directory / "BENCH_shards.json").write_text(json.dumps(payload))


def test_dropped_rows_are_named_but_do_not_fail(tmp_path, capsys):
    serial = {"config": "4 shards serial", "s_per_tick": 0.30}
    threads = {"config": "4 shards threads", "s_per_tick": 0.35}
    _write(tmp_path / "prev", [serial, threads])
    _write(tmp_path / "cur", [serial])
    code = trajectory.main(
        ["--current", str(tmp_path / "cur"), "--previous", str(tmp_path / "prev")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "dropped rows" in out
    assert "4 shards threads:s_per_tick" in out
    assert "4 shards serial:s_per_tick" not in out.split("dropped rows")[1]


def test_no_dropped_rows_line_when_every_row_survives(tmp_path, capsys):
    serial = {"config": "4 shards serial", "s_per_tick": 0.30}
    _write(tmp_path / "prev", [serial])
    _write(tmp_path / "cur", [serial])
    assert trajectory.main(
        ["--current", str(tmp_path / "cur"), "--previous", str(tmp_path / "prev")]
    ) == 0
    assert "dropped rows" not in capsys.readouterr().out
