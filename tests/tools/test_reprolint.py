"""Fixture corpus for the reprolint rule packs.

Every rule gets at least one true-positive fixture (the bug class it
exists to catch) and at least one allowlisted-negative fixture (the
idiom the rule must NOT flag), so a rule regression fails loudly in
both directions.  The suppression and baseline machinery get their own
round-trip tests, and the CLI's stable exit codes are pinned last.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import ALL_RULES
from tools.reprolint.baseline import (
    fingerprints,
    load,
    save,
    split_by_baseline,
)
from tools.reprolint.cli import main
from tools.reprolint.engine import lint_paths
from tools.reprolint.rules import RULES_BY_ID


def lint_tree(tmp_path: Path, files: dict[str, str], rule_ids=None):
    """Write *files* (relpath -> source) under tmp_path and lint them."""
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    if rule_ids is None:
        rules = ALL_RULES
    else:
        rules = [RULES_BY_ID[r] for r in rule_ids]
    findings, errors = lint_paths([tmp_path], rules, root=tmp_path)
    assert not errors, errors
    return findings


def lint_one(tmp_path, source, *, rule, rel="engine/mod.py"):
    return lint_tree(tmp_path, {rel: source}, rule_ids=[rule])


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# determinism pack
# ---------------------------------------------------------------------------


class TestNondetCall:
    def test_flags_wall_clock_on_tick_path(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import time


            def stamp():
                return time.time()
            """,
            rule="nondet-call",
        )
        assert rule_ids(findings) == ["nondet-call"]
        assert "time.time" in findings[0].message

    def test_flags_module_rng_via_alias(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            from random import randint


            def roll():
                return randint(1, 6)
            """,
            rule="nondet-call",
        )
        assert rule_ids(findings) == ["nondet-call"]

    def test_seeded_random_instance_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import random


            def make_rng(seed):
                return random.Random(seed)
            """,
            rule="nondet-call",
        )
        assert findings == []

    def test_support_modules_are_out_of_scope(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import time


            def stamp():
                return time.time()
            """,
            rule="nondet-call",
            rel="serve/mod.py",
        )
        assert findings == []

    def test_role_marker_overrides_path(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            # reprolint: role=tick
            import time


            def stamp():
                return time.time()
            """,
            rule="nondet-call",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["nondet-call"]


class TestUnstableHash:
    def test_flags_builtin_hash_on_tick_path(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def bucket_of(key, n):
                return hash(key) % n
            """,
            rule="unstable-hash",
        )
        assert rule_ids(findings) == ["unstable-hash"]

    def test_dunder_hash_delegation_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            class Point:
                def __hash__(self):
                    return hash((self.x, self.y))
            """,
            rule="unstable-hash",
        )
        assert findings == []


class TestUnsortedSetIter:
    def test_flags_bare_iteration_of_local_set(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def merge(items):
                pending = set(items)
                out = []
                for key in pending:
                    out.append(key)
                return out
            """,
            rule="unsorted-set-iter",
        )
        assert rule_ids(findings) == ["unsorted-set-iter"]
        assert "pending" in findings[0].message

    def test_sorted_wrap_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def merge(items):
                pending = set(items)
                out = []
                for key in sorted(pending):
                    out.append(key)
                return out
            """,
            rule="unsorted-set-iter",
        )
        assert findings == []

    def test_order_insensitive_consumer_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def total(items):
                pending = set(items)
                return sum(x for x in pending)
            """,
            rule="unsorted-set-iter",
        )
        assert findings == []


class TestUnsortedKeysIter:
    def test_flags_keys_call_iteration(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def names(cfg):
                out = []
                for key in cfg.keys():
                    out.append(key)
                return out
            """,
            rule="unsorted-keys-iter",
            rel="serve/mod.py",  # rule applies everywhere, not just tick
        )
        assert rule_ids(findings) == ["unsorted-keys-iter"]

    def test_iterating_the_dict_itself_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def names(cfg):
                out = []
                for key in cfg:
                    out.append(key)
                return sorted(cfg.keys())
            """,
            rule="unsorted-keys-iter",
        )
        assert findings == []


class TestIdCacheUnpinned:
    def test_flags_value_that_does_not_pin_referent(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def remember(cache, plan):
                cache[id(plan)] = plan.name
                return cache[id(plan)]
            """,
            rule="id-cache-unpinned",
        )
        assert rule_ids(findings) == ["id-cache-unpinned"]
        assert "id(plan)" in findings[0].message

    def test_tuple_value_pinning_referent_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def remember(cache, plan, result):
                cache[id(plan)] = (plan, result)
                return cache[id(plan)][1]
            """,
            rule="id-cache-unpinned",
        )
        assert findings == []

    def test_counter_idiom_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def count(refs, obj):
                refs[id(obj)] = refs.get(id(obj), 0) + 1
            """,
            rule="id-cache-unpinned",
        )
        assert findings == []


class TestDictMutationInIteration:
    def test_flags_del_during_iteration(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def prune(d):
                for key in d:
                    if not d[key]:
                        del d[key]
            """,
            rule="dict-mutation-in-iteration",
        )
        assert rule_ids(findings) == ["dict-mutation-in-iteration"]

    def test_collect_then_apply_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def prune(d):
                dead = [key for key, value in d.items() if not value]
                for key in dead:
                    del d[key]
            """,
            rule="dict-mutation-in-iteration",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# concurrency pack
# ---------------------------------------------------------------------------

_PUMP = """\
import threading


class Pump:
    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        {worker_body}

    def bump(self):
        {caller_body}
"""


class TestCrossThreadMutation:
    def test_flags_attr_mutated_from_both_domains(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _PUMP.format(
                worker_body="self.count += 1",
                caller_body="self.count += 1",
            ),
            rule="cross-thread-mutation",
            rel="persist/mod.py",
        )
        assert rule_ids(findings) == ["cross-thread-mutation"] * 2
        assert "both thread domains" in findings[0].message

    def test_lock_guarded_mutations_are_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _PUMP.format(
                worker_body="\n        ".join(
                    ["with self._lock:", "    self.count += 1"]
                ),
                caller_body="\n        ".join(
                    ["with self._lock:", "    self.count += 1"]
                ),
            ),
            rule="cross-thread-mutation",
            rel="persist/mod.py",
        )
        assert findings == []

    def test_single_domain_mutation_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _PUMP.format(
                worker_body="self.count += 1",
                caller_body="return self.count",
            ),
            rule="cross-thread-mutation",
            rel="persist/mod.py",
        )
        assert findings == []


class TestTeardownOrder:
    def test_flags_join_before_any_stop_signal(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            class Writer:
                def close(self):
                    self._thread.join()
            """,
            rule="teardown-order",
            rel="persist/mod.py",
        )
        assert rule_ids(findings) == ["teardown-order"]

    def test_sentinel_before_join_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            class Writer:
                def close(self):
                    self._queue.put(None)
                    self._thread.join()
            """,
            rule="teardown-order",
            rel="persist/mod.py",
        )
        assert findings == []

    def test_str_join_is_not_a_thread_join(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            class Report:
                def close(self):
                    return ", ".join(self.parts)
            """,
            rule="teardown-order",
            rel="persist/mod.py",
        )
        assert findings == []


class TestNonDaemonThreadLeak:
    def test_flags_unjoined_nondaemon_thread(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import threading


            def spawn(fn):
                t = threading.Thread(target=fn)
                t.start()
                return t
            """,
            rule="nondaemon-thread-leak",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["nondaemon-thread-leak"]

    def test_daemon_thread_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import threading


            def spawn(fn):
                t = threading.Thread(target=fn, daemon=True)
                t.start()
                return t
            """,
            rule="nondaemon-thread-leak",
            rel="serve/mod.py",
        )
        assert findings == []

    def test_joined_in_enclosing_class_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import threading


            class Worker:
                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def close(self):
                    self._stopped = True
                    self._thread.join()
            """,
            rule="nondaemon-thread-leak",
            rel="serve/mod.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# wire pack
# ---------------------------------------------------------------------------


class TestStructByteOrder:
    def test_flags_native_order_format(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import struct


            def frame(a, b):
                return struct.pack("BI", a, b)
            """,
            rule="struct-byte-order",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["struct-byte-order"]

    def test_network_order_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import struct


            def frame(a, b):
                return struct.pack(">BI", a, b)
            """,
            rule="struct-byte-order",
            rel="serve/mod.py",
        )
        assert findings == []


class TestWireVersionConstant:
    def test_flags_framing_module_without_version(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import struct


            def frame(a):
                return struct.pack(">B", a)
            """,
            rule="wire-version-constant",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["wire-version-constant"]

    def test_version_constant_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import struct

            PROTOCOL_VERSION = 1


            def frame(a):
                return struct.pack(">B", PROTOCOL_VERSION) + struct.pack(">B", a)
            """,
            rule="wire-version-constant",
            rel="serve/mod.py",
        )
        assert findings == []

    def test_imported_version_constant_counts(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "serve/proto.py": "FORMAT_VERSION = 2\n",
                "serve/mod.py": """\
                    import struct

                    from .proto import FORMAT_VERSION


                    def frame(a):
                        return struct.pack(">B", a)
                    """,
            },
            rule_ids=["wire-version-constant"],
        )
        assert findings == []


class TestEncodeDecodePair:
    def test_flags_encoder_without_counterpart(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def encode_blob(payload):
                return bytes(payload)
            """,
            rule="encode-decode-pair",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["encode-decode-pair"]
        assert "encode_blob" in findings[0].message

    def test_cross_file_plural_counterpart_is_found(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "persist/writer.py": """\
                    def encode_record(rtype, payload):
                        return bytes([rtype]) + payload
                    """,
                "persist/reader.py": """\
                    def iter_records(fh):
                        return []
                    """,
            },
            rule_ids=["encode-decode-pair"],
        )
        assert findings == []


class TestRecvFrameGuard:
    def test_flags_unguarded_transport_recv(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def pull(transport):
                return transport.recv()
            """,
            rule="recv-frame-guard",
            rel="serve/mod.py",
        )
        assert rule_ids(findings) == ["recv-frame-guard"]

    def test_taxonomy_handler_is_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def pull(transport):
                try:
                    return transport.recv()
                except (FrameError, OSError):
                    return None
            """,
            rule="recv-frame-guard",
            rel="serve/mod.py",
        )
        assert findings == []

    def test_raw_socket_recv_is_out_of_scope(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            def pull(sock):
                return sock.recv(4096)
            """,
            rule="recv-frame-guard",
            rel="serve/mod.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# safety pack
# ---------------------------------------------------------------------------


class TestDynamicCode:
    def test_flags_builtin_exec_eval_and_compile(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import builtins


            def run(text, names):
                exec(compile(text, "<q>", "exec"), names)
                return eval(text) + builtins.eval(text)
            """,
            rule="dynamic-code",
            rel="serve/mod.py",  # every module, not only the tick path
        )
        assert rule_ids(findings) == ["dynamic-code"] * 4
        assert {f.message.split("(")[0] for f in findings} == {
            "builtin exec", "builtin compile", "builtin eval"
        }

    def test_justified_emitter_and_lookalikes_are_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import re
            from ast import literal_eval as eval


            def build(text, names):
                # reprolint: disable=dynamic-code -- generated names only,
                # never the script's own text
                exec(compile(text, "<sgl>", "exec"), names)
                return re.compile(text), eval(text)
            """,
            rule="dynamic-code",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# hygiene pack
# ---------------------------------------------------------------------------


class TestUnusedImport:
    def test_flags_module_imports_nothing_reads(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import os.path
            import json, sys
            from dataclasses import dataclass, field
            from typing import Sequence as Seq

            try:
                import tomllib
            except ImportError:
                tomllib = None


            @dataclass
            class Row:
                name: str


            def dump(row):
                return json.dumps(row.name)
            """,
            rule="unused-import",
            rel="serve/mod.py",  # every module, not only the tick path
        )
        assert rule_ids(findings) == ["unused-import"] * 5
        assert [f.message.split()[0] for f in findings] == [
            "'os'", "'sys'", "'field'", "'Seq'", "'tomllib'"
        ]

    def test_reads_reexports_and_type_checking_are_allowlisted(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            from __future__ import annotations

            from typing import TYPE_CHECKING, Mapping
            from .decision import GameDefinition as GameDefinition
            from .clock import EngineConfig
            from .table import Table
            import zlib as zlib

            if TYPE_CHECKING:
                from .effects import AoeRecord

            __all__ = ["EngineConfig"]


            def size(t: "Table", m: Mapping[str, int]) -> "AoeRecord | None":
                return None
            """,
            rule="unused-import",
        )
        assert findings == []

    def test_package_init_is_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"engine/__init__.py": "from .clock import SimulationEngine\n"},
            rule_ids=["unused-import"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

_NONDET = """\
import time


def stamp():
    return time.time(){trailer}
"""


class TestSuppressions:
    def test_justified_suppression_silences_finding(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _NONDET.format(
                trailer="  # reprolint: disable=nondet-call -- ops log only"
            ),
            rule="nondet-call",
        )
        assert findings == []

    def test_unjustified_suppression_is_itself_flagged(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _NONDET.format(trailer="  # reprolint: disable=nondet-call"),
            rule="nondet-call",
        )
        assert rule_ids(findings) == ["bad-suppression"]
        assert "justification" in findings[0].message

    def test_comment_block_above_carries_suppression(self, tmp_path):
        findings = lint_one(
            tmp_path,
            """\
            import time


            def stamp():
                # reprolint: disable=nondet-call -- wall clock feeds an
                # ops log, never the trajectory
                return time.time()
            """,
            rule="nondet-call",
        )
        assert findings == []

    def test_suppression_for_other_rule_does_not_silence(self, tmp_path):
        findings = lint_one(
            tmp_path,
            _NONDET.format(
                trailer="  # reprolint: disable=unstable-hash -- wrong rule"
            ),
            rule="nondet-call",
        )
        assert rule_ids(findings) == ["nondet-call"]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def _findings_and_lines(tmp_path, source):
    findings = lint_one(tmp_path, source, rule="nondet-call")
    lines = (tmp_path / "engine/mod.py").read_text().splitlines()
    line_text = {
        (f.path, f.line): lines[f.line - 1] for f in findings
    }
    return findings, line_text


class TestBaseline:
    SOURCE = """\
    import time


    def stamp():
        return time.time()
    """

    def test_round_trip_grandfathers_findings(self, tmp_path):
        findings, line_text = _findings_and_lines(tmp_path, self.SOURCE)
        assert findings
        path = tmp_path / "baseline.json"
        save(path, fingerprints(findings, line_text))
        new, old = split_by_baseline(findings, line_text, load(path))
        assert new == []
        assert old == findings

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        findings, line_text = _findings_and_lines(tmp_path, self.SOURCE)
        prints = fingerprints(findings, line_text)
        shifted = '"""docstring pushes everything down."""\n\n' + textwrap.dedent(
            self.SOURCE
        )
        (tmp_path / "engine/mod.py").write_text(shifted)
        findings2, _ = lint_paths(
            [tmp_path], [RULES_BY_ID["nondet-call"]], root=tmp_path
        )
        lines = shifted.splitlines()
        line_text2 = {
            (f.path, f.line): lines[f.line - 1] for f in findings2
        }
        assert fingerprints(findings2, line_text2) == prints

    def test_repeated_identical_lines_get_distinct_fingerprints(self, tmp_path):
        source = """\
        import time


        def stamp():
            return time.time()


        def stamp2():
            return time.time()
        """
        findings, line_text = _findings_and_lines(tmp_path, source)
        prints = fingerprints(findings, line_text)
        assert len(prints) == 2
        assert len(set(prints)) == 2
        assert prints[0].endswith(":0") and prints[1].endswith(":1")

    def test_unknown_baseline_version_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "fingerprints": []}))
        with pytest.raises(ValueError, match="version"):
            load(path)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


class TestCli:
    def _write(self, tmp_path, source=TestBaseline.SOURCE):
        p = tmp_path / "engine/mod.py"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(source))

    def test_findings_exit_1(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["engine", "--no-baseline"])
        assert code == 1
        assert "nondet-call" in capsys.readouterr().out

    def test_clean_exit_0(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path, "X = 1\n")
        monkeypatch.chdir(tmp_path)
        code = main(["engine", "--no-baseline"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["no-such-dir"]) == 2

    def test_unknown_rule_exit_2(self, tmp_path, monkeypatch):
        self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["engine", "--rule", "no-such-rule"]) == 2

    def test_write_baseline_then_gate_passes(self, tmp_path, monkeypatch):
        self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["engine", "--write-baseline", "--baseline", str(baseline)]) == 0
        assert main(["engine", "--baseline", str(baseline)]) == 0
        # a new finding on top of the baseline still fails the gate
        extra = tmp_path / "engine/other.py"
        extra.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        assert main(["engine", "--baseline", str(baseline)]) == 1

    def test_json_format_is_parseable(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["engine", "--no-baseline", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "nondet-call"

    def test_rule_filter_restricts_run(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["engine", "--no-baseline", "--rule", "unstable-hash"])
        assert code == 0

    def test_list_rules_exit_0(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_syntax_error_exit_1(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "engine/broken.py"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text("def broken(:\n")
        monkeypatch.chdir(tmp_path)
        assert main(["engine", "--no-baseline"]) == 1


# ---------------------------------------------------------------------------
# repo gate: the tree this test suite ships with must be clean
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_src_tree_has_no_unbaselined_findings(self, monkeypatch):
        repo_root = Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert main(["src"]) == 0
