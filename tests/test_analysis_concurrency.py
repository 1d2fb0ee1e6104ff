"""Interprocedural concurrency analysis: soundness demos + repo gate.

Each CC rule gets the seeded-defect fixture from
:mod:`repro.analysis.fixtures` (which must produce *exactly* that rule)
and the clean counterpart (which must produce nothing). The repo-at-head
checks pin the acceptance criteria: the lock graph's nodes cover every
lock attribute in serving/ and telemetry/, and the graph is acyclic.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_concurrency, build_lock_graph, collect_sources
from repro.analysis import fixtures
from repro.cli import main

pytestmark = pytest.mark.analysis


def parse(tmp_path: Path, code: str, name: str = "mod.py"):
    path = tmp_path / name
    path.write_text(code)
    return path, ast.parse(code, filename=str(path))


def cc_ids(tmp_path: Path, code: str) -> list:
    return [d.rule_id for d in analyze_concurrency([parse(tmp_path, code)])]


@pytest.fixture(scope="module")
def repo_sources():
    files = collect_sources([Path(repro.__file__).parent])
    return [(p, ast.parse(p.read_text(), filename=str(p))) for p in files]


class TestLockOrderCycles:
    def test_abba_fixture_yields_exactly_cc001(self, tmp_path):
        diags = analyze_concurrency([parse(tmp_path, fixtures.ABBA_DEADLOCK)])
        assert [d.rule_id for d in diags] == ["CC001"]
        message = diags[0].message
        # both lock names and both acquisition sites appear in the message
        assert "Journal._lock" in message and "Ledger._lock" in message
        assert message.count("mod.py:") >= 2

    def test_abba_across_modules(self, tmp_path):
        """The cycle survives splitting the two classes across files."""
        journal_src = (
            "import threading\n\n\n"
            "class Journal:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.entries = []\n\n"
            "    def record(self, entry):\n"
            "        with self._lock:\n"
            "            self.entries.append(entry)\n"
        )
        ledger_src = (
            "import threading\n\n"
            "from journal import Journal\n\n\n"
            "class Ledger:\n"
            "    def __init__(self, journal: Journal):\n"
            "        self._lock = threading.Lock()\n"
            "        self.journal = journal\n\n"
            "    def post(self, amount):\n"
            "        with self._lock:\n"
            "            self.journal.record(amount)\n\n\n"
            "def reconcile(journal: Journal, ledger: Ledger):\n"
            "    with journal._lock:\n"
            "        with ledger._lock:\n"
            "            return True\n"
        )
        sources = [
            parse(tmp_path, journal_src, "journal.py"),
            parse(tmp_path, ledger_src, "ledger.py"),
        ]
        assert [d.rule_id for d in analyze_concurrency(sources)] == ["CC001"]

    def test_consistent_order_is_clean(self, tmp_path):
        assert cc_ids(tmp_path, fixtures.CLEAN_LOCK_ORDER) == []

    def test_lockgraph_edges_and_dot(self, tmp_path):
        graph = build_lock_graph([parse(tmp_path, fixtures.ABBA_DEADLOCK)])
        assert len(graph.cycles()) == 1
        dot = graph.to_dot()
        assert "Journal._lock" in dot and "Ledger._lock" in dot
        payload = graph.to_json()
        assert payload["cycles"]
        assert {n["kind"] for n in payload["nodes"]} == {"Lock"}


class TestBlockingUnderLock:
    def test_event_wait_under_lock_flagged(self, tmp_path):
        assert cc_ids(tmp_path, fixtures.BLOCKING_UNDER_LOCK) == ["CC002"]

    def test_condition_wait_on_held_condition_exempt(self, tmp_path):
        # CLEAN_LOCK_ORDER waits on the condition it holds — the one
        # blocking call that releases its lock by design.
        assert cc_ids(tmp_path, fixtures.CLEAN_LOCK_ORDER) == []

    def test_transitive_blocking_callee_flagged(self, tmp_path):
        code = (
            "import threading\n\n\n"
            "class Pump:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._done = threading.Event()\n\n"
            "    def _drain(self):\n"
            "        self._done.wait()\n\n"
            "    def flush(self):\n"
            "        with self._lock:\n"
            "            self._drain()\n"
        )
        assert cc_ids(tmp_path, code) == ["CC002"]


class TestSharedStateInference:
    def test_unguarded_write_from_thread_flagged(self, tmp_path):
        diags = analyze_concurrency(
            [parse(tmp_path, fixtures.UNGUARDED_SHARED_WRITE)]
        )
        assert [d.rule_id for d in diags] == ["CC003"]
        assert diags[0].symbol == "Sampler.count"

    def test_mixed_guards_flagged(self, tmp_path):
        diags = analyze_concurrency([parse(tmp_path, fixtures.MIXED_GUARDS)])
        assert [d.rule_id for d in diags] == ["CC004"]
        assert "_read_lock" in diags[0].message
        assert "_write_lock" in diags[0].message

    def test_access_under_extra_lock_is_consistent(self, tmp_path):
        # holding a second lock *on top of* the guard is not a CC004
        assert cc_ids(tmp_path, fixtures.CLEAN_LOCK_ORDER) == []

    def test_local_lock_flagged(self, tmp_path):
        assert cc_ids(tmp_path, fixtures.LOCAL_LOCK) == ["CC005"]


class TestRepoAtHead:
    #: every Lock-typed attribute the serving/telemetry stack owns
    REQUIRED_NODES = {
        "repro.serving.admission::AdmissionQueue._lock",
        "repro.serving.request::InferenceRequest._lock",
        "repro.serving.metrics::MetricsRegistry._lock",
        "repro.serving.workers::WorkerPool._slots",
        "repro.telemetry.journal::SpanJournal._lock",
    }

    def test_concurrency_pass_is_clean(self, repo_sources):
        assert analyze_concurrency(repo_sources) == []

    def test_lock_graph_covers_all_serving_locks(self, repo_sources):
        graph = build_lock_graph(repo_sources)
        assert self.REQUIRED_NODES <= set(graph.nodes)
        dot = graph.to_dot()
        for node in self.REQUIRED_NODES:
            assert node in dot
        assert graph.cycles() == []

    def test_worker_slots_order_edge_present(self, repo_sources):
        """WorkerPool holds a backend slot while bumping metrics — the
        one real cross-class ordering fact in the serving stack."""
        graph = build_lock_graph(repo_sources)
        assert (
            "repro.serving.workers::WorkerPool._slots",
            "repro.serving.metrics::MetricsRegistry._lock",
        ) in graph.edges


class TestLockgraphCli:
    def test_dot_output(self, capsys):
        assert main(["lockgraph"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lock_order")
        assert "AdmissionQueue._lock" in out

    def test_json_output_parses(self, capsys):
        assert main(["lockgraph", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycles"] == []
        assert any(
            n["display"] == "MetricsRegistry._lock" for n in payload["nodes"]
        )

    def test_out_file_and_cycle_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "abba.py"
        bad.write_text(fixtures.ABBA_DEADLOCK)
        out = tmp_path / "graph.dot"
        assert main(["lockgraph", str(bad), "--out", str(out)]) == 1
        assert "digraph" in out.read_text()
