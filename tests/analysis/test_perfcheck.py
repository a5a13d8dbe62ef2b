"""The perf pass: hot-set reachability (kernel seeds, spawn roots,
dynamic dispatch), the REP017-REP021 detectors over the ``perfpkg``
fixture, suppression handling, and the ``--perf`` CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.perfcheck import (
    analyze_perf,
    compute_hot_set,
    validate_against_profile,
)

PERFPKG = Path(__file__).parent / "fixtures" / "perfpkg"
REPO = Path(__file__).parent.parent.parent
SRC = str(REPO / "src" / "repro")


@pytest.fixture(scope="module")
def result():
    return analyze_perf([str(PERFPKG)])


class TestHotSet:
    def test_kernel_functions_seed_the_hot_set(self, result):
        assert "perfpkg.kernel.MiniEnv.run" in result.kernel_seeds
        assert "perfpkg.kernel.MiniEnv.run" in result.hot

    def test_env_process_argument_is_a_spawn_root(self, result):
        # srv.main_loop() appears only as the argument of env.process(...)
        # — no static call edge drives it, it must be seeded explicitly
        assert result.spawn_roots == {"perfpkg.server.Server.main_loop"}
        assert "perfpkg.server.Server.main_loop" in result.hot

    def test_dynamic_dispatch_handlers_are_hot(self, result):
        # reached only via getattr(self, f"_on_{msg.kind}")
        assert "perfpkg.server.Server._on_hit" in result.hot
        assert "perfpkg.server.Server._on_miss" in result.hot

    def test_callees_of_handlers_are_hot(self, result):
        # _on_hit -> self.cfg.cap() via constructor-assigned attr type
        assert "perfpkg.server.Config.cap" in result.hot

    def test_cold_code_stays_cold(self, result):
        assert "perfpkg.server.cold_helper" not in result.hot
        assert "perfpkg.server.ColdReport.render" not in result.hot
        # build() spawns the root but is itself unreachable from the kernel
        assert "perfpkg.server.build" not in result.hot

    def test_compute_hot_set_splits_seed_kinds(self, result):
        hot, kernel_seeds, spawn_roots = compute_hot_set(result.graph)
        assert kernel_seeds == result.kernel_seeds
        assert spawn_roots == result.spawn_roots
        assert hot == result.hot


class TestDetectors:
    def _rules_at(self, result, fname):
        return {(f.rule, f.line) for f in result.findings
                if f.path.endswith(fname)}

    def test_rep017_allocation_in_hot_loop(self, result):
        assert any(f.rule == "REP017" and "list()" in f.message
                   for f in result.findings)

    def test_rep018_hot_class_without_slots(self, result):
        flagged = {f.message.split("class ")[1].split(" ")[0]
                   for f in result.findings if f.rule == "REP018"}
        assert flagged == {"Server"}

    def test_rep018_respects_dataclass_slots_true(self, result):
        # Config is @dataclass(slots=True); Msg/Log declare __slots__
        for f in result.findings:
            if f.rule == "REP018":
                assert "Config" not in f.message
                assert "Msg" not in f.message
                assert "Log" not in f.message

    def test_rep018_ignores_cold_classes(self, result):
        for f in result.findings:
            if f.rule == "REP018":
                assert "ColdReport" not in f.message

    def test_rep019_unguarded_fstring_emit(self, result):
        hits = [f for f in result.findings if f.rule == "REP019"]
        assert len(hits) == 1  # the guarded emit two lines below is free
        assert "f-string" in hits[0].message

    def test_rep020_repeated_chain(self, result):
        hits = [f for f in result.findings if f.rule == "REP020"]
        assert len(hits) == 1
        assert "self.env.queue" in hits[0].message
        assert "3x" in hits[0].message

    def test_rep021_pop0_in_kernel_loop(self, result):
        assert any(f.rule == "REP021" and ".pop(0)" in f.message
                   and f.path.endswith("kernel.py")
                   for f in result.findings)

    def test_rep021_sorted_in_nested_for_iter(self, result):
        # sorted(batch) sits in a nested for's iterable: it still runs
        # once per outer iteration and must be caught
        assert any(f.rule == "REP021" and "sorted()" in f.message
                   for f in result.findings)

    def test_rep021_list_membership(self, result):
        assert any(f.rule == "REP021" and "self.pending" in f.message
                   for f in result.findings)

    def test_all_findings_are_perf_rules(self, result):
        from repro.analysis.rules import RULES

        assert result.findings  # the fixture plants one of each
        assert all(RULES[f.rule].perf for f in result.findings)


class TestSuppression:
    def test_per_line_suppression_drops_finding(self, tmp_path):
        pkg = tmp_path / "suppkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "kernel.py").write_text(
            "class Env:\n"
            "    __slots__ = ('q',)\n\n"
            "    def __init__(self):\n"
            "        self.q = []\n\n"
            "    def run(self):\n"
            "        while self.q:\n"
            "            self.q.pop(0)  "
            "# reprolint: disable=REP021 -- bounded by test size\n")
        res = analyze_perf([str(pkg)])
        assert all(f.rule != "REP021" for f in res.findings)
        assert res.suppressed == 1
        assert res.used_suppressions  # feeds the REP016 audit


class TestRepoIsClean:
    def test_src_repro_has_no_unsuppressed_perf_findings(self):
        res = analyze_perf([SRC])
        assert res.findings == [], [str(f) for f in res.findings]

    def test_src_repro_hot_set_covers_core_subsystems(self):
        res = analyze_perf([SRC])
        by_sub = res.hot_by_subsystem()
        for sub in ("kernel", "press", "net", "workload", "hardware"):
            assert by_sub.get(sub, 0) > 0, (sub, by_sub)


class TestValidation:
    @pytest.mark.slow
    def test_validate_meets_recall_bar(self):
        res = analyze_perf([SRC])
        doc = validate_against_profile(res)
        assert doc is res.validation
        assert doc["recall"] >= 0.8
        assert 0.0 <= doc["precision"] <= 1.0
        assert doc["total_seconds"] > 0


class TestPerfCli:
    def _lint(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True, text=True, cwd=REPO,
        )

    def test_perf_flag_reports_hot_set(self):
        proc = self._lint(SRC, "--perf")
        assert proc.returncode == 0, proc.stdout
        assert "hot function(s)" in proc.stdout
        assert "kernel seed(s)" in proc.stdout

    def test_perf_json_document(self):
        proc = self._lint(SRC, "--perf", "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["schema"] == 4
        perf = doc["perf"]
        assert perf["hot_functions"] > 0
        assert perf["kernel_seeds"] > 0
        assert perf["spawn_roots"]
        assert perf["hot_by_subsystem"].get("kernel", 0) > 0

    def test_without_perf_flag_no_perf_section(self):
        proc = self._lint(SRC, "--format", "json")
        doc = json.loads(proc.stdout)
        assert "perf" not in doc

    def test_perf_findings_gate_exit_code(self, tmp_path):
        pkg = tmp_path / "hotpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "kernel.py").write_text(
            "class Env:\n"
            "    __slots__ = ('q',)\n\n"
            "    def __init__(self):\n"
            "        self.q = []\n\n"
            "    def run(self):\n"
            "        while self.q:\n"
            "            self.q.pop(0)\n")
        proc = self._lint(str(pkg), "--perf")
        assert proc.returncode == 1  # REP021 is an error
        assert "REP021" in proc.stdout

    def test_list_rules_shows_perf_scope(self):
        proc = self._lint("--list-rules")
        assert "kernel hot set, --perf only" in proc.stdout
        for rid in ("REP017", "REP018", "REP019", "REP020", "REP021"):
            assert rid in proc.stdout
