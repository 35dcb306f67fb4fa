"""Tests of the ``repro lint`` engine and ruleset.

Every rule is covered by (at least) one violating fixture the engine
must flag, one clean fixture it must pass, and one suppressed fixture;
plus: JSON schema shape, CLI exit-code semantics, and the self-check
that the committed tree lints clean.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import (
    LintError,
    default_rules,
    render_json,
    render_text,
    report_to_dict,
    run_lint,
    select_rules,
)

SRC = Path(repro.__file__).parent


def lint_snippet(tmp_path, relpath, source, rules=None):
    """Write one fixture file at a rule-relevant path and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([path], rules=rules, root=tmp_path)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# DET001 — kernel determinism
# ----------------------------------------------------------------------
class TestDet001:
    def test_flags_module_level_random(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/ports.py",
            "import random\n"
            "def pick(n):\n"
            "    return random.randrange(n)\n",
            rules=["DET001"],
        )
        assert rule_ids(report) == ["DET001"]
        assert "random.randrange" in report.findings[0].message

    def test_flags_clock_and_urandom(self, tmp_path):
        report = lint_snippet(
            tmp_path, "nbti/stress.py",
            "import os\nimport time\n"
            "def stamp():\n"
            "    return time.time(), os.urandom(4)\n",
            rules=["DET001"],
        )
        assert sorted(rule_ids(report)) == ["DET001", "DET001"]

    def test_flags_from_import_and_alias(self, tmp_path):
        report = lint_snippet(
            tmp_path, "circuits/aging.py",
            "from random import randint\n"
            "import random as rnd\n"
            "def roll():\n"
            "    return rnd.random()\n",
            rules=["DET001"],
        )
        assert rule_ids(report) == ["DET001", "DET001"]

    def test_clean_seeded_instance(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/ports.py",
            "import random\n"
            "def pick(n, seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.randrange(n)\n",
            rules=["DET001"],
        )
        assert report.findings == []

    def test_exempt_outside_kernel_dirs(self, tmp_path):
        source = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_snippet(tmp_path, "obs/clock.py", source,
                            rules=["DET001"]).findings == []
        assert lint_snippet(tmp_path, "analysis/clock.py", source,
                            rules=["DET001"]).findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/ports.py",
            "import random\n"
            "def pick(n):\n"
            "    return random.randrange(n)  # repro: noqa[DET001]\n",
            rules=["DET001"],
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET001"]


# ----------------------------------------------------------------------
# DET002 — set iteration
# ----------------------------------------------------------------------
class TestDet002:
    def test_flags_for_loop_over_set(self, tmp_path):
        report = lint_snippet(
            tmp_path, "anywhere.py",
            "def f(items, out):\n"
            "    for item in set(items):\n"
            "        out.append(item)\n",
            rules=["DET002"],
        )
        assert rule_ids(report) == ["DET002"]

    def test_flags_comprehension_and_list_of_set(self, tmp_path):
        report = lint_snippet(
            tmp_path, "anywhere.py",
            "def f(a, b):\n"
            "    rows = [x for x in set(a) | set(b)]\n"
            "    return rows, list({1, 2, 3})\n",
            rules=["DET002"],
        )
        assert rule_ids(report) == ["DET002", "DET002"]

    def test_clean_sorted_wrap(self, tmp_path):
        report = lint_snippet(
            tmp_path, "anywhere.py",
            "def f(a, b):\n"
            "    for x in sorted(set(a)):\n"
            "        pass\n"
            "    return sorted(x for x in set(a) | set(b))\n",
            rules=["DET002"],
        )
        assert report.findings == []

    def test_severity_is_warning(self, tmp_path):
        report = lint_snippet(
            tmp_path, "anywhere.py",
            "def f(items):\n"
            "    return [i for i in set(items)]\n",
            rules=["DET002"],
        )
        assert report.findings[0].severity == "warning"
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_suppressed_file_wide(self, tmp_path):
        report = lint_snippet(
            tmp_path, "anywhere.py",
            "# repro: noqa-file[DET002]\n"
            "def f(items):\n"
            "    return [i for i in set(items)]\n",
            rules=["DET002"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# HOT001 — __slots__ in hot-path modules
# ----------------------------------------------------------------------
class TestHot001:
    def test_flags_plain_class(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/backends/reference.py",
            "class Line:\n"
            "    def __init__(self):\n"
            "        self.tag = None\n",
            rules=["HOT001"],
        )
        assert rule_ids(report) == ["HOT001"]
        assert "Line" in report.findings[0].message

    def test_clean_slots_dataclass_enum_exception(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/backends/reference.py",
            "import enum\n"
            "from dataclasses import dataclass\n"
            "class Line:\n"
            "    __slots__ = ('tag',)\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Config:\n"
            "    ways: int = 8\n"
            "class State(enum.Enum):\n"
            "    VALID = 'valid'\n"
            "class CacheError(Exception):\n"
            "    pass\n",
            rules=["HOT001"],
        )
        assert report.findings == []

    def test_not_designated_module(self, tmp_path):
        report = lint_snippet(
            tmp_path, "analysis/report.py",
            "class Table:\n"
            "    pass\n",
            rules=["HOT001"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/core.py",
            "class Debug:  # repro: noqa[HOT001]\n"
            "    pass\n",
            rules=["HOT001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# RST001 — reset() completeness
# ----------------------------------------------------------------------
class TestRst001:
    def test_flags_metrics_without_reset(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/counter.py",
            "class Widget:\n"
            "    def metrics(self):\n"
            "        return {}\n",
            rules=["RST001"],
        )
        assert rule_ids(report) == ["RST001"]
        assert "no reset()" in report.findings[0].message

    def test_flags_unreset_counter(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/counter.py",
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "        self.misses = 0\n"
            "    def reset(self):\n"
            "        self.hits = 0\n",
            rules=["RST001"],
        )
        assert rule_ids(report) == ["RST001"]
        assert "'misses'" in report.findings[0].message

    def test_clean_direct_and_helper_reset(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/counter.py",
            "class Direct:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def reset(self):\n"
            "        self.hits = 0\n"
            "    def metrics(self):\n"
            "        return {'hits': self.hits}\n"
            "class ViaHelper:\n"
            "    def __init__(self):\n"
            "        self._init_state()\n"
            "    def _init_state(self):\n"
            "        self.count = 0\n"
            "    def reset(self):\n"
            "        self._init_state()\n",
            rules=["RST001"],
        )
        assert report.findings == []

    def test_protocol_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path, "metrics/proto.py",
            "from typing import Protocol\n"
            "class MetricSource(Protocol):\n"
            "    def metrics(self):\n"
            "        ...\n",
            rules=["RST001"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/counter.py",
            "class Widget:\n"
            "    def metrics(self):  # repro: noqa[RST001]\n"
            "        return {}\n",
            rules=["RST001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# REG001 — registry spec_paths resolve
# ----------------------------------------------------------------------
class TestReg001:
    def test_flags_bogus_path(self, tmp_path):
        report = lint_snippet(
            tmp_path, "experiments/registry.py",
            "def register_study(name, description, defaults,\n"
            "                   spec_paths=()):\n"
            "    pass\n"
            "register_study('x', 'd', {},\n"
            "               spec_paths={'ratio': 'protection.dl9.nope'})\n",
            rules=["REG001"],
        )
        assert rule_ids(report) == ["REG001"]
        assert "protection.dl9.nope" in report.findings[0].message

    def test_flags_bare_segment(self, tmp_path):
        report = lint_snippet(
            tmp_path, "experiments/registry.py",
            "register_study('x', 'd', {}, spec_paths={'k': 'ratio'})\n",
            rules=["REG001"],
        )
        assert rule_ids(report) == ["REG001"]

    def test_clean_valid_paths_with_spread(self, tmp_path):
        report = lint_snippet(
            tmp_path, "experiments/registry.py",
            "_SHARED = {\n"
            "    'suite': 'workload.suites',\n"
            "    'seed': 'workload.seed',\n"
            "}\n"
            "register_study('x', 'd', {}, spec_paths={\n"
            "    **_SHARED,\n"
            "    'ratio': 'protection.dl0.params.ratio',\n"
            "    'size_kb': 'processor.dl0.size_kb',\n"
            "})\n",
            rules=["REG001"],
        )
        assert report.findings == []

    def test_real_registry_is_clean(self):
        report = run_lint(
            [SRC / "experiments" / "registry.py"], rules=["REG001"]
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "experiments/registry.py",
            "register_study('x', 'd', {},\n"
            "               spec_paths={'k': 'bogus.path'})"
            "  # repro: noqa[REG001]\n",
            rules=["REG001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# OBS001 — allocation-free disabled tracing
# ----------------------------------------------------------------------
class TestObs001:
    def test_flags_allocation_before_guard(self, tmp_path):
        report = lint_snippet(
            tmp_path, "obs/trace.py",
            "def instant(self, name, **attrs):\n"
            "    label = f'span-{name}'\n"
            "    if not self.enabled:\n"
            "        return None\n"
            "    return label\n",
            rules=["OBS001"],
        )
        assert rule_ids(report) == ["OBS001"]
        assert "before the enabled-check" in report.findings[0].message

    def test_flags_unguarded_tracer_method(self, tmp_path):
        report = lint_snippet(
            tmp_path, "obs/trace.py",
            "class Tracer:\n"
            "    def begin(self):\n"
            "        token = object()\n"
            "        if not self.enabled:\n"
            "            return None\n"
            "        return token\n",
            rules=["OBS001"],
        )
        ids = rule_ids(report)
        # both the guard-position and the pre-guard allocation fire
        assert "OBS001" in ids and len(ids) == 2

    def test_clean_guard_first(self, tmp_path):
        report = lint_snippet(
            tmp_path, "obs/trace.py",
            "class Tracer:\n"
            "    def span(self, name, **attrs):\n"
            "        if not self.enabled:\n"
            "            return None\n"
            "        return object()\n"
            "    def begin(self):\n"
            "        if not self.enabled:\n"
            "            return None\n"
            "        return (1, 2)\n"
            "    def end(self, token, name, **attrs):\n"
            "        if token is None:\n"
            "            return\n"
            "        self._record(name, token, attrs)\n"
            "    def instant(self, name, **attrs):\n"
            "        if not self.enabled:\n"
            "            return\n"
            "        self._record(name, None, attrs)\n"
            "    def record_span(self, name, wall, duration, **attrs):\n"
            "        if not self.enabled:\n"
            "            return\n"
            "        self._record(name, wall, attrs)\n"
            "    def _record(self, *args):\n"
            "        pass\n",
            rules=["OBS001"],
        )
        assert report.findings == []

    def test_only_applies_to_trace_module(self, tmp_path):
        report = lint_snippet(
            tmp_path, "obs/log.py",
            "def emit(self, name):\n"
            "    label = f'{name}!'\n"
            "    if not self.enabled:\n"
            "        return None\n"
            "    return label\n",
            rules=["OBS001"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "obs/trace.py",
            "def instant(self, name):\n"
            "    label = f'span-{name}'  # repro: noqa[OBS001]\n"
            "    if not self.enabled:\n"
            "        return None\n"
            "    return label\n",
            rules=["OBS001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# FAB001 — fabric writes go through the crash-safe helpers
# ----------------------------------------------------------------------
class TestFab001:
    def test_flags_append_mode_open_in_fabric(self, tmp_path):
        report = lint_snippet(
            tmp_path, "fabric/store.py",
            "def save(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n",
            rules=["FAB001"],
        )
        assert rule_ids(report) == ["FAB001", "FAB001"]
        assert "append_record" in report.findings[0].message

    def test_flags_write_mode_keyword_and_writelines(self, tmp_path):
        # The sweep runner writes run manifests: held to the same rule.
        report = lint_snippet(
            tmp_path, "experiments/runner.py",
            "def dump(path, lines):\n"
            "    handle = open(path, mode='w')\n"
            "    handle.writelines(lines)\n",
            rules=["FAB001"],
        )
        assert rule_ids(report) == ["FAB001", "FAB001"]

    def test_flags_dynamic_mode(self, tmp_path):
        report = lint_snippet(
            tmp_path, "fabric/store.py",
            "def touch(path, mode):\n"
            "    return open(path, mode)\n",
            rules=["FAB001"],
        )
        assert rule_ids(report) == ["FAB001"]
        assert "non-constant mode" in report.findings[0].message

    def test_clean_reads_and_helper_calls(self, tmp_path):
        report = lint_snippet(
            tmp_path, "fabric/store.py",
            "from repro.fabric.io import append_record, atomic_write_text\n"
            "def load(path):\n"
            "    with open(path, 'rb') as handle:\n"
            "        return handle.read()\n"
            "def put(path, payload, text):\n"
            "    append_record(path, payload)\n"
            "    atomic_write_text(path, text)\n",
            rules=["FAB001"],
        )
        assert report.findings == []

    def test_exempt_io_module_and_out_of_scope_files(self, tmp_path):
        source = (
            "import os\n"
            "def raw(fd, data):\n"
            "    os.write(fd, data)\n"
            "    open('x', 'w')\n"
        )
        assert lint_snippet(tmp_path, "fabric/io.py", source,
                            rules=["FAB001"]).findings == []
        assert lint_snippet(tmp_path, "obs/log.py", source,
                            rules=["FAB001"]).findings == []

    def test_suppressed(self, tmp_path):
        report = lint_snippet(
            tmp_path, "fabric/lease.py",
            "def note(path, text):\n"
            "    open(path, 'w').write(text)  # repro: noqa[FAB001]\n",
            rules=["FAB001"],
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["FAB001", "FAB001"]


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_snippet(tmp_path, "broken.py", "def f(:\n")
        assert rule_ids(report) == ["SYN001"]
        assert report.exit_code() == 1

    def test_unknown_rule_raises_lint_error(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        with pytest.raises(LintError, match="NOPE001"):
            run_lint([tmp_path / "m.py"], rules=["NOPE001"])

    def test_missing_path_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="no such file"):
            run_lint([tmp_path / "absent.py"])

    def test_comma_separated_rule_selection(self):
        rules = select_rules(default_rules(), ["DET001,RST001"])
        assert [r.id for r in rules] == ["DET001", "RST001"]
        rules = select_rules(default_rules(), ["DET001", "OBS001"])
        assert [r.id for r in rules] == ["DET001", "OBS001"]

    def test_noqa_without_id_suppresses_everything(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/ports.py",
            "import random\n"
            "def pick(n):\n"
            "    return random.randrange(n)  # repro: noqa\n",
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_findings_sorted_and_rendered(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/zz.py",
            "class B:\n"
            "    def metrics(self):\n"
            "        return {}\n"
            "class A:\n"
            "    def metrics(self):\n"
            "        return {}\n",
            rules=["RST001"],
        )
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        text = render_text(report)
        assert "uarch/zz.py:2" in text
        assert "error(s)" in text


# ----------------------------------------------------------------------
# JSON schema
# ----------------------------------------------------------------------
class TestJsonOutput:
    def test_schema_shape(self, tmp_path):
        report = lint_snippet(
            tmp_path, "uarch/counter.py",
            "class Widget:\n"
            "    def metrics(self):\n"
            "        return {}\n",
        )
        payload = json.loads(render_json(report, strict=True))
        assert payload["schema"] == "repro.lint/1"
        assert payload["version"] == repro.__version__
        assert payload["files"] == 1
        assert payload["strict"] is True
        assert payload["exit_code"] == 1
        assert {r["id"] for r in payload["rules"]} == {
            "DET001", "DET002", "HOT001", "RST001", "REG001", "OBS001",
            "FAB001",
        }
        for rule in payload["rules"]:
            assert rule["severity"] in ("error", "warning")
            assert rule["description"]
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col",
                                "message", "severity"}
        assert payload["counts"] == {
            "errors": 1, "warnings": 0, "suppressed": 0
        }

    def test_clean_tree_exit_code_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        payload = report_to_dict(run_lint([tmp_path / "ok.py"]))
        assert payload["exit_code"] == 0
        assert payload["findings"] == []


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestLintCli:
    def test_violations_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "uarch" / "ports.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n"
                       "def f():\n"
                       "    return random.random()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_clean_exit_0_and_json(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert main(["lint", str(ok), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"

    def test_internal_error_exit_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "gone.py")]) == 2
        assert main(["lint", "--rule", "NOPE001", "."]) == 2

    def test_rule_filter_and_list_rules(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert main(["lint", str(ok), "--rule", "DET001,DET002"]) == 0
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "HOT001", "RST001",
                        "REG001", "OBS001", "FAB001"):
            assert rule_id in out

    def test_strict_fails_on_warning(self, tmp_path, capsys):
        warn = tmp_path / "w.py"
        warn.write_text("def f(items):\n"
                        "    return [i for i in set(items)]\n")
        assert main(["lint", str(warn)]) == 0
        assert main(["lint", str(warn), "--strict"]) == 1


# ----------------------------------------------------------------------
# Self-check: the committed tree lints clean
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_package_tree_is_clean_strict(self):
        report = run_lint([SRC])
        assert render_text(report, strict=True) and report.findings == [], (
            "committed tree has lint violations:\n"
            + render_text(report, strict=True)
        )
        assert report.exit_code(strict=True) == 0
        assert report.files > 50

    def test_cli_self_check(self, capsys):
        assert main(["lint", str(SRC), "--strict"]) == 0
