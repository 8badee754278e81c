"""Framework semantics (suppressions, path policies, CLI, JSON) and the
tier-1 gate: the shipped tree has zero findings."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.tools.lint import (
    RULES,
    UNKNOWN_SUPPRESSION,
    Finding,
    find_root,
    lint_paths,
    lint_source,
)
from repro.tools.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

AMBIENT = textwrap.dedent("""
    import numpy as np
    a = np.random.rand(3)
""")


def run(source: str, path: str = "src/repro/system/example.py", **kwargs):
    return lint_source(textwrap.dedent(source), path, **kwargs)


# -- the tree is clean (and stays clean) --------------------------------------

class TestShippedTree:
    def test_src_has_zero_findings(self):
        findings, checked = lint_paths(
            [str(REPO_ROOT / "src")], root=str(REPO_ROOT)
        )
        assert checked > 50
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_benchmarks_and_examples_have_zero_findings(self):
        findings, checked = lint_paths(
            [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")],
            root=str(REPO_ROOT),
        )
        assert checked > 10
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_reintroducing_a_pr5_bug_fails(self, tmp_path):
        """A lambda on actor state — the exact bug class PR 5 fixed by
        hand — must fail the CLI (and with it the CI lint job)."""
        (tmp_path / "setup.py").write_text("")  # repo-root marker
        bad = tmp_path / "src" / "repro" / "actors" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""
            class Coordinator:
                def __init__(self):
                    self.on_round_done = lambda report: report
        """))
        code = lint_main([str(tmp_path / "src"), "--format", "json",
                          "--out", str(tmp_path / "report.json")])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert [f["rule"] for f in report["findings"]] == [
            "snapshot-unsafe-state"
        ]


# -- suppression semantics ----------------------------------------------------

class TestSuppressions:
    def test_allow_silences_exactly_that_rule_on_that_line(self):
        clean = run("""
            import numpy as np
            a = np.random.rand(3)  # repro-lint: allow(no-ambient-rng)
        """)
        assert clean == []

    def test_other_lines_still_fire(self):
        findings = run("""
            import numpy as np
            a = np.random.rand(3)  # repro-lint: allow(no-ambient-rng)
            b = np.random.rand(3)
        """)
        assert [f.rule for f in findings] == ["no-ambient-rng"]
        assert findings[0].line == 4

    def test_wrong_rule_does_not_silence(self):
        findings = run("""
            import numpy as np
            a = np.random.rand(3)  # repro-lint: allow(no-wall-clock)
        """)
        assert [f.rule for f in findings] == ["no-ambient-rng"]

    def test_multiple_rules_in_one_suppression(self):
        clean = run("""
            import time
            import numpy as np
            x = np.random.rand(int(time.time()))  # repro-lint: allow(no-ambient-rng, no-wall-clock)
        """)
        assert clean == []

    def test_unknown_rule_name_is_itself_a_finding(self):
        findings = run("""
            x = 1  # repro-lint: allow(no-such-rule)
        """)
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION]
        assert "no-such-rule" in findings[0].message

    def test_unknown_rule_fires_even_where_policies_disable_rules(self):
        # tests/ has every contract rule disabled, but a typo'd
        # suppression is still reported — it would silently rot there.
        findings = run("""
            x = 1  # repro-lint: allow(not-a-rule)
        """, path="tests/test_example.py")
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION]

    def test_suppression_in_string_literal_is_ignored(self):
        findings = run("""
            import numpy as np
            doc = "# repro-lint: allow(no-ambient-rng)"
            a = np.random.rand(3)
        """)
        assert [f.rule for f in findings] == ["no-ambient-rng"]


# -- path policies ------------------------------------------------------------

class TestPathPolicies:
    def test_tests_tree_is_fully_relaxed(self):
        assert run(AMBIENT, path="tests/sim/test_example.py") == []

    def test_benchmarks_keep_snapshot_rule(self):
        findings = run("""
            from dataclasses import dataclass, field

            @dataclass
            class BenchConfig:
                fleet: object = field(default_factory=lambda: object())
        """, path="benchmarks/example.py")
        assert [f.rule for f in findings] == ["snapshot-unsafe-state"]

    def test_rule_selection_narrows(self):
        findings = run("""
            import time
            import numpy as np
            a = np.random.rand(3)
            t = time.time()
        """, rules={"no-wall-clock"})
        assert [f.rule for f in findings] == ["no-wall-clock"]


# -- findings / JSON round-trip -----------------------------------------------

class TestJsonRoundTrip:
    def test_finding_dict_round_trip(self):
        findings = run(AMBIENT)
        assert len(findings) == 1
        assert Finding.from_dict(findings[0].to_dict()) == findings[0]

    def test_cli_json_round_trips_path_line_rule_message(self, tmp_path, capsys):
        (tmp_path / "setup.py").write_text("")
        src = tmp_path / "src" / "repro" / "system" / "example.py"
        src.parent.mkdir(parents=True)
        src.write_text(AMBIENT)
        code = lint_main([str(tmp_path / "src"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["files_checked"] == 1
        expected = lint_source(AMBIENT, "src/repro/system/example.py")
        assert [Finding.from_dict(f) for f in payload["findings"]] == expected
        # Paths are root-relative posix, stable across machines.
        assert payload["findings"][0]["path"] == "src/repro/system/example.py"

    def test_parse_error_is_reported_not_raised(self):
        findings = run("def broken(:\n", path="src/repro/system/example.py")
        assert [f.rule for f in findings] == ["parse-error"]


# -- CLI ----------------------------------------------------------------------

class TestCli:
    def _tree(self, tmp_path, source=AMBIENT):
        (tmp_path / "setup.py").write_text("")
        src = tmp_path / "src" / "repro" / "system" / "example.py"
        src.parent.mkdir(parents=True)
        src.write_text(source)
        return src

    def test_exit_codes(self, tmp_path, capsys):
        self._tree(tmp_path)
        assert lint_main([str(tmp_path / "src")]) == 1
        capsys.readouterr()
        clean = tmp_path / "src" / "repro" / "system" / "example.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(tmp_path / "src")]) == 0

    def test_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--rule", "bogus", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rule_filter(self, tmp_path, capsys):
        self._tree(tmp_path)
        assert lint_main(
            [str(tmp_path / "src"), "--rule", "no-wall-clock"]
        ) == 0

    def test_list_rules_names_every_registered_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out
        assert UNKNOWN_SUPPRESSION in out

    def test_text_format_renders_location(self, tmp_path, capsys):
        self._tree(tmp_path)
        lint_main([str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert "src/repro/system/example.py:3:" in out
        assert "[no-ambient-rng]" in out


def test_find_root_locates_repo():
    assert find_root(str(REPO_ROOT / "src" / "repro")) == str(REPO_ROOT)
