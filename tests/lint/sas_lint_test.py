#!/usr/bin/env python3
"""Self-tests for the static-analysis tools (ctest suite `lint_selftest`).

Covers tools/sas_lint.py against the checked-in fixture trees — every rule
fires on the seeded violations, none fires on the clean tree, the reasoned
allow escape suppresses — and tools/run_clang_tidy.py's baseline-diff
logic through a fake clang-tidy (no real install needed).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SAS_LINT = os.path.join(REPO_ROOT, "tools", "sas_lint.py")
RUN_TIDY = os.path.join(REPO_ROOT, "tools", "run_clang_tidy.py")
FIXTURES = os.path.join(HERE, "fixtures")
TIDY_FIXTURE = os.path.join(FIXTURES, "tidy")
FAKE_TIDY = os.path.join(TIDY_FIXTURE, "fake_clang_tidy.py")


def run(argv, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run([sys.executable] + argv, text=True, env=merged,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


class SasLintTest(unittest.TestCase):
    def lint(self, fixture):
        return run([SAS_LINT, "--root", os.path.join(FIXTURES, fixture)])

    def test_clean_fixture_passes(self):
        proc = self.lint("clean")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("OK", proc.stdout)

    def test_reasoned_allow_suppresses(self):
        # The clean fixture contains a wall-clock call behind a reasoned
        # escape; it must not fire.
        proc = self.lint("clean")
        self.assertNotIn("wall-clock", proc.stdout.replace(
            "[wall-clock]", "HIT"), proc.stdout)
        self.assertNotIn("HIT", proc.stdout, proc.stdout)

    def test_every_rule_fires_on_seeded_violations(self):
        proc = self.lint("violations")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        for rule in ("key-registered", "key-documented", "raw-rand",
                     "wall-clock", "timing-confined", "unforked-rng",
                     "reinterpret-cast", "simd-intrinsics", "catch-all",
                     "atomic-publication", "allow-syntax",
                     "header-self-contained", "cmake-sources"):
            self.assertIn(f"[{rule}]", proc.stdout,
                          f"rule {rule} did not fire:\n{proc.stdout}")

    def test_violation_lines_name_the_seeded_files(self):
        proc = self.lint("violations")
        out = proc.stdout
        self.assertIn("src/core/rogue.cc", out)
        self.assertIn("src/structure/cast.cc", out)
        self.assertIn("src/core/rogue.h", out)
        self.assertIn("src/api/keys.h", out)
        self.assertIn("src/api/timer.cc", out)
        self.assertIn("src/api/atomics.cc", out)

    def test_allow_without_reason_is_flagged_not_honored(self):
        proc = self.lint("violations")
        self.assertIn("without a reason", proc.stdout)
        self.assertIn("unknown rule 'bogus-rule'", proc.stdout)

    def test_real_tree_is_clean(self):
        # The repo itself must lint clean (headers are covered by the
        # separate `lint` ctest suite; skip them here for speed).
        proc = run([SAS_LINT, "--root", REPO_ROOT, "--no-headers"])
        self.assertEqual(proc.returncode, 0, proc.stdout)


def write_compile_db(build_dir, files):
    """Writes a compile_commands.json for repo-relative `files` into
    `build_dir`; run_clang_tidy.py reads only each entry's directory and
    file."""
    db = [{"directory": REPO_ROOT, "command": f"c++ -c {name}", "file": name}
          for name in files]
    with open(os.path.join(build_dir, "compile_commands.json"), "w",
              encoding="utf-8") as f:
        json.dump(db, f)


class RunClangTidyTest(unittest.TestCase):
    # Each case gets a fresh compile DB in a temp dir: compile_commands.json
    # is git-ignored, so a fixture DB in the tree would be missing from a
    # clean checkout.
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.build_dir = tmp.name
        write_compile_db(self.build_dir,
                         ["tests/lint/fixtures/tidy/src/fake.cc"])

    def tidy(self, baseline, clean=False, extra=None):
        env = {"FAKE_TIDY_CLEAN": "1"} if clean else {"FAKE_TIDY_CLEAN": "0"}
        argv = [RUN_TIDY, "--build-dir", self.build_dir,
                "--clang-tidy", FAKE_TIDY,
                "--baseline", os.path.join(TIDY_FIXTURE, baseline),
                "tests/lint/fixtures/tidy/src"]
        return run(argv + (extra or []), env=env)

    def test_new_diagnostic_fails_against_empty_baseline(self):
        proc = self.tidy("baseline_empty.txt")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[bugprone-fixture]", proc.stdout)
        self.assertIn("FAIL", proc.stdout)

    def test_grandfathered_diagnostic_passes(self):
        proc = self.tidy("baseline_grandfathered.txt")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("grandfathered", proc.stdout)

    def test_clean_run_passes_empty_baseline(self):
        proc = self.tidy("baseline_empty.txt", clean=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_stale_baseline_entry_is_reported_not_fatal(self):
        proc = self.tidy("baseline_grandfathered.txt", clean=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("stale", proc.stdout)

    def test_update_baseline_writes_current_diagnostics(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.txt")
            shutil.copy(os.path.join(TIDY_FIXTURE, "baseline_empty.txt"),
                        baseline)
            env = {"FAKE_TIDY_CLEAN": "0"}
            proc = run([RUN_TIDY, "--build-dir", self.build_dir,
                        "--clang-tidy", FAKE_TIDY, "--baseline", baseline,
                        "--update-baseline",
                        "tests/lint/fixtures/tidy/src"], env=env)
            self.assertEqual(proc.returncode, 0, proc.stdout)
            with open(baseline, encoding="utf-8") as f:
                content = f.read()
            self.assertIn("bugprone-fixture", content)
            # The updated baseline now grandfathers the diagnostic.
            proc = run([RUN_TIDY, "--build-dir", self.build_dir,
                        "--clang-tidy", FAKE_TIDY, "--baseline", baseline,
                        "tests/lint/fixtures/tidy/src"], env=env)
            self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_per_path_check_filters_reach_the_tool(self):
        # TUs under src/core/simd* get targeted --checks exclusions (the
        # intrinsics TU is exempt from portability/cast/magic-number checks
        # by design, keeping the baseline file empty); every other TU runs
        # with the unmodified repo config. The fake tidy echoes the filter
        # it received back as a diagnostic so both cases are observable.
        with tempfile.TemporaryDirectory() as tmp:
            write_compile_db(tmp, ["src/core/simd.cc", "src/core/ipps.cc"])
            proc = run([RUN_TIDY, "--build-dir", tmp,
                        "--clang-tidy", FAKE_TIDY,
                        "--baseline",
                        os.path.join(TIDY_FIXTURE, "baseline_empty.txt"),
                        "src/core/simd.cc", "src/core/ipps.cc"],
                       env={"FAKE_TIDY_ECHO_CHECKS": "1"})
            # The echoed diagnostics are "new" against the empty baseline.
            self.assertEqual(proc.returncode, 1, proc.stdout)
            simd_lines = [ln for ln in proc.stdout.splitlines()
                          if ln.startswith("src/core/simd.cc")]
            ipps_lines = [ln for ln in proc.stdout.splitlines()
                          if ln.startswith("src/core/ipps.cc")]
            self.assertTrue(simd_lines and ipps_lines, proc.stdout)
            self.assertIn("-cppcoreguidelines-pro-type-reinterpret-cast",
                          simd_lines[0])
            self.assertIn("-portability-simd-intrinsics", simd_lines[0])
            self.assertIn("checks none", ipps_lines[0])

    def test_missing_tool_skips_by_default_fails_when_required(self):
        argv = [RUN_TIDY, "--build-dir", self.build_dir,
                "--clang-tidy", "/nonexistent/clang-tidy",
                "--baseline",
                os.path.join(TIDY_FIXTURE, "baseline_empty.txt"),
                "tests/lint/fixtures/tidy/src"]
        proc = run(argv)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SKIPPED", proc.stdout)
        proc = run(argv + ["--require-tool"])
        self.assertEqual(proc.returncode, 2, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
