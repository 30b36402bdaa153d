#!/usr/bin/env python3
"""Self-test of tools/src_lines.py (ctest suite `src_lines`). The tool is
copied into a throwaway git repository with a src/ tree of known size, so
the counts do not depend on this checkout's history."""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tools",
                    "src_lines.py")


class SrcLinesTest(unittest.TestCase):
    def setUp(self):
        self.repo = tempfile.mkdtemp(prefix="src_lines_test_")
        self.addCleanup(shutil.rmtree, self.repo)
        os.makedirs(os.path.join(self.repo, "tools"))
        os.makedirs(os.path.join(self.repo, "src", "core"))
        shutil.copy(TOOL, os.path.join(self.repo, "tools"))
        self.write("src/core/a.h", "1\n2\n3\n")
        self.write("src/core/a.cc", "1\n2\n")
        self.write("src/notes.txt", "not\ncounted\n")
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "seed")

    def write(self, path, text):
        with open(os.path.join(self.repo, path), "w") as f:
            f.write(text)

    def git(self, *args):
        subprocess.run(("git", "-C", self.repo, "-c", "user.name=test",
                        "-c", "user.email=test@example.com",
                        "-c", "commit.gpgsign=false") + args,
                       check=True, capture_output=True)

    def run_tool(self, *args):
        return subprocess.run(
            (sys.executable, os.path.join(self.repo, "tools", "src_lines.py"))
            + args, capture_output=True, text=True)

    def test_counts_the_revision_and_the_worktree(self):
        self.write("src/core/a.cc", "1\n2\n3\n4\n")
        self.write("src/core/b.h", "1\n")  # untracked: still counted
        out = self.run_tool()
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(out.stdout.splitlines(),
                         ["src/ at HEAD: 5", "src/ in worktree: 8",
                          "delta: +3"])

    def test_help_prints_usage(self):
        out = self.run_tool("--help")
        self.assertEqual(out.returncode, 0)
        self.assertIn("usage:", out.stdout)
        self.assertEqual(out.stderr, "")

    def test_unknown_revision_is_one_line(self):
        out = self.run_tool("no-such-rev")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")
        self.assertEqual(out.stderr.splitlines(),
                         ["src_lines.py: unknown revision: no-such-rev"])


if __name__ == "__main__":
    unittest.main()
