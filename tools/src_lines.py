#!/usr/bin/env python3
"""Line count of the library sources (src/**.h + src/**.cc) at a revision
and in the worktree, plus the delta.

    tools/src_lines.py [<rev>]      # <rev> defaults to HEAD

The revision is read from git objects (`git ls-tree`, `git show`), so
nothing is checked out. The worktree count reads every .h/.cc file under
src/, tracked or not, as a build of this checkout would compile it.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXTS = (".h", ".cc")


def git(*args):
    return subprocess.run(("git", "-C", ROOT) + args, check=True,
                          capture_output=True).stdout


def lines_at(rev):
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src").decode()
    total = 0
    for path in paths.splitlines():
        if path.endswith(EXTS):
            total += git("show", f"{rev}:{path}").count(b"\n")
    return total


def lines_in_worktree():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(EXTS):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def is_revision(rev):
    return subprocess.run(
        ("git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
         "--end-of-options", rev + "^{commit}"),
        capture_output=True).returncode == 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("rev", nargs="?", default="HEAD",
                        help="git revision to count against (default: HEAD)")
    rev = parser.parse_args().rev
    if not is_revision(rev):
        sys.exit(f"src_lines.py: unknown revision: {rev}")
    at_rev = lines_at(rev)
    now = lines_in_worktree()
    print(f"src/ at {rev}: {at_rev}")
    print(f"src/ in worktree: {now}")
    print(f"delta: {now - at_rev:+d}")


if __name__ == "__main__":
    main()
