#!/usr/bin/env python3
"""sas-lint: project-specific invariant checks no generic tool knows.

Rules (each violation prints "path:line: [rule] message"; exit 1 on any):

  key-registered         every canonical key constant in src/api/keys.h is
                         referenced (as keys::kName) by the registry
                         implementation (api/builders.cc, api/registry.cc,
                         api/sharded.cc, api/adapters.h,
                         window/windowed.cc), so no key can exist that
                         MakeSummarizer does not know.
  key-documented         every canonical key's string value appears (in
                         backticks) in docs/keys.md.
  raw-rand               no std::rand/srand/std::random_device in the
                         deterministic core (src/core, src/aware,
                         src/structure, src/window) — all randomness flows
                         from an explicit seed through sas::Rng.
  wall-clock             no steady_clock/system_clock/high_resolution_clock
                         ::now() in the deterministic core — time enters
                         through item timestamps, never ambient clocks
                         (src/core/telemetry* is the sanctioned exception;
                         see timing-confined).
  timing-confined        ambient clock reads (the same ::now() calls) are
                         confined to src/core/telemetry* everywhere else
                         under src/ too — all other code times itself
                         through telemetry::NowNs()/Span, so "who reads the
                         clock" stays a one-file audit.
  unforked-rng           no seedless Rng in the deterministic core (default
                         construction `Rng r;` / `Rng()`): generators are
                         seeded from config or derived via Fork/ForkSeed so
                         runs replay bit-identically.
  reinterpret-cast       no reinterpret_cast under src/ outside the audited
                         files (the flat-coords facade
                         src/aware/flat_coords.h and the SIMD kernel TU
                         src/core/simd.cc, whose vector load/store casts
                         are part of the intrinsics contract).
  simd-intrinsics        x86 intrinsics (immintrin.h, _mm* calls, __m128/
                         __m256/__m512 vector types) appear only under the
                         SIMD facade (src/core/simd*) — everything else
                         calls the dispatched kernels of core/simd.h, so
                         the scalar build stays portable and the
                         SIMD surface auditable.
  catch-all              no bare `catch (...)` under src/ outside audited
                         sites — swallowing unknown exceptions hides
                         poisoned state; the audited sites (worker-thread
                         boundaries, poison-then-rethrow markers) carry a
                         reasoned `// sas-lint: allow(catch-all): <why>`.
  atomic-publication     raw atomic pointer publication (`std::atomic<T*>`)
                         is confined to the serving tier (src/serve/) —
                         hand-rolled lock-free pointer hand-off anywhere
                         else bypasses the epoch-reclamation protocol that
                         makes it safe (docs/serving.md); other code shares
                         state through the serve tier, a mutex, or a
                         reasoned allow.
  allow-syntax           every `// sas-lint: allow(<rule>)` escape names a
                         known rule and carries a `: reason` string.
  header-self-contained  every header under src/ compiles on its own
                         (skipped with a notice when no C++ compiler is
                         available; pass --no-headers to skip explicitly).
  cmake-sources          every src/**/*.cc on disk is listed in
                         CMakeLists.txt, so the explicit source list cannot
                         silently drop a TU from the build (and from every
                         other check here).

Escape hatch: `// sas-lint: allow(<rule>): <reason>` on the flagged line,
or on a comment line directly above it (intervening comment/blank lines are
fine). The reason is mandatory; an allow without one is itself a violation.

Usage:
    tools/sas_lint.py [--root DIR] [--no-headers] [--cxx BIN] [--jobs N]

--root points at a repo-shaped tree (tests/lint/ uses fixture trees);
default is this repo. Exit codes: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

DETERMINISM_DIRS = ("core", "aware", "structure", "window")
REGISTRY_IMPL_FILES = (
    "src/api/builders.cc",
    "src/api/composed.cc",
    "src/api/registry.cc",
    "src/api/sharded.cc",
    "src/api/adapters.h",
    "src/window/windowed.cc",
    "src/serve/servable.cc",
)
KEYS_HEADER = "src/api/keys.h"
KEYS_DOC = "docs/keys.md"
AUDITED_REINTERPRET_FILES = (
    "src/aware/flat_coords.h",
    "src/core/simd.cc",
)
# Files allowed to touch x86 intrinsics directly (prefix match).
SIMD_HOME_PREFIX = "src/core/simd"
# The one place ambient clocks may be read (prefix match): everything else
# times itself through telemetry::NowNs()/Span.
TELEMETRY_HOME_PREFIX = "src/core/telemetry"
# The one directory allowed to publish raw atomic pointers (prefix match):
# the serving tier owns the epoch-reclamation protocol that makes the
# pattern safe.
ATOMIC_HOME_PREFIX = "src/serve/"

RULES = (
    "key-registered",
    "key-documented",
    "raw-rand",
    "wall-clock",
    "timing-confined",
    "unforked-rng",
    "reinterpret-cast",
    "simd-intrinsics",
    "catch-all",
    "atomic-publication",
    "allow-syntax",
    "header-self-contained",
    "cmake-sources",
)

# Pattern rules over comment-stripped source lines.
RE_RAW_RAND = re.compile(
    r"\bstd\s*::\s*rand\b|\bstd\s*::\s*srand\b|\bsrand\s*\(|"
    r"\brandom_device\b")
RE_WALL_CLOCK = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*"
    r"now\s*\(")
# Seedless Rng: a plain declaration `Rng name;` (member slots count — the
# escape documents where they are actually seeded) or a default-constructed
# temporary `Rng()` / `Rng{}`. Seeded forms (`Rng r(seed)`, `Rng::Fork`)
# never match: the construction must carry an argument.
RE_UNFORKED_RNG = re.compile(r"\bRng\s+\w+\s*;|\bRng\s*(?:\(\s*\)|\{\s*\})")
RE_REINTERPRET = re.compile(r"\breinterpret_cast\b")
# x86 SIMD surface: the intrinsics header, any _mm*_*() intrinsic call, or
# a __m128/__m256/__m512 vector type.
RE_SIMD = re.compile(
    r"immintrin\.h|\b_mm\w*_\w+\s*\(|\b__m(?:64|128|256|512)[a-z]*\b")
# Bare catch-all handler `catch (...)`.
RE_CATCH_ALL = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
# Atomic pointer publication: `std::atomic<T*>` (any pointee, cv or not).
RE_ATOMIC_PTR = re.compile(r"\bstd\s*::\s*atomic\s*<[^<>]*\*[^<>]*>")

RE_ALLOW = re.compile(
    r"//\s*sas-lint:\s*allow\(([^)\s]*)\)(?:\s*:\s*(\S.*))?")
RE_KEY_CONST = re.compile(
    r"inline\s+constexpr\s+const\s+char\s+(k\w+)\[\]\s*=\s*\"([^\"]*)\"")
RE_COMMENT_ONLY = re.compile(r"^\s*(//.*)?$")


def strip_comments(text):
    """Blanks out // and /* */ comment bodies, preserving line structure."""
    out = []
    i = 0
    n = len(text)
    in_block = False
    while i < n:
        ch = text[i]
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            in_block = True
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.violations = []

    def report(self, rel, lineno, rule, message):
        self.violations.append((rel, lineno, rule, message))

    def path(self, rel):
        return os.path.join(self.root, rel)

    def walk(self, top, suffixes):
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.path(top)):
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    full = os.path.join(dirpath, name)
                    found.append(os.path.relpath(full, self.root))
        return sorted(found)

    # -- allow escapes ------------------------------------------------------

    def collect_allows(self, rel, raw_lines):
        """Returns {line_number: set(rules)} of lines covered by an escape.

        A same-line escape covers its own line; an escape on a comment-only
        line covers the next non-comment line (so a multi-line rationale
        can sit between the escape and the code).
        """
        allowed = {}
        for idx, line in enumerate(raw_lines, 1):
            m = RE_ALLOW.search(line)
            if not m:
                continue
            rule, reason = m.group(1), m.group(2)
            if rule not in RULES:
                self.report(rel, idx, "allow-syntax",
                            f"allow names unknown rule '{rule}' "
                            f"(known: {', '.join(RULES)})")
                continue
            if not reason:
                self.report(rel, idx, "allow-syntax",
                            f"allow({rule}) without a reason — write "
                            f"'// sas-lint: allow({rule}): <why>'")
                continue
            target = idx
            if RE_COMMENT_ONLY.match(line):
                nxt = idx
                while nxt < len(raw_lines) and RE_COMMENT_ONLY.match(
                        raw_lines[nxt]):
                    nxt += 1
                target = nxt + 1
            allowed.setdefault(idx, set()).add(rule)
            allowed.setdefault(target, set()).add(rule)
        return allowed

    # -- pattern rules ------------------------------------------------------

    def check_patterns(self):
        src_files = self.walk("src", (".h", ".cc"))
        for rel in src_files:
            relu = rel.replace(os.sep, "/")
            with open(self.path(rel), encoding="utf-8") as f:
                text = f.read()
            raw_lines = text.splitlines()
            allowed = self.collect_allows(rel, raw_lines)
            stripped = strip_comments(text).splitlines()

            in_det_core = any(
                relu.startswith(f"src/{d}/") for d in DETERMINISM_DIRS)
            audited = relu in AUDITED_REINTERPRET_FILES
            timing_home = relu.startswith(TELEMETRY_HOME_PREFIX)

            rules_here = []
            if in_det_core:
                rules_here += [("raw-rand", RE_RAW_RAND),
                               ("unforked-rng", RE_UNFORKED_RNG)]
                if not timing_home:
                    rules_here.append(("wall-clock", RE_WALL_CLOCK))
            elif not timing_home:
                # Outside the deterministic core the clock read is not a
                # determinism bug, but it still belongs in the telemetry
                # facade — one auditable "who reads the clock" surface.
                rules_here.append(("timing-confined", RE_WALL_CLOCK))
            if not audited:
                rules_here.append(("reinterpret-cast", RE_REINTERPRET))
            if not relu.startswith(SIMD_HOME_PREFIX):
                rules_here.append(("simd-intrinsics", RE_SIMD))
            if not relu.startswith(ATOMIC_HOME_PREFIX):
                rules_here.append(("atomic-publication", RE_ATOMIC_PTR))
            rules_here.append(("catch-all", RE_CATCH_ALL))

            for idx, line in enumerate(stripped, 1):
                for rule, pattern in rules_here:
                    if not pattern.search(line):
                        continue
                    if rule in allowed.get(idx, ()):
                        continue
                    snippet = raw_lines[idx - 1].strip()
                    if rule == "reinterpret-cast":
                        msg = ("bare reinterpret_cast outside the audited "
                               "files "
                               f"({', '.join(AUDITED_REINTERPRET_FILES)}) — "
                               "use AsFlatCoords, std::bit_cast, or an "
                               f"allow with rationale: {snippet}")
                    elif rule == "simd-intrinsics":
                        msg = ("x86 intrinsics outside the SIMD facade "
                               f"({SIMD_HOME_PREFIX}*) — add a dispatched "
                               "kernel to core/simd.h instead, or carry a "
                               f"reasoned allow: {snippet}")
                    elif rule == "atomic-publication":
                        msg = ("raw std::atomic<T*> publication outside the "
                               f"serving tier ({ATOMIC_HOME_PREFIX}*) — "
                               "share state through serve/query_service.h "
                               "(epoch-reclaimed) or a mutex, or carry a "
                               f"reasoned allow: {snippet}")
                    elif rule == "catch-all":
                        msg = ("bare catch (...) outside an audited site — "
                               "catch the concrete exception types, or "
                               "carry '// sas-lint: allow(catch-all): "
                               f"<why>' on an audited boundary: {snippet}")
                    elif rule == "timing-confined":
                        msg = ("ambient clock read outside the telemetry "
                               f"facade ({TELEMETRY_HOME_PREFIX}*) — time "
                               "through telemetry::NowNs()/Span, or carry "
                               "a reasoned allow: " + snippet)
                    elif rule == "unforked-rng":
                        msg = ("seedless Rng in the deterministic core — "
                               "seed from config or derive via "
                               f"Fork/ForkSeed: {snippet}")
                    else:
                        msg = ("nondeterministic source in the "
                               f"deterministic core: {snippet}")
                    self.report(rel, idx, rule, msg)

    # -- canonical keys -----------------------------------------------------

    def check_keys(self):
        keys_path = self.path(KEYS_HEADER)
        if not os.path.isfile(keys_path):
            self.report(KEYS_HEADER, 1, "key-registered",
                        "canonical keys header missing")
            return
        with open(keys_path, encoding="utf-8") as f:
            keys_text = f.read()
        consts = [(m.group(1), m.group(2),
                   keys_text[:m.start()].count("\n") + 1)
                  for m in RE_KEY_CONST.finditer(keys_text)]
        if not consts:
            self.report(KEYS_HEADER, 1, "key-registered",
                        "no canonical key constants found (expected "
                        "'inline constexpr const char kX[] = \"...\"')")
            return

        impl_text = ""
        for rel in REGISTRY_IMPL_FILES:
            if os.path.isfile(self.path(rel)):
                with open(self.path(rel), encoding="utf-8") as f:
                    impl_text += f.read()

        doc_text = ""
        doc_path = self.path(KEYS_DOC)
        if os.path.isfile(doc_path):
            with open(doc_path, encoding="utf-8") as f:
                doc_text = f.read()

        for name, value, lineno in consts:
            if f"keys::{name}" not in impl_text:
                self.report(
                    KEYS_HEADER, lineno, "key-registered",
                    f"{name} (\"{value}\") is not referenced by the "
                    "registry implementation "
                    f"({', '.join(REGISTRY_IMPL_FILES)}) — register the "
                    "key or remove the constant")
            if f"`{value}" not in doc_text:
                self.report(
                    KEYS_HEADER, lineno, "key-documented",
                    f"{name} (\"{value}\") is not documented in "
                    f"{KEYS_DOC} — every canonical key needs a reference "
                    "entry")

    # -- CMake source list --------------------------------------------------

    def check_cmake_sources(self):
        cmake_path = self.path("CMakeLists.txt")
        if not os.path.isfile(cmake_path):
            self.report("CMakeLists.txt", 1, "cmake-sources",
                        "CMakeLists.txt missing")
            return
        with open(cmake_path, encoding="utf-8") as f:
            cmake_text = f.read()
        for rel in self.walk("src", (".cc",)):
            relu = rel.replace(os.sep, "/")
            if relu not in cmake_text:
                self.report(
                    rel, 1, "cmake-sources",
                    f"{relu} exists on disk but is not in the explicit "
                    "source list in CMakeLists.txt — it would silently "
                    "drop out of the build and every static check")

    # -- header self-containment -------------------------------------------

    def check_headers(self, cxx, jobs):
        headers = self.walk("src", (".h",))
        if not headers:
            return
        include_dir = self.path("src")

        def compile_one(rel):
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".cc", delete=False) as tu:
                include = rel.replace(os.sep, "/")[len("src/"):]
                tu.write(f'#include "{include}"\n')
                tu_path = tu.name
            try:
                proc = subprocess.run(
                    [cxx, "-std=c++20", "-fsyntax-only",
                     f"-I{include_dir}", tu_path],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True)
                return rel, proc.returncode, proc.stderr
            finally:
                os.unlink(tu_path)

        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            for rel, code, err in pool.map(compile_one, headers):
                if code != 0:
                    first = err.strip().splitlines()
                    self.report(
                        rel, 1, "header-self-contained",
                        "header does not compile in isolation: "
                        + (first[0] if first else "compiler error"))


def find_cxx(explicit):
    import shutil
    for cand in ([explicit] if explicit else []) + \
            [os.environ.get("CXX"), "c++", "g++", "clang++"]:
        if cand and shutil.which(cand):
            return shutil.which(cand)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--no-headers", action="store_true",
                    help="skip the header-self-contained rule")
    ap.add_argument("--cxx", default=None,
                    help="C++ compiler for header checks (default: $CXX, "
                         "c++, g++, clang++)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if not os.path.isdir(os.path.join(args.root, "src")):
        sys.stderr.write(f"error: no src/ under --root {args.root}\n")
        return 2

    linter = Linter(args.root)
    linter.check_patterns()
    linter.check_keys()
    linter.check_cmake_sources()
    if args.no_headers:
        pass
    else:
        cxx = find_cxx(args.cxx)
        if cxx is None:
            print("note: no C++ compiler found; skipping "
                  "header-self-contained")
        else:
            linter.check_headers(cxx, args.jobs)

    if linter.violations:
        for rel, lineno, rule, msg in sorted(linter.violations):
            print(f"{rel.replace(os.sep, '/')}:{lineno}: [{rule}] {msg}")
        print(f"FAIL: {len(linter.violations)} sas-lint violation(s)")
        return 1
    num_rules = len(RULES) - (1 if args.no_headers else 0)
    print(f"OK: sas-lint clean ({num_rules} rules over {args.root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
