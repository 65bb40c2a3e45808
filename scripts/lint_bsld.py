#!/usr/bin/env python3
"""Project lint for the bsld tree (CI job `lint`, ctest `tools.lint`).

Checks the project conventions that neither the compiler nor clang-tidy
can express, over src/, tests/, examples/ and bench/:

  raw-parse        Raw numeric conversions (std::stod/stoi/atof/strtol
                   and friends) accept trailing garbage and throw types
                   nothing upstream catches. Every user-facing input path
                   must go through util::parse (src/util/parse.cpp is the
                   one place allowed to touch the raw primitives).
  determinism      src/sim, src/core and src/pm must stay bit-reproducible: no
                   rand()/srand(), no std::random_device, no wall-clock
                   reads (std::chrono::system_clock, time(), clock(),
                   gettimeofday). Randomness comes from util::rng with an
                   explicit seed; "time" means simulation time.
  new-delete       No naked `new`/`delete` expressions — ownership lives
                   in unique_ptr/shared_ptr/containers. (`= delete` and
                   std::default_delete are not naked delete.)
  catch-all        A `catch (...)` block must rethrow (`throw;`), capture
                   std::current_exception() for a later rethrow, or end
                   the process; silently swallowing every exception hides
                   real failures.
  pragma-once      Every header uses `#pragma once` (the include-guard
                   convention of this tree).
  include-hygiene  No `"../"` relative includes (all paths are rooted at
                   src/); a .cpp with a sibling header of the same stem
                   includes it first, so headers stay self-contained.
  tsa-escape       BSLD_NO_THREAD_SAFETY_ANALYSIS disables the clang
                   thread-safety proof for a function; every use must
                   carry a comment (same or preceding line) saying why.
  iostream         Library code under src/ must not include <iostream>:
                   diagnostics go through util::log, payload output goes
                   through the sinks/CSV writers. The CLI/daemon entry
                   points that legitimately own stdout/stderr carry a
                   suppression naming that fact.
  eager-ingest     src/ outside src/workload (where it is defined) must
                   not call wl::load_source(): every execution path pulls
                   jobs through wl::open_stream()/JobStream one submit
                   ahead of the clock, so a materialized trace
                   (O(jobs) memory) can never sneak back into a run.

The architecture-level rules (include-graph layering, cycles, orphan
headers, [[nodiscard]]/noexcept API contracts) live in the sibling tool
scripts/arch_check.py; both share the suppression machinery in
scripts/bsld_lint_common.py.

Suppression — one finding at a time, never blanket, reason mandatory:

    do_thing();  // bsld-lint: allow(<rule>): <why this one is fine>

or, when the line is too long, alone on the line directly above:

    // bsld-lint: allow(<rule>): <why this one is fine>
    do_thing();

A `bsld-lint:` comment that is malformed (unknown rule, missing reason)
is itself reported (`bad-suppression`) and suppresses nothing.

Usage:
    scripts/lint_bsld.py              lint the tree; exit 1 on findings
    scripts/lint_bsld.py --self-test  run over tests/lint_fixtures and
                                      compare against lint-expect markers
    scripts/lint_bsld.py --list-rules describe every rule
"""

import argparse
import re
import sys
from pathlib import Path

from bsld_lint_common import (
    FIXTURES,
    LINT_RULES,
    SCAN_DIRS,
    SUFFIXES,
    SUPPRESS_HINT_RE,
    Finding,
    collect_expected,
    expect_re,
    strip_comments_and_strings,
    suppressions_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
# arch_check.py owns its own fixture subtree (planted *architecture*
# violations, annotated with arch-expect markers); this tool's self-test
# must not interpret those files.
ARCH_FIXTURES = "arch/"

# ---------------------------------------------------------------------------
# Rules. A rule is a function (path, raw_lines, code_lines, code_text)
# -> [(line, message)]; `path` is relative to the scan root with forward
# slashes.
# ---------------------------------------------------------------------------

RAW_PARSE_RE = re.compile(
    r"(?:\bstd::|(?<![\w:.]))"
    r"(sto[dfil]|stoll|stold|stoul|stoull|atof|atoi|atol|atoll"
    r"|strto(?:d|f|ld|l|ll|ul|ull|imax|umax))\s*\("
)

DETERMINISM_RE = re.compile(
    r"\bstd::random_device\b|\bstd::chrono::system_clock\b"
    r"|(?<![\w:.>])(rand|srand|gettimeofday|clock|time)\s*\("
)

NEW_RE = re.compile(r"(?<![\w:])new\b")
DELETE_RE = re.compile(r"(?<![\w:])delete\b(\s*\[\s*\])?")
CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
IOSTREAM_RE = re.compile(r'^\s*#\s*include\s*[<"]iostream[>"]')
TSA_ESCAPE = "BSLD_NO_THREAD_SAFETY_ANALYSIS"
EAGER_INGEST_RE = re.compile(r"(?<![\w:])(?:wl::|workload::)?load_source\s*\(")


def rule_raw_parse(path, raw, code, text):
    if path == "src/util/parse.cpp":  # the one sanctioned implementation site
        return []
    findings = []
    for i, line in enumerate(code, 1):
        match = RAW_PARSE_RE.search(line)
        if match:
            findings.append(
                (i, f"raw numeric conversion `{match.group(1)}` — "
                    "use util::parse_*/require_* (util/parse.hpp)"))
    return findings


def rule_determinism(path, raw, code, text):
    if not (path.startswith("src/sim/") or path.startswith("src/core/")
            or path.startswith("src/pm/")):
        return []
    findings = []
    for i, line in enumerate(code, 1):
        match = DETERMINISM_RE.search(line)
        if match:
            what = match.group(1) or match.group(0)
            findings.append(
                (i, f"nondeterminism source `{what}` in simulation code — "
                    "seed util::rng explicitly; use simulation time"))
    return findings


def rule_new_delete(path, raw, code, text):
    findings = []
    for i, line in enumerate(code, 1):
        if NEW_RE.search(line):
            findings.append(
                (i, "naked `new` — own it with make_unique/make_shared"))
        for match in DELETE_RE.finditer(line):
            before = line[: match.start()].rstrip()
            if before.endswith("="):  # deleted special member, not a delete-expr
                continue
            findings.append(
                (i, "naked `delete` — let a smart pointer own the object"))
    return findings


def rule_catch_all(path, raw, code, text):
    findings = []
    for match in CATCH_ALL_RE.finditer(text):
        open_brace = text.find("{", match.end())
        if open_brace == -1:
            continue
        depth, j = 1, open_brace + 1
        while j < len(text) and depth > 0:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        body = text[open_brace:j]
        line = text.count("\n", 0, match.start()) + 1
        if not re.search(r"\bthrow\b|\bcurrent_exception\b|\b_exit\b"
                         r"|\babort\b|\bexit\b|\bterminate\b", body):
            findings.append(
                (line, "catch (...) swallows every exception — rethrow, "
                       "capture std::current_exception(), or die loudly"))
    return findings


def rule_pragma_once(path, raw, code, text):
    if not path.endswith(".hpp"):
        return []
    if any(line.lstrip().startswith("#pragma once") for line in code):
        return []
    return [(1, "header without `#pragma once`")]


def rule_include_hygiene(path, raw, code, text):
    findings = []
    for i, line in enumerate(raw, 1):
        match = INCLUDE_RE.match(line)
        if match and "../" in match.group(1):
            findings.append(
                (i, f'relative include "{match.group(1)}" — include '
                    "paths are rooted at src/"))
    return findings


def rule_iostream(path, raw, code, text):
    # Library code only: tests, benches and examples own their stdout.
    if not path.startswith("src/"):
        return []
    findings = []
    for i, line in enumerate(code, 1):
        if IOSTREAM_RE.match(line):
            findings.append(
                (i, "#include <iostream> in library code — diagnostics go "
                    "through util::log; only CLI/daemon entry points may "
                    "own std::cout/cerr (suppress with the reason)"))
    return findings


def rule_own_header_first(scan_root, path, raw, findings_out):
    # Part of include-hygiene, needs filesystem context: a .cpp whose
    # sibling <stem>.hpp exists must include it before anything else, so
    # every header is proven self-contained by its own translation unit.
    file_path = scan_root / path
    if file_path.suffix != ".cpp":
        return
    sibling = file_path.with_suffix(".hpp")
    if not sibling.exists():
        return
    for i, line in enumerate(raw, 1):
        match = INCLUDE_RE.match(line)
        if match:
            if Path(match.group(1)).name != sibling.name:
                findings_out.append(Finding(
                    path, i, "include-hygiene",
                    f"first include must be the file's own header "
                    f'"{sibling.name}" (keeps headers self-contained)'))
            return


def rule_eager_ingest(path, raw, code, text):
    # Every run pulls jobs through wl::JobStream one submit ahead of the
    # clock; materializing a whole trace anywhere in the library would
    # silently reintroduce O(jobs) memory on the million-job path.
    # src/workload defines load_source() on top of the streams.
    if not path.startswith("src/") or path.startswith("src/workload/"):
        return []
    findings = []
    for i, line in enumerate(code, 1):
        if EAGER_INGEST_RE.search(line):
            findings.append(
                (i, "load_source() materializes the whole trace — pull "
                    "jobs through wl::open_stream()/JobStream (callers "
                    "that need a vector materialize outside src/)"))
    return findings


def rule_tsa_escape(path, raw, code, text):
    if path == "src/util/thread_annotations.hpp":  # the definition site
        return []
    findings = []
    lint_expect = expect_re("lint-expect")

    def justifies(comment):
        # A lint directive/marker is not an explanation.
        return not (lint_expect.search(comment)
                    or SUPPRESS_HINT_RE.search(comment))

    for i, line in enumerate(code, 1):
        if TSA_ESCAPE not in line:
            continue
        trailing = raw[i - 1].split(TSA_ESCAPE, 1)[1]
        same = "//" in trailing and justifies(trailing)
        prev_line = raw[i - 2].lstrip() if i >= 2 else ""
        prev = prev_line.startswith("//") and justifies(prev_line)
        if not (same or prev):
            findings.append(
                (i, f"{TSA_ESCAPE} without a justifying comment on the "
                    "same or preceding line"))
    return findings


RULES = {
    "raw-parse": (rule_raw_parse,
                  "raw std::stod/stoi/atof/strtol-family calls outside "
                  "src/util/parse.cpp"),
    "determinism": (rule_determinism,
                    "rand()/std::random_device/wall-clock reads in src/sim, "
                    "src/core and src/pm"),
    "new-delete": (rule_new_delete,
                   "naked new/delete expressions anywhere in the tree"),
    "catch-all": (rule_catch_all,
                  "catch (...) blocks that swallow instead of rethrowing, "
                  "capturing, or dying"),
    "pragma-once": (rule_pragma_once,
                    "headers missing #pragma once"),
    "include-hygiene": (rule_include_hygiene,
                        '"../" relative includes; own header not included '
                        "first"),
    "tsa-escape": (rule_tsa_escape,
                   "BSLD_NO_THREAD_SAFETY_ANALYSIS uses without a comment "
                   "explaining why"),
    "iostream": (rule_iostream,
                 "#include <iostream> in library code under src/ (use "
                 "util::log; entry points suppress with a reason)"),
    "eager-ingest": (rule_eager_ingest,
                     "wl::load_source() call sites in src/ outside "
                     "src/workload — every run ingests jobs through the "
                     "streaming JobStream window"),
}

assert set(RULES) == set(LINT_RULES), (
    "rule list out of sync with bsld_lint_common.LINT_RULES")


def lint_file(scan_root, path):
    raw_text = (scan_root / path).read_text(encoding="utf-8")
    raw_lines = raw_text.split("\n")
    code_text = strip_comments_and_strings(raw_text)
    code_lines = code_text.split("\n")

    covered, bad = suppressions_for(raw_lines)
    findings = [Finding(path, line, "bad-suppression", msg)
                for line, msg in bad]
    for rule_name, (rule_fn, _) in RULES.items():
        for line, message in rule_fn(path, raw_lines, code_lines, code_text):
            if rule_name in covered.get(line, ()):
                continue
            findings.append(Finding(path, line, rule_name, message))
    rule_own_header_first(scan_root, path, raw_lines, findings)
    findings = [f for f in findings
                if not (f.rule in covered.get(f.line, ())
                        and f.rule != "bad-suppression")]
    return findings


def collect_files(scan_root, include_fixtures):
    files = []
    for sub in SCAN_DIRS if scan_root == REPO_ROOT else ("",):
        base = scan_root / sub if sub else scan_root
        if not base.is_dir():
            continue
        for file_path in sorted(base.rglob("*")):
            if file_path.suffix not in SUFFIXES:
                continue
            rel = file_path.relative_to(scan_root).as_posix()
            if not include_fixtures and rel.startswith(FIXTURES):
                continue
            if include_fixtures and rel.startswith(ARCH_FIXTURES):
                continue  # arch_check.py's fixtures, not ours
            files.append(rel)
    return files


def run_lint(scan_root, include_fixtures=False):
    findings = []
    for rel in collect_files(scan_root, include_fixtures):
        findings.extend(lint_file(scan_root, rel))
    return findings


def self_test():
    """Lints tests/lint_fixtures and diffs against lint-expect markers."""
    root = REPO_ROOT / FIXTURES
    if not root.is_dir():
        print(f"lint_bsld: fixtures directory {root} missing", file=sys.stderr)
        return 1
    files = collect_files(root, include_fixtures=True)
    expected = collect_expected(root, files, "lint-expect")
    actual = {(f.path, f.line, f.rule) for f in run_lint(
        root, include_fixtures=True)}
    missing = expected - actual
    surprise = actual - expected
    for rel, line, rule in sorted(missing):
        print(f"self-test: expected [{rule}] at {rel}:{line}, not reported")
    for rel, line, rule in sorted(surprise):
        print(f"self-test: unexpected [{rule}] at {rel}:{line}")
    if missing or surprise:
        print(f"lint_bsld --self-test: FAIL "
              f"({len(missing)} missing, {len(surprise)} unexpected)")
        return 1
    print(f"lint_bsld --self-test: OK ({len(expected)} planted findings "
          f"all reported, suppressed lines all quiet)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="bsld project lint (see module docstring)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint tests/lint_fixtures against its "
                             "lint-expect markers")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to lint (default: the repo)")
    args = parser.parse_args()

    if args.list_rules:
        width = max(len(name) for name in RULES) + 2
        for name, (_, description) in RULES.items():
            print(f"{name:<{width}}{description}")
        print(f"{'bad-suppression':<{width}}malformed bsld-lint comments "
              "(reported, never suppressing)")
        print("\nsuppression: // bsld-lint: allow(<rule>): <reason>   "
              "(same line, or alone on the line above)")
        return 0

    if args.self_test:
        return self_test()

    findings = run_lint(args.root.resolve())
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_bsld: {len(findings)} finding(s)")
        return 1
    print("lint_bsld: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
