"""Machinery shared by the project's static-analysis tools.

Two fixture-tested tools lint this tree:

  scripts/lint_bsld.py   line-level convention rules (raw-parse,
                         determinism, new-delete, ...)
  scripts/arch_check.py  architecture rules (include-graph layering,
                         cycles, orphan headers, API-contract audit)

Both share one suppression syntax, so a reader never has to know which
tool produced a finding to silence it:

    do_thing();  // bsld-lint: allow(<rule>): <why this one is fine>

or, alone on the line directly above the finding:

    // bsld-lint: allow(<rule>): <why this one is fine>
    do_thing();

The reason is mandatory; a malformed marker (unknown rule, missing
reason) is itself reported as `bad-suppression` and suppresses nothing.
Because the marker syntax is shared, this module owns the union of every
rule name both tools can emit — a suppression naming the *other* tool's
rule must not be flagged as malformed by the one currently running.
"""

import re

# C++ source the tools scan. Keys are directories relative to the repo
# root; lint_bsld.py and arch_check.py slice this set differently (e.g.
# arch layer rules only constrain src/).
SCAN_DIRS = ("src", "tests", "examples", "bench")
SUFFIXES = {".cpp", ".hpp"}
FIXTURES = "tests/lint_fixtures"

# Rule-name universe for suppression validation. Each tool applies only
# its own rules but must accept markers naming the other tool's.
LINT_RULES = frozenset({
    "raw-parse", "determinism", "new-delete", "catch-all", "pragma-once",
    "include-hygiene", "tsa-escape", "iostream", "eager-ingest",
    "config-one-way",
})
ARCH_RULES = frozenset({
    "layer-violation", "skip-interface", "include-cycle", "orphan-header",
    "missing-nodiscard", "noexcept-throws",
})
ALL_RULES = LINT_RULES | ARCH_RULES

SUPPRESS_RE = re.compile(
    r"//\s*bsld-lint:\s*allow\(([a-z-]+)\)\s*:\s*(\S.*)$")
SUPPRESS_HINT_RE = re.compile(r"bsld-lint\s*:")


class Finding:
    """One reported violation, printable as path:line: [rule] message."""

    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = (
            path, line, rule, message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literals space-filled.

    Line structure is preserved so line numbers in findings stay valid;
    the rules then only ever see code, never commented-out examples.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif ch == "R" and nxt == '"' and (i == 0 or not text[i - 1].isalnum()):
            close = text.find("(", i + 2)
            if close == -1:  # not actually a raw string
                out.append(ch)
                i += 1
                continue
            delim = ")" + text[i + 2 : close] + '"'
            end = text.find(delim, close + 1)
            end = n if end == -1 else end + len(delim)
            for j in range(i, end):
                out.append("\n" if text[j] == "\n" else " ")
            i = end
        elif ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def suppressions_for(raw_lines):
    """Maps covered line number -> set of rule names, plus malformed markers.

    Returns (covered, bad) where `bad` is a list of (line, message) for
    markers that name no known rule (from either tool) or lack a reason.
    A marker alone on its line covers the next line; a trailing marker
    covers its own line.
    """
    covered = {}
    bad = []
    for i, line in enumerate(raw_lines, 1):
        if not SUPPRESS_HINT_RE.search(line):
            continue
        match = SUPPRESS_RE.search(line)
        if not match or match.group(1) not in ALL_RULES:
            bad.append((i, "malformed bsld-lint comment — expected "
                          "`// bsld-lint: allow(<rule>): <reason>` with a "
                          "known rule and a non-empty reason"))
            continue
        rule = match.group(1)
        target = i + 1 if line.lstrip().startswith("//") else i
        covered.setdefault(target, set()).add(rule)
    return covered, bad


def expect_re(marker):
    """Fixture-marker regex: `// <marker>: rule[, rule]` (self-tests)."""
    return re.compile(
        r"//\s*" + re.escape(marker) + r":\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def collect_expected(root, files, marker):
    """Reads `// <marker>: rule` annotations: set of (path, line, rule)."""
    pattern = expect_re(marker)
    expected = set()
    for rel in files:
        text = (root / rel).read_text(encoding="utf-8")
        for i, line in enumerate(text.split("\n"), 1):
            match = pattern.search(line)
            if match:
                for rule in re.split(r"\s*,\s*", match.group(1)):
                    expected.add((rel, i, rule))
    return expected
