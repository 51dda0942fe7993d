#!/usr/bin/env python3
"""Project-invariant linter for the tsunami digital-twin repository.

Enforces repo-specific contracts that no generic analyzer expresses:

  atomic-explicit-order   Every std::atomic load/store/RMW/CAS names an
                          explicit std::memory_order (or a project alias such
                          as `relaxed`). Defaulted seq_cst hides intent and
                          cost.
  atomic-mo-comment       Every atomic operation carries a `// mo:` rationale
                          comment on the same line or within the preceding
                          MO_COMMENT_RADIUS lines (one comment covers a
                          cluster). The rationale is what reviewers and the
                          docs/atomics.md audit table read.
  atomic-seq-cst          memory_order_seq_cst requires a documented
                          exemption (exemptions.txt) or an inline allow: the
                          default fence is either a bug or a deliberate,
                          explained choice (the pool's idle protocol).
  hot-path-alloc          No heap allocation (`new`, malloc family) or
                          container growth (push_back/resize/reserve/...)
                          inside a function annotated TSUNAMI_HOT_PATH.
                          Grow-once workspace sites carry an inline allow.
  hot-path-lock           No std::mutex/lock_guard/unique_lock/scoped_lock/
                          condition_variable inside TSUNAMI_HOT_PATH bodies.
  nondeterminism          No rand()/srand()/time()/clock()/std::random_device
                          in src/: all randomness flows through the seeded
                          util/rng.hpp Rng so every run is replayable.
  workspace-pairing       Any `apply*` method that takes a workspace
                          parameter must keep a legacy overload without it
                          (the workspace-less API routes through thread_local
                          scratch; dropping it silently breaks callers).

Inline suppression (same line or the line directly above the violation):

    code();  // lint: allow(rule-id) one-line why

File-level exemptions live in tools/lint/exemptions.txt (rule, path, reason).

Usage:
    lint.py --root REPO_ROOT                 # lint src/, exit 1 on violations
    lint.py --root REPO_ROOT --write-atomics-doc   # regenerate docs/atomics.md
    lint.py --root REPO_ROOT --check-atomics-doc   # fail if the doc is stale

Run as a CTest (`lint_project`, `lint_atomics_doc`); self-tested by
tools/lint/test_lint.py over the fixtures/ corpus.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

MO_COMMENT_RADIUS = 8  # lines above an atomic op a `// mo:` comment covers

ATOMIC_OPS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)

# Bare identifiers the project uses as memory_order aliases (e.g.
# service_telemetry.hpp's `static constexpr auto relaxed = ...`).
ORDER_ALIASES = {"relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst"}

ALLOC_TOKENS = [
    (r"\bnew\b", "operator new"),
    (r"\bmalloc\s*\(", "malloc"),
    (r"\bcalloc\s*\(", "calloc"),
    (r"\brealloc\s*\(", "realloc"),
    (r"\.\s*push_back\s*\(", "push_back"),
    (r"\.\s*emplace_back\s*\(", "emplace_back"),
    (r"\.\s*emplace\s*\(", "emplace"),
    (r"\.\s*resize\s*\(", "resize"),
    (r"\.\s*reserve\s*\(", "reserve"),
    (r"\.\s*insert\s*\(", "insert"),
    (r"\.\s*assign\s*\(", "assign"),
    (r"\.\s*append\s*\(", "append"),
]

LOCK_TOKENS = [
    (r"\bstd\s*::\s*mutex\b", "std::mutex"),
    (r"\bstd\s*::\s*shared_mutex\b", "std::shared_mutex"),
    (r"\block_guard\b", "lock_guard"),
    (r"\bunique_lock\b", "unique_lock"),
    (r"\bshared_lock\b", "shared_lock"),
    (r"\bscoped_lock\b", "scoped_lock"),
    (r"\bcondition_variable\b", "condition_variable"),
    (r"\bpthread_mutex_\w+\s*\(", "pthread_mutex"),
]

NONDET_TOKENS = [
    (r"\brand\s*\(\s*\)", "rand()"),
    (r"\bsrand\s*\(", "srand()"),
    (r"\bstd\s*::\s*random_device\b", "std::random_device"),
    (r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|\))", "time()"),
    (r"(?<![\w:])clock\s*\(\s*\)", "clock()"),
]

HOT_PATH_MACRO = "TSUNAMI_HOT_PATH"
ALLOW_RE = re.compile(r"lint:\s*allow\(([a-z0-9-]+)\)")
MO_COMMENT_RE = re.compile(r"//.*\bmo:")


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving every
    newline and column position, so regexes see only code."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def line_of(text: str, index: int) -> int:
    """1-based line number of a character index."""
    return text.count("\n", 0, index) + 1


def balanced_span(text: str, open_index: int) -> int:
    """Index one past the parenthesis/brace that closes text[open_index]."""
    opener = text[open_index]
    closer = {"(": ")", "{": "}", "[": "]"}[opener]
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class FileLint:
    """One source file's text, stripped view, and suppression lookups."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.stripped = strip_code(text)
        self.raw_lines = text.splitlines()
        self.stripped_lines = self.stripped.splitlines()

    def allowed(self, rule: str, line: int) -> bool:
        """Inline allow on the violation line or the line directly above."""
        for ln in (line, line - 1):
            if 1 <= ln <= len(self.raw_lines):
                for m in ALLOW_RE.finditer(self.raw_lines[ln - 1]):
                    if m.group(1) == rule:
                        return True
        return False

    def has_mo_comment(self, line: int) -> bool:
        lo = max(1, line - MO_COMMENT_RADIUS)
        return any(
            MO_COMMENT_RE.search(self.raw_lines[ln - 1])
            for ln in range(lo, line + 1)
            if ln <= len(self.raw_lines)
        )

    def mo_comment_text(self, line: int) -> str:
        """Rationale text of the covering `// mo:` comment (nearest above)."""
        lo = max(1, line - MO_COMMENT_RADIUS)
        for ln in range(line, lo - 1, -1):
            if ln > len(self.raw_lines):
                continue
            m = re.search(r"//.*?\bmo:\s*(.*)", self.raw_lines[ln - 1])
            if m:
                return m.group(1).strip()
        return ""


class AtomicSite:
    def __init__(self, path: str, line: int, expr: str, op: str, order: str,
                 rationale: str):
        self.path = path
        self.line = line
        self.expr = expr
        self.op = op
        self.order = order
        self.rationale = rationale


def preprocessor_line(fl: FileLint, line: int) -> bool:
    return fl.stripped_lines[line - 1].lstrip().startswith("#") if (
        1 <= line <= len(fl.stripped_lines)) else False


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

ATOMIC_OP_RE = re.compile(
    r"\.\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")


def scan_atomics(fl: FileLint):
    """Yield (violations, sites) for the three atomic-* rules."""
    violations: list[Violation] = []
    sites: list[AtomicSite] = []
    for m in ATOMIC_OP_RE.finditer(fl.stripped):
        op = m.group(1)
        line = line_of(fl.stripped, m.start())
        # `.load(` etc. on non-atomic types would need an inline allow; the
        # repo keeps atomics in dedicated modules, so in practice every match
        # is an atomic op.
        open_idx = fl.stripped.index("(", m.end() - 1)
        close = balanced_span(fl.stripped, open_idx)
        args = fl.stripped[open_idx + 1 : close - 1]
        orders = re.findall(r"memory_order_(\w+)", args)
        if not orders:
            orders = [w for w in re.findall(r"[A-Za-z_]\w*", args)
                      if w in ORDER_ALIASES]
        # Object expression for the audit table: identifier chain before '.'.
        head = fl.stripped[: m.start()]
        om = re.search(r"[\w\]\)]+(?:(?:\.|->)\w+|\[[^\[\]]*\])*$", head)
        expr = (om.group(0) if om else "?") + "." + op

        if not orders:
            if not fl.allowed("atomic-explicit-order", line):
                violations.append(Violation(
                    "atomic-explicit-order", fl.path, line,
                    f"{expr}(...) without an explicit std::memory_order"))
            order_text = "(default seq_cst)"
        else:
            order_text = ", ".join(orders)

        if not fl.has_mo_comment(line) and not fl.allowed(
                "atomic-mo-comment", line):
            violations.append(Violation(
                "atomic-mo-comment", fl.path, line,
                f"{expr}(...) lacks a `// mo:` rationale comment within "
                f"{MO_COMMENT_RADIUS} lines"))

        if "seq_cst" in orders and not fl.allowed("atomic-seq-cst", line):
            violations.append(Violation(
                "atomic-seq-cst", fl.path, line,
                f"{expr}(...) uses memory_order_seq_cst (document the "
                "exemption or weaken the order)"))

        sites.append(AtomicSite(fl.path, line, expr, op, order_text,
                                fl.mo_comment_text(line)))
    return violations, sites


def hot_path_bodies(fl: FileLint):
    """Yield (start_index, end_index) of each TSUNAMI_HOT_PATH function body
    (skips pure declarations and preprocessor lines)."""
    for m in re.finditer(r"\b%s\b" % HOT_PATH_MACRO, fl.stripped):
        line = line_of(fl.stripped, m.start())
        if preprocessor_line(fl, line):
            continue
        i = m.end()
        depth = 0
        while i < len(fl.stripped):
            c = fl.stripped[i]
            if c == "(":
                i = balanced_span(fl.stripped, i)
                continue
            if c == ";" and depth == 0:
                break  # declaration only
            if c == "{":
                yield i, balanced_span(fl.stripped, i)
                break
            i += 1


def scan_hot_paths(fl: FileLint):
    violations: list[Violation] = []
    for start, end in hot_path_bodies(fl):
        body = fl.stripped[start:end]
        for tokens, rule in ((ALLOC_TOKENS, "hot-path-alloc"),
                             (LOCK_TOKENS, "hot-path-lock")):
            for pattern, label in tokens:
                for m in re.finditer(pattern, body):
                    line = line_of(fl.stripped, start + m.start())
                    if fl.allowed(rule, line):
                        continue
                    violations.append(Violation(
                        rule, fl.path, line,
                        f"{label} inside a {HOT_PATH_MACRO} function"))
    return violations


def scan_nondeterminism(fl: FileLint):
    violations: list[Violation] = []
    for pattern, label in NONDET_TOKENS:
        for m in re.finditer(pattern, fl.stripped):
            line = line_of(fl.stripped, m.start())
            if fl.allowed("nondeterminism", line):
                continue
            violations.append(Violation(
                "nondeterminism", fl.path, line,
                f"{label}: route randomness/time through the seeded Rng / "
                "Stopwatch modules"))
    return violations


WORKSPACE_DECL_RE = re.compile(r"\b(apply\w*)\s*\(")


def scan_workspace_pairing(fl: FileLint):
    """Header-only rule: every ws-taking `apply*` needs a legacy overload."""
    variants: dict[str, dict[str, bool | int]] = {}
    for m in WORKSPACE_DECL_RE.finditer(fl.stripped):
        name = m.group(1)
        if "impl" in name:
            continue  # private implementation detail, no public pairing
        open_idx = fl.stripped.index("(", m.end() - 1)
        close = balanced_span(fl.stripped, open_idx)
        args = fl.stripped[open_idx + 1 : close - 1]
        takes_ws = re.search(r"\bWorkspace\s*&", args) is not None
        entry = variants.setdefault(name, {"ws": False, "legacy": False,
                                           "line": line_of(fl.stripped,
                                                           m.start())})
        if takes_ws:
            entry["ws"] = True
        else:
            entry["legacy"] = True
    violations: list[Violation] = []
    for name, entry in sorted(variants.items()):
        if entry["ws"] and not entry["legacy"]:
            line = int(entry["line"])
            if fl.allowed("workspace-pairing", line):
                continue
            violations.append(Violation(
                "workspace-pairing", fl.path, line,
                f"{name} has a workspace overload but no legacy overload "
                "routing through thread_local scratch"))
    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_exemptions(path: Path):
    """Parse exemptions.txt: `rule  path-glob  reason...` per line."""
    exemptions: list[tuple[str, str, str]] = []
    if not path.exists():
        return exemptions
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise SystemExit(
                f"{path}:{lineno}: exemption needs `rule path reason`")
        exemptions.append((parts[0], parts[1], parts[2]))
    return exemptions


def exempt(violation: Violation, exemptions) -> bool:
    return any(
        rule == violation.rule and fnmatch.fnmatch(violation.path, pattern)
        for rule, pattern, _ in exemptions)


def source_files(root: Path):
    src = root / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in (".hpp", ".cpp"))


def lint_file(fl: FileLint, is_header: bool):
    violations, sites = scan_atomics(fl)
    violations += scan_hot_paths(fl)
    violations += scan_nondeterminism(fl)
    if is_header:
        violations += scan_workspace_pairing(fl)
    return violations, sites


def lint_tree(root: Path):
    exemptions = load_exemptions(root / "tools" / "lint" / "exemptions.txt")
    all_violations: list[Violation] = []
    all_sites: list[AtomicSite] = []
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        fl = FileLint(rel, path.read_text())
        violations, sites = lint_file(fl, path.suffix == ".hpp")
        all_violations += [v for v in violations if not exempt(v, exemptions)]
        all_sites += sites
    return all_violations, all_sites


def atomics_doc(sites, exemptions) -> str:
    """Render docs/atomics.md from the scanned atomic sites. Rows are unique
    (file, expr, order, rationale) in first-appearance order, so the table is
    stable under unrelated line churn."""
    lines = [
        "# Atomic memory-order audit",
        "",
        "Every atomic operation in `src/`, its explicit `std::memory_order`,",
        "and the `// mo:` rationale recorded at the call site. Generated by",
        "`python3 tools/lint/lint.py --root . --write-atomics-doc`; the",
        "`lint_atomics_doc` CTest fails when this table is stale, so the doc",
        "is always in sync with the code.",
        "",
        "The pool's idle protocol in `src/parallel/thread_pool.cpp`",
        "(`signals`, `spinning`, `sleepers`) uses `seq_cst` by documented",
        "exemption (see `tools/lint/exemptions.txt`): its store-then-load",
        "pairs need it, because a submitter and a worker going idle must not",
        "both miss each other's store.",
        "",
        "| File | Operation | Order | Rationale |",
        "|---|---|---|---|",
    ]
    seen = set()
    for s in sites:
        rationale = s.rationale or "(covered by inline allow)"
        key = (s.path, s.expr, s.order, rationale)
        if key in seen:
            continue
        seen.add(key)
        expr = s.expr.replace("|", "\\|")
        rationale = rationale.replace("|", "\\|")
        lines.append(f"| `{s.path}` | `{expr}` | {s.order} | {rationale} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve()
                        .parents[2], help="repository root (contains src/)")
    parser.add_argument("--write-atomics-doc", action="store_true",
                        help="regenerate docs/atomics.md and exit")
    parser.add_argument("--check-atomics-doc", action="store_true",
                        help="fail if docs/atomics.md is out of date")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint.py: no src/ under {root}", file=sys.stderr)
        return 2

    violations, sites = lint_tree(root)
    exemptions = load_exemptions(root / "tools" / "lint" / "exemptions.txt")
    doc_path = root / "docs" / "atomics.md"

    if args.write_atomics_doc:
        doc_path.parent.mkdir(parents=True, exist_ok=True)
        doc_path.write_text(atomics_doc(sites, exemptions))
        print(f"wrote {doc_path}")
        return 0

    if args.check_atomics_doc:
        expected = atomics_doc(sites, exemptions)
        actual = doc_path.read_text() if doc_path.exists() else ""
        if actual != expected:
            print("docs/atomics.md is stale; regenerate with\n"
                  "    python3 tools/lint/lint.py --root . --write-atomics-doc",
                  file=sys.stderr)
            return 1
        print("docs/atomics.md is in sync")
        return 0

    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} violation(s). Fix, add an inline "
              "`// lint: allow(rule) why`, or record a file exemption in "
              "tools/lint/exemptions.txt.", file=sys.stderr)
        return 1
    print(f"lint: OK ({len(sites)} atomic sites audited)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
