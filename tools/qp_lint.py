#!/usr/bin/env python3
"""qp-lint: the project determinism linter.

Encodes the reproducibility invariants this codebase depends on — bit-identical
results for any QP_THREADS, delta engines provably equal to fresh rebuilds,
all randomness flowing through common/rng — as mechanical lint rules over
src/, tests/, and bench/. Regex + a lightweight C++ tokenizer (comment and
string stripping), no compiler needed.

Rules (ID / name / scope):
  QPL001 unordered-iter     src,bench  Iterating std::unordered_{map,set}
                                       produces implementation-defined order;
                                       result-producing code must use ordered
                                       containers or index loops.
  QPL002 nondeterministic-rng  all     std::rand / std::random_device /
                                       std::mt19937 & friends vary across
                                       stdlibs or runs; use common/rng (Rng).
                                       (src/common/rng.* itself is exempt.)
  QPL003 fp-accumulation    src,bench  std::reduce / std::transform_reduce /
                                       std::atomic<double|float> accumulate
                                       floating point in nondeterministic
                                       order; reduce serially into
                                       index-addressed slots instead.
  QPL004 naked-assert       src        Bare assert() arms by build type
                                       (NDEBUG); use QP_CHECK /
                                       QP_CHECK_EQ_EPS / QP_PARITY_ASSERT
                                       from common/check.hpp, leveled by
                                       QP_CHECK_LEVEL. (static_assert is
                                       fine; common/check.hpp is exempt.)
  QPL005 omp-pragma         all        #pragma omp is allowed only in
                                       common/simd_kernels.hpp (pragma-only
                                       `omp simd`, no runtime threads).
  QPL006 parity-reference   src        Every DeltaEvaluator fast-path file
                                       (src/**/delta_eval*.cpp) must carry a
                                       QP_PARITY_ASSERT reference so the
                                       level-2 audit cannot silently vanish.
  QPL007 hot-path-sync      src/core, src/lp, src/sim
                                       Direct std::atomic / mutex /
                                       condition_variable use in the compute
                                       layers; telemetry belongs in the obs::
                                       thread-local shard API (src/obs), and
                                       real synchronization belongs in
                                       common/thread_pool.
  QPL008 unset-option       src/**/*.hpp
                                       A field of a struct <Name>Options /
                                       <Name>Config / <Name>Policy (the
                                       name prefix may be empty, as in a
                                       nested `struct Config`) that no
                                       file other than its header assigns (`.f =`, `->f =`,
                                       `.f{`, nested `.f.g =`, or a
                                       designated `.f =`) anywhere under
                                       src/, bench/, examples/, perfbench/ or
                                       tests/. A setting with one value in
                                       use is a constant. Matching is by
                                       name only, so the rule can miss a
                                       field but never flags a set one.
  QPL000 bad-annotation     all        An allow-annotation naming an unknown
                                       rule (never suppressible).

Suppression: a finding is allowed by an annotation naming its rule, either
trailing the offending line or on the line directly above it:

    // qp-lint: allow(unordered-iter)  -- why this iteration is order-safe
    for (const auto& [name, table] : cache_) ...

For the file-scoped QPL006 the annotation may sit anywhere in the file.
Annotations must carry valid rule names; several rules separated by commas
are accepted: `// qp-lint: allow(unordered-iter, fp-accumulation)`.

Usage:
    qp_lint.py [--root DIR] [--list-rules] [file ...]

With no files, scans src/ tests/ bench/ under --root (default: the
repository root containing this tools/ directory). QPL008 checks the
headers among the linted files, and always looks for assignments in the
whole tree under --root. Exit status: 0 clean,
1 findings, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

EXTENSIONS = {".cpp", ".cc", ".hpp", ".h"}
SCAN_DIRS = ("src", "tests", "bench")
# Where QPL008 looks for code that sets an option field.
ASSIGN_DIRS = ("src", "bench", "examples", "perfbench", "tests")

ANNOTATION_RE = re.compile(r"qp-lint:\s*allow\(([^)]*)\)")


class Finding:
    def __init__(self, path, line, rule_id, rule_name, message):
        self.path = path
        self.line = line
        self.rule_id = rule_id
        self.rule_name = rule_name
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule_id} [{self.rule_name}] {self.message}"


def is_digit_separator(text, i):
    """True when the quote at text[i] sits inside a number literal (C++14
    digit separator, `1'000.0`) rather than opening a char literal (which a
    prefix such as `u8'a'` or `L'a'` may precede)."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def split_code_and_comments(text):
    """Returns (code_lines, comment_lines): per-line source with comments and
    string/char literal *contents* blanked out of the code, and the comment
    text collected separately (so annotations are read from comments only).
    Handles //, /* */, "...", '...', R"delim(...)delim" raw strings, and
    digit separators (`1'000`)."""
    code = []
    comments = []
    code_line = []
    comment_line = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""

    def flush():
        code.append("".join(code_line))
        comments.append("".join(comment_line))
        code_line.clear()
        comment_line.clear()

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            flush()
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == "R" and nxt == '"':
                m = re.match(r'R"([^()\\ \n]*)\(', text[i:])
                if m:
                    raw_terminator = ")" + m.group(1) + '"'
                    code_line.append('R""')
                    state = "raw"
                    i += m.end()
                    continue
            if ch == '"':
                code_line.append('"')
                state = "string"
                i += 1
                continue
            if ch == "'" and not is_digit_separator(text, i):
                code_line.append("'")
                state = "char"
                i += 1
                continue
            code_line.append(ch)
            i += 1
        elif state == "line_comment":
            comment_line.append(ch)
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                comment_line.append(ch)
                i += 1
        elif state == "string":
            if ch == "\\":
                i += 2
            elif ch == '"':
                code_line.append('"')
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "char":
            if ch == "\\":
                i += 2
            elif ch == "'":
                code_line.append("'")
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "raw":
            if text.startswith(raw_terminator, i):
                code_line.append('""')
                state = "code"
                i += len(raw_terminator)
            else:
                i += 1
    flush()
    return code, comments


class FileScan:
    """One linted file: stripped code, comment text, and allow-annotations."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel  # repo-relative posix path, used for scoping
        self.code, self.comments = split_code_and_comments(text)
        # line number (1-based) -> set of allowed rule names on that line.
        self.allows = {}
        self.bad_annotations = []  # (line, bad-name)
        for lineno, comment in enumerate(self.comments, start=1):
            for match in ANNOTATION_RE.finditer(comment):
                names = {name.strip() for name in match.group(1).split(",") if name.strip()}
                for name in names:
                    if name not in RULE_NAMES:
                        self.bad_annotations.append((lineno, name))
                self.allows.setdefault(lineno, set()).update(names & RULE_NAMES)

    def allowed(self, lineno, rule_name):
        """An annotation suppresses findings on its own line and the next."""
        return rule_name in self.allows.get(lineno, set()) or rule_name in self.allows.get(
            lineno - 1, set()
        )

    def allowed_anywhere(self, rule_name):
        return any(rule_name in names for names in self.allows.values())


def in_dirs(rel, *dirs):
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


# --- rules -----------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<.*>[&\s]*(\w+)\s*[;={(,)]"
)
UNORDERED_TYPE_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*([A-Za-z_]\w*(?:\.\w+|->\w+)*)\s*\)")
# Only begin()/cbegin(): an iteration necessarily starts there, whereas
# end() alone also appears in benign `find(...) != end()` membership tests.
BEGIN_END_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
RNG_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b|\brandom_device\s+\w|"
    r"\bstd::mt19937(?:_64)?\b|\bstd::default_random_engine\b|\bstd::minstd_rand"
)
FP_ACCUM_RE = re.compile(
    r"\bstd::(?:transform_)?reduce\b|\bstd::atomic\s*<\s*(?:double|float|long\s+double)\b"
)
NAKED_ASSERT_RE = re.compile(r"(?<![\w_])(?<!static_)assert\s*\(")
OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\b")
HOT_SYNC_RE = re.compile(
    r"\bstd::(?:atomic(?:_ref|_flag)?\s*<|atomic_flag\b|"
    r"(?:recursive_|timed_|shared_)*mutex\b|"
    r"lock_guard\b|unique_lock\b|scoped_lock\b|shared_lock\b|"
    r"condition_variable(?:_any)?\b|call_once\b|once_flag\b|"
    r"atomic_(?:load|store|exchange|fetch_add|fetch_sub|thread_fence)\b)"
)


def rule_unordered_iter(scan):
    if not in_dirs(scan.rel, "src", "bench"):
        return
    tracked = set()
    for code in scan.code:
        for match in UNORDERED_DECL_RE.finditer(code):
            tracked.add(match.group(1))
    for lineno, code in enumerate(scan.code, start=1):
        hit = None
        for match in RANGE_FOR_RE.finditer(code):
            target = match.group(1).split(".")[-1].split("->")[-1]
            if target in tracked:
                hit = f"range-for over unordered container '{match.group(1)}'"
        # A range-for over a freshly named unordered type on the same line.
        if hit is None and UNORDERED_TYPE_RE.search(code) and RANGE_FOR_RE.search(code):
            hit = "range-for over an unordered container"
        if hit is None:
            for match in BEGIN_END_RE.finditer(code):
                if match.group(1) in tracked:
                    hit = f"iterator walk of unordered container '{match.group(1)}'"
        if hit:
            yield lineno, (
                f"{hit}: iteration order is implementation-defined and breaks "
                "bit-reproducibility; use an ordered container, an index loop, or "
                "annotate why the order cannot reach results"
            )


def rule_nondeterministic_rng(scan):
    if scan.rel.startswith("src/common/rng."):
        return
    for lineno, code in enumerate(scan.code, start=1):
        if RNG_RE.search(code):
            yield lineno, (
                "nondeterministically-seeded or stdlib-dependent RNG; all randomness "
                "must flow through common/rng (qp::common::Rng, fixed 64-bit seeds)"
            )


def rule_fp_accumulation(scan):
    if not in_dirs(scan.rel, "src", "bench"):
        return
    for lineno, code in enumerate(scan.code, start=1):
        if FP_ACCUM_RE.search(code):
            yield lineno, (
                "unordered floating-point accumulation (std::reduce / std::atomic "
                "float): reduction order must be deterministic — accumulate into "
                "index-addressed slots and reduce serially (see common/thread_pool)"
            )


def rule_naked_assert(scan):
    if not in_dirs(scan.rel, "src") or scan.rel == "src/common/check.hpp":
        return
    for lineno, code in enumerate(scan.code, start=1):
        if NAKED_ASSERT_RE.search(code):
            yield lineno, (
                "naked assert() arms by build type; use QP_CHECK / QP_CHECK_EQ_EPS / "
                "QP_PARITY_ASSERT from common/check.hpp (leveled by QP_CHECK_LEVEL)"
            )


def rule_omp_pragma(scan):
    if scan.rel == "src/common/simd_kernels.hpp":
        return
    for lineno, code in enumerate(scan.code, start=1):
        if OMP_PRAGMA_RE.search(code):
            yield lineno, (
                "#pragma omp outside common/simd_kernels.hpp: OpenMP threading is "
                "banned (determinism flows through common/thread_pool); pragma-only "
                "`omp simd` lives in simd_kernels.hpp exclusively"
            )


def rule_parity_reference(scan):
    if not in_dirs(scan.rel, "src"):
        return
    name = scan.rel.rsplit("/", 1)[-1]
    if not (name.startswith("delta_eval") and name.endswith(".cpp")):
        return
    if not any("QP_PARITY_ASSERT" in code for code in scan.code):
        yield 1, (
            "DeltaEvaluator fast-path file has no QP_PARITY_ASSERT reference: every "
            "incremental engine must audit itself against a fresh evaluation at "
            "QP_CHECK_LEVEL=2"
        )


def rule_hot_path_sync(scan):
    if not in_dirs(scan.rel, "src/core", "src/lp", "src/sim"):
        return
    for lineno, code in enumerate(scan.code, start=1):
        if HOT_SYNC_RE.search(code):
            yield lineno, (
                "direct synchronization primitive in a compute layer: counters and "
                "gauges must go through the obs:: thread-local shard API (obs/metrics), "
                "and thread coordination through common/thread_pool — a stray atomic "
                "here is either hidden telemetry that skews the overhead budget or a "
                "determinism hazard"
            )


OPTION_STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Options|Config|Policy))\s*(?:final\s*)?\{")
# `.f =` / `->f =` (not `==`), compound assignment, `.f{`, and chains such as
# `.f.g =` or `.f[i] =`; every name in the chain counts as set.
ASSIGNMENT_RE = re.compile(
    r"(?:\.|->)\s*(\w+)((?:\s*(?:\.|->)\s*\w+|\s*\[[^\]\n]*\])*)"
    r"\s*(?:=(?!=)|(?:[-+*/%&|^]|<<|>>)=|\{)"
)
NOT_A_FIELD_RE = re.compile(
    r"^(?:static|using|friend|typedef|enum|struct|class|union|template|"
    r"public|private|protected)\b"
)


def top_level_statements(body):
    """Splits a struct body into (offset, text) statements at brace depth 0:
    a `;` ends one, and so does the `}` closing a member function or nested
    type definition (which need no `;`)."""
    statements = []
    start = 0
    depth = 0
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                head = body[start:i]
                if "(" in head.split("{", 1)[0] or NOT_A_FIELD_RE.match(head.strip()):
                    statements.append((start, body[start : i + 1]))
                    start = i + 1
        elif ch == ";" and depth == 0:
            statements.append((start, body[start:i]))
            start = i + 1
    return statements


def field_name(statement):
    """The declared name of a data-member statement, or None for methods,
    types, static members and access labels."""
    text = re.sub(r"\[\[.*?\]\]", "", statement).strip()
    text = re.sub(r"^(?:public|private|protected)\s*:", "", text).strip()
    if not text or NOT_A_FIELD_RE.match(text):
        return None
    # The declarator ends at a top-level `=` or brace initializer.
    angle = 0
    declarator = text
    for i, ch in enumerate(text):
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle -= 1
        elif angle == 0 and ch in "={":
            declarator = text[:i]
            break
        elif angle == 0 and ch == "(":
            return None  # A member function.
    match = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", declarator.strip())
    return match.group(1) if match else None


def option_fields(scan):
    """(line, struct, field) for every data member of an option struct."""
    text = "\n".join(scan.code)
    for match in OPTION_STRUCT_RE.finditer(text):
        open_brace = match.end() - 1
        depth = 0
        for close in range(open_brace, len(text)):
            if text[close] == "{":
                depth += 1
            elif text[close] == "}":
                depth -= 1
                if depth == 0:
                    break
        body = text[open_brace + 1 : close]
        for offset, statement in top_level_statements(body):
            name = field_name(statement)
            if name is None:
                continue
            at = open_brace + 1 + offset + statement.index(name)
            yield text.count("\n", 0, at) + 1, match.group(1), name


def assigned_names(root):
    """field name -> repo-relative files that assign a member of that name."""
    names = {}
    for directory in ASSIGN_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if not (path.is_file() and path.suffix in EXTENSIONS):
                continue
            rel = path.relative_to(root).as_posix()
            code, _ = split_code_and_comments(path.read_text(encoding="utf-8", errors="replace"))
            for match in ASSIGNMENT_RE.finditer("\n".join(code)):
                for name in [match.group(1), *re.findall(r"\w+", match.group(2))]:
                    names.setdefault(name, set()).add(rel)
    return names


def rule_unset_option(scans, root):
    """Tree-scoped: yields (scan, line, message) for option fields that no
    file other than their own header sets."""
    headers = [
        s for s in scans if in_dirs(s.rel, "src") and s.rel.endswith((".hpp", ".h"))
    ]
    if not headers:
        return
    assigned = assigned_names(root)
    for scan in headers:
        for lineno, struct, field in option_fields(scan):
            if assigned.get(field, set()) - {scan.rel}:
                continue
            yield scan, lineno, (
                f"{struct}::{field} is never set outside its header: a setting with "
                "one value in use is a constant — move it into the .cpp that reads "
                "it, or annotate why callers need the knob"
            )


RULES = [
    ("QPL001", "unordered-iter", rule_unordered_iter, False),
    ("QPL002", "nondeterministic-rng", rule_nondeterministic_rng, False),
    ("QPL003", "fp-accumulation", rule_fp_accumulation, False),
    ("QPL004", "naked-assert", rule_naked_assert, False),
    ("QPL005", "omp-pragma", rule_omp_pragma, False),
    ("QPL006", "parity-reference", rule_parity_reference, True),  # file-scoped
    ("QPL007", "hot-path-sync", rule_hot_path_sync, False),
]
# Rules that read the whole tree: rule(scans, root) yields (scan, line, message).
TREE_RULES = [
    ("QPL008", "unset-option", rule_unset_option),
]
RULE_NAMES = {name for _, name, _, _ in RULES} | {name for _, name, _ in TREE_RULES}


def lint_file(path, root):
    """Returns the file's scan and its per-file findings."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        raise SystemExit(f"qp-lint: cannot read {path}: {error}")
    scan = FileScan(path, rel, text)
    findings = []
    for lineno, bad in scan.bad_annotations:
        findings.append(
            Finding(
                path,
                lineno,
                "QPL000",
                "bad-annotation",
                f"allow-annotation names unknown rule '{bad}' "
                f"(known: {', '.join(sorted(RULE_NAMES))})",
            )
        )
    for rule_id, rule_name, rule, file_scoped in RULES:
        for lineno, message in rule(scan) or ():
            suppressed = (
                scan.allowed_anywhere(rule_name)
                if file_scoped
                else scan.allowed(lineno, rule_name)
            )
            if not suppressed:
                findings.append(Finding(path, lineno, rule_id, rule_name, message))
    return scan, findings


def lint_tree(scans, root):
    findings = []
    for rule_id, rule_name, rule in TREE_RULES:
        for scan, lineno, message in rule(scans, root):
            if not scan.allowed(lineno, rule_name):
                findings.append(Finding(scan.path, lineno, rule_id, rule_name, message))
    return findings


def collect_files(root, explicit):
    if explicit:
        return [Path(f) for f in explicit]
    files = []
    for directory in SCAN_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        files.extend(
            p for p in sorted(base.rglob("*")) if p.is_file() and p.suffix in EXTENSIONS
        )
    return files


def main(argv):
    parser = argparse.ArgumentParser(prog="qp-lint", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the parent of tools/)",
    )
    parser.add_argument("--list-rules", action="store_true", help="print rules and exit")
    parser.add_argument("files", nargs="*", help="lint only these files")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_name, _, file_scoped in RULES:
            scope = "file" if file_scoped else "line"
            print(f"{rule_id}  {rule_name}  ({scope}-scoped)")
        for rule_id, rule_name, _ in TREE_RULES:
            print(f"{rule_id}  {rule_name}  (tree-scoped)")
        return 0

    if not args.root.is_dir():
        print(f"qp-lint: --root {args.root} is not a directory", file=sys.stderr)
        return 2

    findings = []
    scans = []
    files = collect_files(args.root, args.files)
    for path in files:
        scan, file_findings = lint_file(path, args.root)
        scans.append(scan)
        findings.extend(file_findings)
    findings.extend(lint_tree(scans, args.root))

    for finding in findings:
        print(finding)
    if findings:
        print(
            f"qp-lint: {len(findings)} finding(s) in {len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"qp-lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
