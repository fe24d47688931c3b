#!/usr/bin/env python3
"""CTest coverage for tools/qp_lint.py.

One fixture per rule: a violating snippet must be flagged with exactly its
rule ID, the same snippet carrying a `// qp-lint: allow(<rule>)` annotation
must pass, and a clean synthetic tree exits 0. Also pins the tokenizer
(violations inside comments/strings don't fire), the annotation-above form,
and the QPL000 unknown-rule-name diagnostic. QPL008 (unset-option) reads the
whole tree, so it gets its own fixture tree: one field never set, one set by
member assignment, one by a designated initializer, one by a nested
`.simplex.initial_basis =`, and one suppressed; a second tree checks that a
bare `struct Config` nested in a class is an option struct too. QPL009
(test-only-export) gets four trees around one header function: used only in
tests/ (flagged), also used in bench/ (clean), used only in its own .cpp
(flagged), and annotated (clean).

Usage: qp_lint_test.py <path-to-qp_lint.py>
"""

import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", file=sys.stderr)
    else:
        print(f"ok: {message}")


def run_lint(lint_script, root, *args):
    return subprocess.run(
        [sys.executable, str(lint_script), "--root", str(root), *args],
        capture_output=True,
        text=True,
    )


def write_tree(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# (fixture name, repo-relative path, violating snippet, rule id expected,
#  annotated variant that must pass)
CASES = [
    (
        "unordered-iter",
        "src/core/widget.cpp",
        "QPL001",
        """#include <unordered_map>
std::unordered_map<int, double> cache_;
double total() {
  double sum = 0.0;
  for (const auto& [k, v] : cache_) sum += v;
  return sum;
}
""",
        """#include <unordered_map>
std::unordered_map<int, double> cache_;
double total() {
  double sum = 0.0;
  // qp-lint: allow(unordered-iter) -- sum is order-independent up to fp assoc
  for (const auto& [k, v] : cache_) sum += v;
  return sum;
}
""",
    ),
    (
        "nondeterministic-rng",
        "src/sim/jitter.cpp",
        "QPL002",
        """#include <random>
double jitter() {
  std::mt19937 gen{std::random_device{}()};
  return 0.0;
}
""",
        """#include <random>
double jitter() {
  std::mt19937 gen{std::random_device{}()};  // qp-lint: allow(nondeterministic-rng)
  return 0.0;
}
""",
    ),
    (
        "fp-accumulation",
        "src/core/accumulate.cpp",
        "QPL003",
        """#include <numeric>
#include <vector>
double total(const std::vector<double>& xs) {
  return std::reduce(xs.begin(), xs.end());
}
""",
        """#include <numeric>
#include <vector>
double total(const std::vector<double>& xs) {
  // qp-lint: allow(fp-accumulation)
  return std::reduce(xs.begin(), xs.end());
}
""",
    ),
    (
        "naked-assert",
        "src/core/guard.cpp",
        "QPL004",
        """#include <cassert>
void guard(int x) { assert(x > 0); }
""",
        """#include <cassert>
void guard(int x) { assert(x > 0); }  // qp-lint: allow(naked-assert)
""",
    ),
    (
        "hot-path-sync",
        "src/core/hot_counter.cpp",
        "QPL007",
        """#include <atomic>
std::atomic<unsigned long> candidates_{0};
void tally() { candidates_.fetch_add(1, std::memory_order_relaxed); }
""",
        """#include <atomic>
// qp-lint: allow(hot-path-sync) -- seqlock handoff, not telemetry; audited
std::atomic<unsigned long> candidates_{0};
void tally() {
  // qp-lint: allow(hot-path-sync)
  candidates_.fetch_add(1, std::memory_order_relaxed);
}
""",
    ),
    (
        "parity-reference",
        "src/core/delta_eval_fast.cpp",
        "QPL006",
        """void repair() { /* fast path without any parity audit */ }
""",
        """// qp-lint: allow(parity-reference) -- scaffolding split off the audited file
void repair() { /* fast path without any parity audit */ }
""",
    ),
]

UNSET_OPTION_TREE = {
    "src/core/widget.hpp": """#pragma once
struct InnerOptions {
  int initial_basis = 0;
};
struct WidgetOptions {
  double never_set = 1'000.0;
  int member_set = 1;
  int designated_set = 2;
  InnerOptions simplex{};
  int suppressed = 3;  // qp-lint: allow(unset-option) -- read by plugins
  [[nodiscard]] bool ok() const noexcept { return member_set > 0; }
  static constexpr int kNotAField = 4;
};
// An assignment in the field's own header does not count.
inline void reset(WidgetOptions& options) { options.never_set = 0.0; }
""",
    "src/core/widget.cpp": """#include "core/widget.hpp"
double read(const WidgetOptions& options) { return options.never_set; }
""",
    "tests/widget_test.cpp": """#include "core/widget.hpp"
bool use() {
  WidgetOptions options;
  options.member_set = 5;
  options.simplex.initial_basis = 3;
  const WidgetOptions designated{.designated_set = 7};
  return options.never_set == 2.0 && designated.ok();
}
""",
    # A production caller of the header's functions keeps QPL009 quiet.
    "bench/widget_bench.cpp": """#include "core/widget.hpp"
bool bench() {
  WidgetOptions options;
  reset(options);
  return options.ok();
}
""",
}

# QPL009: gadget_score is the export under test. The private member, the
# detail-namespace helper, the constructor and the operator are never
# flagged, and neither is gadget_size, which bench/ calls.
GADGET_HEADER = """#pragma once
namespace qp::core {
namespace detail {
int hidden_helper(int x);
}  // namespace detail
class Gadget {
 public:
  explicit Gadget(int size);
  [[nodiscard]] int gadget_size() const noexcept { return size_; }
  bool operator==(const Gadget& other) const = default;
 private:
  int private_helper() const;
  int size_ = 0;
};
%s[[nodiscard]] double gadget_score(const Gadget& gadget);
}  // namespace qp::core
"""
GADGET_CPP = """#include "core/gadget.hpp"
namespace qp::core {
Gadget::Gadget(int size) : size_{detail::hidden_helper(size)} {}
int Gadget::private_helper() const { return size_; }
double gadget_score(const Gadget& gadget) { return gadget.gadget_size() * 0.5; }
%s}  // namespace qp::core
"""
GADGET_TEST = """#include "core/gadget.hpp"
double use() { return qp::core::gadget_score(qp::core::Gadget{3}); }
"""
GADGET_BENCH = """#include "core/gadget.hpp"
// gadget_score is not called here: a comment does not count.
int bench() { return qp::core::Gadget{4}.gadget_size(); }
%s"""


def gadget_tree(annotation="", own_cpp_use="", bench_use=""):
    return {
        "src/core/gadget.hpp": GADGET_HEADER % annotation,
        "src/core/gadget.cpp": GADGET_CPP % own_cpp_use,
        "tests/gadget_test.cpp": GADGET_TEST,
        "bench/gadget_bench.cpp": GADGET_BENCH % bench_use,
    }

NESTED_CONFIG_TREE = {
    "src/core/index.hpp": """#pragma once
class Index {
 public:
  struct Config {
    int cap = 0;
    double margin = 1.25;
  };
};
""",
    "src/core/index_user.cpp": """#include "core/index.hpp"
int use() {
  Index::Config config;
  config.cap = 4;
  return config.cap;
}
""",
}

CLEAN_TREE = {
    "src/core/clean.cpp": """#include <map>
#include "common/check.hpp"
// std::rand in a comment must not fire, nor "std::random_device" in a string.
const char* label() { return "std::random_device"; }
std::map<int, double> ordered_;
double total() {
  double sum = 0.0;
  for (const auto& [k, v] : ordered_) sum += v;
  QP_CHECK(sum >= 0.0, "sums of non-negatives");
  return sum;
}
""",
    "src/common/rng.cpp": """// The rng module itself may reference std::random_device etc.
#include <random>
unsigned hardware_entropy() { return std::random_device{}(); }
""",
    "tests/lookup_test.cpp": """#include <unordered_set>
// Iterating an unordered container in *tests* is out of scope for QPL001.
std::unordered_set<int> seen;
int count() { int n = 0; for (int x : seen) n += x; return n; }
""",
    "src/core/delta_eval.cpp": """#include "common/check.hpp"
void apply_move() {
  QP_PARITY_ASSERT(1.0, 1.0, 1e-9, "repaired objective vs fresh evaluation");
}
""",
}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lint_script = Path(argv[1]).resolve()
    check(lint_script.is_file(), f"lint script exists at {lint_script}")

    # --list-rules names every documented rule.
    listing = subprocess.run(
        [sys.executable, str(lint_script), "--list-rules"], capture_output=True, text=True
    )
    for rule_id in ("QPL001", "QPL002", "QPL003", "QPL004", "QPL006", "QPL007", "QPL008",
                    "QPL009"):
        check(rule_id in listing.stdout, f"--list-rules mentions {rule_id}")

    for name, rel, rule_id, violating, annotated in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_tree(root, rel, violating)
            result = run_lint(lint_script, root)
            check(result.returncode == 1, f"{name}: violating snippet exits 1")
            check(rule_id in result.stdout, f"{name}: finding carries {rule_id}")
            check(rel in result.stdout.replace(str(root) + "/", ""),
                  f"{name}: finding names {rel}")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_tree(root, rel, annotated)
            result = run_lint(lint_script, root)
            check(
                result.returncode == 0,
                f"{name}: annotated snippet passes (got {result.returncode}: "
                f"{result.stdout.strip()})",
            )

    # QPL008: only the never-set field is flagged, on its own line.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in UNSET_OPTION_TREE.items():
            write_tree(root, rel, text)
        result = run_lint(lint_script, root)
        findings = [line for line in result.stdout.splitlines() if "QPL008" in line]
        check(result.returncode == 1, "unset-option: never-set field exits 1")
        check(
            len(findings) == 1 and "WidgetOptions::never_set" in findings[0]
            and "widget.hpp:6:" in findings[0],
            f"unset-option: exactly the never-set field is flagged (got {findings})",
        )
        for name in ("member_set", "designated_set", "simplex", "initial_basis",
                     "suppressed", "kNotAField", "::ok"):
            check(name not in result.stdout, f"unset-option: {name} is not flagged")

    # A nested `struct Config` (no name prefix) is scanned like WidgetOptions.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in NESTED_CONFIG_TREE.items():
            write_tree(root, rel, text)
        result = run_lint(lint_script, root)
        findings = [line for line in result.stdout.splitlines() if "QPL008" in line]
        check(
            result.returncode == 1 and len(findings) == 1
            and "Config::margin" in findings[0] and "index.hpp:6:" in findings[0],
            f"unset-option: the nested Config's never-set field is flagged (got {findings})",
        )

    # QPL009: a header function that only tests/ calls is flagged, on the
    # line that declares it; nothing else in the header is.
    def lint_gadget(**variant):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for rel, text in gadget_tree(**variant).items():
                write_tree(root, rel, text)
            result = run_lint(lint_script, root)
            return result, [line for line in result.stdout.splitlines() if "QPL009" in line]

    result, findings = lint_gadget()
    check(
        result.returncode == 1 and len(findings) == 1
        and "gadget.hpp:15:" in findings[0] and "gadget_score" in findings[0],
        f"test-only-export: a function only tests/ calls is flagged (got {findings})",
    )
    result, findings = lint_gadget(bench_use="double score() { return qp::core::gadget_score("
                                             "qp::core::Gadget{5}); }\n")
    check(
        result.returncode == 0 and not findings,
        f"test-only-export: a use in bench/ makes it clean (got {result.stdout.strip()})",
    )
    result, findings = lint_gadget(own_cpp_use="double twice(const Gadget& g) { "
                                               "return 2.0 * gadget_score(g); }\n")
    check(
        result.returncode == 1 and len(findings) == 1 and "gadget_score" in findings[0],
        f"test-only-export: a use in its own .cpp does not count (got {findings})",
    )
    result, findings = lint_gadget(
        annotation="// qp-lint: allow(test-only-export) -- tests pin the scoring rule\n")
    check(
        result.returncode == 0 and not findings,
        f"test-only-export: the annotated form passes (got {result.stdout.strip()})",
    )

    # A clean synthetic tree (with the real exemptions exercised) exits 0.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in CLEAN_TREE.items():
            write_tree(root, rel, text)
        result = run_lint(lint_script, root)
        check(
            result.returncode == 0,
            f"clean tree exits 0 (got {result.returncode}: {result.stdout.strip()})",
        )

    # Unknown rule names in annotations are QPL000 and cannot be suppressed.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tree(
            root,
            "src/core/bad.cpp",
            "// qp-lint: allow(definitely-not-a-rule)\nint x = 0;\n",
        )
        result = run_lint(lint_script, root)
        check(result.returncode == 1, "unknown allow-name exits 1")
        check("QPL000" in result.stdout, "unknown allow-name reports QPL000")

    # Explicit file arguments lint just those files.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bad = write_tree(root, "src/core/guard.cpp", "void g(int x) { assert(x); }\n")
        write_tree(root, "src/core/other.cpp", "void h(int x) { assert(x); }\n")
        result = run_lint(lint_script, root, str(bad))
        check(result.returncode == 1, "explicit file list: finding detected")
        check("other.cpp" not in result.stdout, "explicit file list: others untouched")

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed", file=sys.stderr)
        return 1
    print("all qp-lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
