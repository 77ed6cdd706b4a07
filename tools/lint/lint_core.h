// memfp-lint v2: in-tree static analysis for the project's determinism and
// hygiene invariants — now a whole-program checker, not a line filter.
//
// The reproducibility contract (DESIGN.md "Threading model": byte-identical
// results at any thread/shard/SIMD-lane count, same seed => same Table II
// numbers) only holds if nobody reintroduces a nondeterminism source. v1
// blanked comments/literals and regex-matched each line, which made the
// most dangerous regressions invisible: a module-layering inversion, a
// shared accumulator mutated inside a `parallel_for` lambda, an Rng copied
// into a worker. v2 lexes every file into a token stream (lexer.h), builds
// a cross-TU project graph — include DAG over src/ plus a small symbol
// table (project_graph.h) — and checks rules against both.
//
// Rule catalog (see DESIGN.md "Static analysis v2"):
//
//   Per-file (token stream):
//   unseeded-random  rand()/srand()/std::random_device/std::mt19937 outside
//                    src/common/rng.* (scope: src/, tests/, bench/)
//   wall-clock       chrono clock ::now(), time(), gettimeofday(), clock()
//                    in model-affecting code (scope: src/)
//   bare-assert      assert() in library code — vanishes under NDEBUG; use
//                    MEMFP_CHECK / MEMFP_DCHECK (scope: src/)
//   naked-new        new / delete expressions; use std::make_unique and
//                    containers (scope: src/)
//   thread-spawn     std::thread construction outside the pool; all
//                    parallelism goes through common/thread_pool.h
//                    (scope: src/ except src/common/thread_pool.*)
//   pragma-once      every header starts with #pragma once
//                    (scope: src/, tests/, bench/)
//   banned-include   curated banned includes: <random>, <cassert>,
//                    <assert.h>, <ctime> in src/; <iostream> in src/
//                    headers (the logger owns the only stderr sink)
//   arch-intrinsics  intrinsic headers and raw _mm*/__m*/vld1/vst1 outside
//                    the src/common/simd* dispatch seam
//                    (scope: src/, tests/, bench/)
//
//   Cross-TU (project graph):
//   layering         the module DAG is law:
//                        common <- dram <- {sim, features} <- ml
//                               <- {core, mlops, baseline}
//                    a file may include its own module and strictly lower
//                    layers (plus the four sanctioned lateral edges:
//                    features->sim, core->baseline, mlops->core and
//                    core->mlops, the last header-only — memfp_mlops links
//                    memfp_core, never the reverse). Upward
//                    or unsanctioned sibling includes, unknown modules and
//                    include cycles are violations; cycle reports carry
//                    the offending include chain (scope: src/)
//   unordered-iter   range-for over a std::unordered_{map,set} declared in
//                    this file OR in any transitively included header (the
//                    symbol table crosses file boundaries); iteration
//                    order is unspecified, so it must not reach features,
//                    metrics or serialized output without an ordering step
//                    (scope: src/)
//   parallel-capture inside ThreadPool::parallel_for / parallel_for_chunks
//                    lambda bodies: writes (=, +=, ++,
//                    push_back, emplace_back, ...) to by-reference captures
//                    that are not indexed by the loop induction variable —
//                    the shape of every order-dependent race TSan can only
//                    catch dynamically (scope: src/ except thread_pool.*)
//   rng-discipline   Rng passed or copied by value (parameters, plain
//                    copies, lambda value captures), Rng constructed
//                    inside a parallel body instead of Rng::fork, and
//                    .fork() results discarded (scope: src/ except
//                    src/common/rng.*)
//
// Suppressions: a violation is waived by a comment on the same line or the
// line directly above:
//   // memfp-lint: allow(<rule>): <justification>
// The justification is mandatory (missing-justification otherwise), the
// rule name must exist (unknown-rule otherwise), and a suppression that
// matches no violation is itself reported (unused-allow), so stale waivers
// cannot accumulate.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "project_graph.h"

namespace memfp::lint {

struct Violation {
  std::string file;
  int line = 0;
  int col = 1;
  std::string rule;
  std::string message;
};

/// All rule names the suppression parser accepts.
const std::vector<std::string>& rule_names();

/// Lints a set of repo-relative (path, content) pairs as one program:
/// builds the project graph and runs every rule. Violations are sorted by
/// (file, line, col, rule).
std::vector<Violation> lint_files(
    std::vector<std::pair<std::string, std::string>> sources);

/// Runs every rule against an already-built graph (shared with the CLI so
/// `--graph` reuses the same parse).
std::vector<Violation> lint_graph(const ProjectGraph& graph);

/// Lints one translation unit in isolation (a single-file project graph).
/// `path` must be the repo-relative path (e.g. "src/ml/gbdt.cc") — rule
/// scoping keys off it; `content` is the file body.
std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view content);

/// Reads every .h/.cc under src/, tests/ and bench/ below `root`
/// (deterministic path order) as (repo-relative path, content) pairs.
std::vector<std::pair<std::string, std::string>> read_tree(
    const std::string& root);

/// read_tree + lint_files.
std::vector<Violation> lint_tree(const std::string& root);

/// "file:line:col: [rule] message" per violation, newline-terminated.
std::string format(const std::vector<Violation>& violations);

}  // namespace memfp::lint
