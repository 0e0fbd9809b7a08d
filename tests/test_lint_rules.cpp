// Fixture tests for tools/mbtls-lint: drive the real binary over
// tools/lint/fixtures/ and assert the exact finding set. The fixtures keep
// their expected file:line pairs stable (documented inline), so any rule
// regression — missed finding or new false positive — fails here.
//
// The analyzer's internals (lexer, CFG builder, taint dataflow) are also
// unit-tested in-process: tests/CMakeLists.txt compiles tools/lint's
// sources into this binary.
//
// MBTLS_LINT_BIN and MBTLS_LINT_FIXTURES are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cfg.h"
#include "dataflow.h"
#include "lexer.h"
#include "rules.h"

namespace {

using namespace mbtls::lint;

struct LintRun {
  int exit_code = -1;
  std::vector<std::string> lines;  // stdout, one finding per line

  bool has(const std::string& file_suffix, int line, const std::string& rule) const {
    const std::string needle =
        file_suffix + ":" + std::to_string(line) + ": " + rule + ":";
    for (const auto& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  int count_mentioning(const std::string& needle) const {
    int n = 0;
    for (const auto& l : lines) {
      if (l.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

  std::string joined() const {
    std::string all;
    for (const auto& l : lines) all += l + "\n";
    return all;
  }
};

LintRun run_lint(const std::string& args) {
  LintRun out;
  const std::string cmd = std::string(MBTLS_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  std::string text;
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    text.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::istringstream iss(text);
  std::string line;
  while (std::getline(iss, line)) {
    if (!line.empty()) out.lines.push_back(line);
  }
  return out;
}

const std::string kFixtures = MBTLS_LINT_FIXTURES;

TEST(LintRules, BadFixturesTripEveryRuleAtDocumentedLines) {
  const LintRun run = run_lint(kFixtures);
  ASSERT_EQ(run.exit_code, 1) << "violations must exit nonzero";

  // secret-compare: memcmp, variable-time equal(), operator== on secrets.
  EXPECT_TRUE(run.has("src/crypto/bad_compare.cpp", 11, "secret-compare"));
  EXPECT_TRUE(run.has("src/crypto/bad_compare.cpp", 17, "secret-compare"));
  EXPECT_TRUE(run.has("src/crypto/bad_compare.cpp", 21, "secret-compare"));

  // secret-wipe: annotated local and name-pattern member, never wiped.
  EXPECT_TRUE(run.has("src/crypto/bad_wipe.cpp", 9, "secret-wipe"));
  EXPECT_TRUE(run.has("src/crypto/bad_wipe.cpp", 14, "secret-wipe"));

  // partial-read: Reader/Parser without expect_end() or annotation.
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 24, "partial-read"));
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 29, "partial-read"));

  // banned-fn: strcpy, sprintf, raw new[] in parser code, rand.
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 33, "banned-fn"));
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 35, "banned-fn"));
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 40, "banned-fn"));
  EXPECT_TRUE(run.has("src/tls/bad_parser.cpp", 44, "banned-fn"));

  // nondet-test: srand + wall-clock seed, rand(), random_device.
  EXPECT_TRUE(run.has("tests/bad_nondet.cpp", 10, "nondet-test"));
  EXPECT_TRUE(run.has("tests/bad_nondet.cpp", 11, "nondet-test"));
  EXPECT_TRUE(run.has("tests/bad_nondet.cpp", 15, "nondet-test"));
  // srand/rand in tests also trip banned-fn.
  EXPECT_TRUE(run.has("tests/bad_nondet.cpp", 10, "banned-fn"));
  EXPECT_TRUE(run.has("tests/bad_nondet.cpp", 11, "banned-fn"));

  // trace-no-secret: raw secret and key byte handed to a trace emitter.
  EXPECT_TRUE(run.has("src/tls/bad_trace.cpp", 15, "trace-no-secret"));
  EXPECT_TRUE(run.has("src/tls/bad_trace.cpp", 16, "trace-no-secret"));

  // queue-no-secret: raw key material posted/submitted to a worker queue.
  EXPECT_TRUE(run.has("src/util/bad_queue.cpp", 15, "queue-no-secret"));
  EXPECT_TRUE(run.has("src/util/bad_queue.cpp", 16, "queue-no-secret"));

  // secret-escape: secrets laundered through neutrally-named locals — a
  // direct member copy and a flow through a call summary. Invisible to the
  // name-based trace/queue rules.
  EXPECT_TRUE(run.has("src/mbtls/bad_escape.cpp", 26, "secret-escape"));
  EXPECT_TRUE(run.has("src/mbtls/bad_escape.cpp", 29, "secret-escape"));

  // wipe-all-paths: the happy path wipes (so the old secret-wipe heuristic
  // is satisfied) but an early return leaks — only path-sensitivity sees it.
  EXPECT_TRUE(run.has("src/crypto/bad_wipe_paths.cpp", 16, "wipe-all-paths"));
  for (const auto& l : run.lines) {
    if (l.find("bad_wipe_paths.cpp") != std::string::npos) {
      EXPECT_EQ(l.find("secret-wipe:"), std::string::npos)
          << "the old heuristic must NOT catch this fixture — that is the point: " << l;
    }
  }

  // wipe-all-paths on SIMD locals: a secret-named __m128i in an
  // intrinsic-including file is an owning buffer; the early return leaks it.
  EXPECT_TRUE(run.has("src/crypto/bad_wipe_simd.cpp", 15, "wipe-all-paths"));

  // dangling-span: member store, container store, use-after-recycle, and a
  // returned view into a reusable scratch buffer.
  EXPECT_TRUE(run.has("src/mbtls/bad_span.cpp", 24, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_span.cpp", 25, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_span.cpp", 27, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_span.cpp", 31, "dangling-span"));

  // dangling-span on reader views: a next_view() result escaping into a
  // member, a container and a return, and used after the reader's next feed.
  EXPECT_TRUE(run.has("src/mbtls/bad_reader_view.cpp", 28, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_reader_view.cpp", 29, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_reader_view.cpp", 31, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_reader_view.cpp", 36, "dangling-span"));

  // dangling-span on consume() callback views: stored into a member and a
  // container inside the callback, and used after the call returned.
  EXPECT_TRUE(run.has("src/mbtls/bad_consume_view.cpp", 28, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_consume_view.cpp", 29, "dangling-span"));
  EXPECT_TRUE(run.has("src/mbtls/bad_consume_view.cpp", 33, "dangling-span"));

  // Lexer stress: the violation after raw strings / digit separators /
  // comment continuations is still caught, and nothing inside them is.
  EXPECT_TRUE(run.has("src/tls/bad_lexer_stress.cpp", 20, "trace-no-secret"));

  // The exact finding multiset: 10 on time(nullptr) doubles the srand line.
  EXPECT_EQ(run.count_mentioning("bad_compare.cpp"), 3);
  EXPECT_EQ(run.count_mentioning("bad_wipe.cpp"), 2);
  EXPECT_EQ(run.count_mentioning("bad_parser.cpp"), 6);
  EXPECT_EQ(run.count_mentioning("bad_nondet.cpp"), 6);
  EXPECT_EQ(run.count_mentioning("bad_trace.cpp"), 2);
  EXPECT_EQ(run.count_mentioning("bad_queue.cpp"), 2);
  EXPECT_EQ(run.count_mentioning("bad_escape.cpp"), 2);
  EXPECT_EQ(run.count_mentioning("bad_wipe_paths.cpp"), 1);
  EXPECT_EQ(run.count_mentioning("bad_wipe_simd.cpp"), 1);
  EXPECT_EQ(run.count_mentioning("bad_span.cpp"), 4);
  EXPECT_EQ(run.count_mentioning("bad_reader_view.cpp"), 4);
  EXPECT_EQ(run.count_mentioning("bad_consume_view.cpp"), 3);
  EXPECT_EQ(run.count_mentioning("bad_lexer_stress.cpp"), 1);
  EXPECT_EQ(static_cast<int>(run.lines.size()), 37);
}

TEST(LintRules, GoodFixturesAreClean) {
  for (const char* rel :
       {"src/crypto/good_compare.cpp", "src/crypto/good_wipe.cpp",
        "src/crypto/good_wipe_paths.cpp", "src/crypto/good_wipe_simd.cpp",
        "src/crypto/good_simd_no_include.cpp", "src/tls/good_parser.cpp",
        "src/tls/good_trace.cpp", "src/tls/good_lexer_stress.cpp",
        "src/util/good_queue.cpp", "src/mbtls/good_escape.cpp",
        "src/mbtls/good_span.cpp", "src/mbtls/good_reader_view.cpp",
        "src/mbtls/good_consume_view.cpp", "tests/good_det.cpp"}) {
    const LintRun run = run_lint(kFixtures + "/" + rel);
    EXPECT_EQ(run.exit_code, 0) << rel;
    EXPECT_TRUE(run.lines.empty()) << rel << " produced: " << run.lines.front();
  }
}

TEST(LintRules, NoFindingsOnGoodTwinsInFullRun) {
  const LintRun run = run_lint(kFixtures);
  EXPECT_EQ(run.count_mentioning("good_compare.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_wipe.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_wipe_paths.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_wipe_simd.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_simd_no_include.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_parser.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_trace.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_lexer_stress.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_queue.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_escape.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_span.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_reader_view.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_consume_view.cpp"), 0);
  EXPECT_EQ(run.count_mentioning("good_det.cpp"), 0);
}

TEST(LintRules, RuleFilterRestrictsOutput) {
  const LintRun run = run_lint("--rule banned-fn " + kFixtures);
  ASSERT_EQ(run.exit_code, 1);
  EXPECT_EQ(static_cast<int>(run.lines.size()), 6);
  for (const auto& l : run.lines) {
    EXPECT_NE(l.find(" banned-fn: "), std::string::npos) << l;
  }
}

TEST(LintRules, ListRulesNamesTheCatalogue) {
  const LintRun run = run_lint("--list-rules");
  ASSERT_EQ(run.exit_code, 0);
  const std::string all = run.joined();
  for (const char* rule :
       {"secret-compare", "secret-wipe", "banned-fn", "partial-read", "nondet-test",
        "trace-no-secret", "queue-no-secret", "secret-escape", "wipe-all-paths",
        "dangling-span"}) {
    EXPECT_NE(all.find(rule), std::string::npos) << rule;
  }
}

TEST(LintRules, UnknownRuleIsAUsageError) {
  const LintRun run = run_lint("--rule no-such-rule " + kFixtures);
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintRules, JsonOutputCarriesRuleSymbolAndLine) {
  const LintRun run = run_lint("--json " + kFixtures + "/src/crypto/bad_wipe_paths.cpp");
  ASSERT_EQ(run.exit_code, 1);
  const std::string all = run.joined();
  ASSERT_FALSE(run.lines.empty());
  EXPECT_EQ(run.lines.front(), "[");
  EXPECT_NE(all.find("\"rule\": \"wipe-all-paths\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"symbol\": \"install_keys\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"line\": 16"), std::string::npos) << all;
}

TEST(LintRules, BaselineSuppressesReviewedFindings) {
  const std::string path = ::testing::TempDir() + "mbtls_lint_baseline_test.txt";
  {
    std::ofstream out(path);
    out << "# test baseline\n"
        << "wipe-all-paths bad_wipe_paths.cpp install_keys -- fixture demo\n";
  }
  const LintRun run =
      run_lint("--baseline " + path + " " + kFixtures + "/src/crypto/bad_wipe_paths.cpp");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.lines.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- lexer units

TEST(LintLexer, RawStringsCollapseToOneToken) {
  const LexedFile f = lex("t.cpp", "auto s = R\"doc(strcpy(a, b);)doc\"; int after = 1;");
  for (const auto& t : f.tokens) EXPECT_NE(t.text, "strcpy");
  bool saw_after = false, saw_string = false;
  for (const auto& t : f.tokens) {
    saw_after = saw_after || (t.kind == TokenKind::kIdentifier && t.text == "after");
    saw_string = saw_string || t.kind == TokenKind::kString;
  }
  EXPECT_TRUE(saw_after) << "lexing must resume after the raw string";
  EXPECT_TRUE(saw_string);
}

TEST(LintLexer, DigitSeparatorsStayOneNumber) {
  const LexedFile f = lex("t.cpp", "int n = 1'000'000;\nint next = 0x10'00;");
  int numbers = 0;
  for (const auto& t : f.tokens) {
    if (t.kind == TokenKind::kNumber) ++numbers;
    EXPECT_NE(t.kind, TokenKind::kChar) << "separator must not open a char literal";
  }
  EXPECT_EQ(numbers, 2);
  bool saw_next = false;
  for (const auto& t : f.tokens)
    saw_next = saw_next || (t.kind == TokenKind::kIdentifier && t.text == "next");
  EXPECT_TRUE(saw_next);
}

TEST(LintLexer, BackslashContinuationExtendsLineComments) {
  const LexedFile f = lex("t.cpp",
                          "// swallowed \\\nstrcpy(a, b);\nint ok = 3;  // lint: secret\n");
  for (const auto& t : f.tokens) EXPECT_NE(t.text, "strcpy");
  bool saw_ok = false;
  for (const auto& t : f.tokens)
    saw_ok = saw_ok || (t.kind == TokenKind::kIdentifier && t.text == "ok");
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(f.has_annotation(3, "secret")) << "line numbers must survive continuations";
}

TEST(LintLexer, IncludeTargetsAreRecorded) {
  const LexedFile f = lex("t.cpp",
                          "#include <immintrin.h>\n#include \"crypto/aes.h\"\n"
                          "#  include <vector>\n#define NOT_AN_INCLUDE <x.h>\n"
                          "int code = 1;\n");
  EXPECT_EQ(f.includes.size(), 3u);
  EXPECT_TRUE(f.includes.count("immintrin.h"));
  EXPECT_TRUE(f.includes.count("crypto/aes.h"));
  EXPECT_TRUE(f.includes.count("vector"));
  EXPECT_TRUE(f.has_intrinsic_include());
  // Directive bodies still never reach the token stream.
  for (const auto& t : f.tokens) EXPECT_NE(t.text, "immintrin");

  const LexedFile g = lex("t.cpp", "#include <vector>\nint code = 1;\n");
  EXPECT_FALSE(g.has_intrinsic_include());
}

// --------------------------------------------------------------- CFG units

const Cfg& single_cfg(const LexedFile& f, std::vector<Cfg>& storage) {
  storage = build_cfgs(f);
  EXPECT_EQ(storage.size(), 1u);
  return storage.front();
}

int count_return_blocks(const Cfg& cfg) {
  int n = 0;
  for (const auto& b : cfg.blocks) {
    for (const auto& st : b.stmts)
      if (st.kind == Stmt::Kind::kReturn) ++n;
  }
  return n;
}

TEST(LintCfg, IfElseBuildsADiamond) {
  const LexedFile f = lex(
      "t.cpp", "int f(int a) { int x = 0; if (a) { x = 1; } else { x = 2; } return x; }");
  std::vector<Cfg> cfgs;
  const Cfg& cfg = single_cfg(f, cfgs);
  ASSERT_EQ(cfg.params.size(), 1u);
  EXPECT_EQ(cfg.params[0].name, "a");

  // The entry block ends with the `if` header and has two successors (then
  // and else arms), which merge into a single join block before the return.
  const auto& entry = cfg.blocks[cfg.entry];
  ASSERT_EQ(entry.succs.size(), 2u);
  const auto& then_blk = cfg.blocks[entry.succs[0]];
  const auto& else_blk = cfg.blocks[entry.succs[1]];
  ASSERT_EQ(then_blk.succs.size(), 1u);
  ASSERT_EQ(else_blk.succs.size(), 1u);
  EXPECT_EQ(then_blk.succs[0], else_blk.succs[0]) << "arms must merge (diamond)";
  const auto& join = cfg.blocks[then_blk.succs[0]];
  ASSERT_EQ(join.stmts.size(), 1u);
  EXPECT_EQ(join.stmts[0].kind, Stmt::Kind::kReturn);
  ASSERT_EQ(join.succs.size(), 1u);
  EXPECT_EQ(join.succs[0], cfg.exit_id);
}

TEST(LintCfg, WhileLoopHasABackEdge) {
  const LexedFile f = lex("t.cpp", "int f(int n) { while (n) { n = n - 1; } return n; }");
  std::vector<Cfg> cfgs;
  const Cfg& cfg = single_cfg(f, cfgs);
  // Some block must edge back to an earlier block (the loop head).
  bool back_edge = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (int s : cfg.blocks[b].succs) {
      if (s >= 3 && static_cast<std::size_t>(s) < b) back_edge = true;  // 0-2 synthetic
    }
  }
  EXPECT_TRUE(back_edge);
  const auto reach = reachable_blocks(cfg);
  EXPECT_TRUE(reach[static_cast<std::size_t>(cfg.exit_id)]);
}

TEST(LintCfg, EarlyReturnsEdgeToTheExit) {
  const LexedFile f = lex("t.cpp", "int f(bool b) { if (b) { return 1; } return 2; }");
  std::vector<Cfg> cfgs;
  const Cfg& cfg = single_cfg(f, cfgs);
  EXPECT_EQ(count_return_blocks(cfg), 2);
  for (const auto& blk : cfg.blocks) {
    for (const auto& st : blk.stmts) {
      if (st.kind == Stmt::Kind::kReturn) {
        EXPECT_NE(std::find(blk.succs.begin(), blk.succs.end(), cfg.exit_id),
                  blk.succs.end())
            << "every return block must edge to the synthetic exit";
      }
    }
  }
}

TEST(LintCfg, ThrowEdgesToTheThrowExitNotTheNormalExit) {
  const LexedFile f = lex("t.cpp", "void f(bool b) { if (b) { throw 1; } }");
  std::vector<Cfg> cfgs;
  const Cfg& cfg = single_cfg(f, cfgs);
  EXPECT_NE(cfg.exit_id, cfg.throw_id);
  bool throw_edge = false;
  for (const auto& blk : cfg.blocks) {
    for (const auto& st : blk.stmts) {
      if (st.kind == Stmt::Kind::kThrow) {
        throw_edge = std::find(blk.succs.begin(), blk.succs.end(), cfg.throw_id) !=
                     blk.succs.end();
      }
    }
  }
  EXPECT_TRUE(throw_edge);
}

TEST(LintCfg, ConsumeCallbacksGetTheirOwnCfgMarkedWithTheReader) {
  const LexedFile f = lex("t.cpp",
                          "void f(Reader& in, ByteView data) {\n"
                          "  in.consume(data, [&](RecordView rec) { use(rec.raw); return true; });\n"
                          "}\n");
  const std::vector<Cfg> cfgs = build_cfgs(f);
  ASSERT_EQ(cfgs.size(), 2u);
  EXPECT_EQ(cfgs[0].name, "f");
  EXPECT_TRUE(cfgs[0].view_reader.empty());
  EXPECT_EQ(cfgs[1].view_reader, "in");
  EXPECT_EQ(cfgs[1].qual_name, "in.consume callback");
  ASSERT_EQ(cfgs[1].params.size(), 1u);
  EXPECT_EQ(cfgs[1].params[0].name, "rec");
  EXPECT_EQ(count_return_blocks(cfgs[1]), 1);
}

// ----------------------------------------------------------- taint dataflow

std::vector<Finding> dataflow_findings(const std::string& source) {
  std::vector<LexedFile> files;
  files.push_back(lex("src/mbtls/unit.cpp", source));
  const auto analyzed = analyze_files(files);
  const Summaries sums = compute_summaries(analyzed);
  std::vector<Finding> out;
  for (const auto& af : analyzed) run_dataflow_rules(af, sums, out);
  return out;
}

TEST(LintTaint, JoinIsMayTaint_BranchAssignmentReachesTheSink) {
  // `v` is tainted on only one arm; the union join at the merge point must
  // keep the taint, so the post-merge sink is flagged.
  const auto findings = dataflow_findings(
      "void f(Pool& pool, const Bytes& session_key, bool b) {\n"
      "  Bytes v;\n"
      "  if (b) { v = session_key; }\n"
      "  pool.post(v);\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u) << (findings.empty() ? "" : findings[0].message);
  EXPECT_EQ(findings[0].rule, "secret-escape");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].symbol, "f");
}

TEST(LintTaint, StrongUpdateKillsTaintBeforeTheSink) {
  const auto findings = dataflow_findings(
      "void g(Pool& pool, const Bytes& session_key) {\n"
      "  Bytes v = session_key;\n"
      "  v = Bytes(32);\n"
      "  pool.post(v);\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintTaint, ConsumeCallbackViewDiesWhenTheCallReturnsNotWhenItThrows) {
  // A callback that throws ends consume() at once, so the view it left in a
  // captured local is still good in the catch; after the call it is dead.
  const auto findings = dataflow_findings(
      "void f(Reader& in, ByteView data) {\n"
      "  ByteView raw;\n"
      "  try {\n"
      "    in.consume(data, [&](RecordView rec) { raw = rec.raw; return true; });\n"
      "  } catch (...) {\n"
      "    relay(raw);\n"
      "  }\n"
      "  relay(raw);\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u) << (findings.empty() ? "" : findings[0].message);
  EXPECT_EQ(findings[0].rule, "dangling-span");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_EQ(findings[0].symbol, "f");
}

TEST(LintTaint, SummariesCarryTaintAcrossACallBoundary) {
  // `derive` returns a secret (by name); the caller's neutrally-named local
  // becomes tainted purely through the interprocedural summary.
  const auto findings = dataflow_findings(
      "Bytes derive(const Bytes& ikm) {\n"
      "  Bytes master_secret = stretch(ikm);\n"
      "  return master_secret;\n"
      "}\n"
      "void h(Pool& pool, const Bytes& ikm) {\n"
      "  Bytes blob = derive(ikm);\n"
      "  pool.post(blob);\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "secret-escape");
  EXPECT_EQ(findings[0].symbol, "h");
}

}  // namespace
