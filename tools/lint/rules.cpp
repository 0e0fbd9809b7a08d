#include "rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "dataflow.h"

namespace mbtls::lint {

namespace {

// ------------------------------------------------------------ path classes

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Directories whose buffers may hold secrets: comparisons there must be
/// constant time (issue rule 1).
bool in_secret_dir(const std::string& path) {
  return contains(path, "src/crypto/") || contains(path, "src/rsa/") ||
         contains(path, "src/ec/") || contains(path, "src/bignum/") ||
         contains(path, "src/mbtls/");
}

/// The wipe rule's name-pattern component also covers src/tls (session and
/// handshake keys live there).
bool in_keyed_dir(const std::string& path) {
  return in_secret_dir(path) || contains(path, "src/tls/");
}

/// Directories that parse attacker-controlled bytes: no raw new[].
bool in_parser_dir(const std::string& path) {
  return contains(path, "src/asn1/") || contains(path, "src/x509/") ||
         contains(path, "src/http/") || contains(path, "src/tls/") ||
         contains(path, "src/util/") || contains(path, "src/mbtls/");
}

bool in_src(const std::string& path) { return contains(path, "src/"); }

bool in_tests(const std::string& path) { return contains(path, "tests/"); }

// --------------------------------------------------------------- utilities

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Split an identifier into lowercase '_'-separated segments with trailing
/// digits stripped ("client_key2" -> {client, key}).
std::vector<std::string> segments(const std::string& id) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : lower(id)) {
    if (c == '_') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  for (auto& s : out) {
    while (!s.empty() && std::isdigit(static_cast<unsigned char>(s.back()))) s.pop_back();
  }
  return out;
}

const std::set<std::string>& secret_segments() {
  static const std::set<std::string> kSet = {
      "key",  "keys", "secret", "secrets", "ikm", "prk",
      "okm",  "mac",  "tag",    "premaster", "psk",
  };
  return kSet;
}

/// Segments that mark an identifier as metadata *about* a secret (a length,
/// an index) rather than the secret itself.
const std::set<std::string>& public_segments() {
  static const std::set<std::string> kSet = {
      "len", "lens", "length", "size", "count", "idx", "index", "offset", "type", "id",
  };
  return kSet;
}

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}

/// Index of the matching close paren for the open paren at `open`, or
/// tokens.size() if unbalanced.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

bool allowed(const LexedFile& f, int line, const std::string& rule) {
  return rule_allowed(f, line, rule);
}

// ------------------------------------------------------- rule: secret-compare

const char* kSecretCompare = "secret-compare";

void rule_secret_compare(const LexedFile& f, std::vector<Finding>& out) {
  if (!in_secret_dir(f.path)) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (allowed(f, t.line, kSecretCompare)) continue;

    // memcmp/bcmp are never acceptable on this code's buffers.
    if ((t.text == "memcmp" || t.text == "bcmp") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      out.push_back({f.path, t.line, kSecretCompare,
                     t.text + "() in secret-bearing code; use constant_time_equal()"});
      continue;
    }

    // equal(...) / std::equal(...) with a secret-named argument. The
    // ct::equal from util/ct.h is the sanctioned constant-time comparison,
    // so the qualified spelling is exempt.
    if (t.text == "equal" && i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      if (i >= 2 && is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "ct")) continue;
      const std::size_t close = match_paren(toks, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier && is_secret_name(toks[j].text)) {
          out.push_back({f.path, t.line, kSecretCompare,
                         "variable-time equal() on secret '" + toks[j].text +
                             "'; use constant_time_equal()"});
          break;
        }
      }
      continue;
    }
  }

  // secret == x / x != secret: walk the qualified-name chain touching the
  // operator on either side and flag if any component names a secret.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "==") && !is_punct(toks[i], "!=")) continue;
    if (allowed(f, toks[i].line, kSecretCompare)) continue;
    auto chain_has_secret = [&](std::size_t start, int step) {
      std::size_t j = start;
      // A qualified-name chain is identifiers joined by '.', '->', '::'.
      while (j < toks.size()) {
        const Token& t = toks[j];
        if (t.kind == TokenKind::kIdentifier) {
          if (is_secret_name(t.text)) return true;
        } else if (!is_punct(t, ".") && !is_punct(t, "->") && !is_punct(t, "::")) {
          break;
        }
        if (step < 0 && j == 0) break;
        j = static_cast<std::size_t>(static_cast<long>(j) + step);
      }
      return false;
    };
    if ((i > 0 && chain_has_secret(i - 1, -1)) ||
        (i + 1 < toks.size() && chain_has_secret(i + 1, +1))) {
      out.push_back({f.path, toks[i].line, kSecretCompare,
                     "variable-time '" + toks[i].text +
                         "' on a secret-named buffer; use constant_time_equal()"});
    }
  }
}

// ---------------------------------------------------------- rule: secret-wipe

const char* kSecretWipe = "secret-wipe";

/// A declared secret that must be wiped somewhere in its header/impl group.
struct SecretDecl {
  std::string file;
  int line;
  std::string name;
};

std::string stem_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

/// Collect candidate declared names on `line`: identifiers immediately
/// followed by ';' ',' '=' '{' or '[' at template-angle depth 0.
std::vector<std::string> declared_names_on_line(const LexedFile& f, int line) {
  std::vector<std::string> out;
  int angle = 0;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].line != line) continue;
    if (is_punct(toks[i], "<") && i > 0 && toks[i - 1].kind == TokenKind::kIdentifier) ++angle;
    if (is_punct(toks[i], ">") && angle > 0) --angle;
    if (angle > 0 || toks[i].kind != TokenKind::kIdentifier) continue;
    if (i + 1 < toks.size() &&
        (is_punct(toks[i + 1], ";") || is_punct(toks[i + 1], ",") ||
         is_punct(toks[i + 1], "=") || is_punct(toks[i + 1], "{") ||
         is_punct(toks[i + 1], "["))) {
      out.push_back(toks[i].text);
    }
  }
  return out;
}

void rule_secret_wipe(const std::vector<LexedFile>& files, std::vector<Finding>& out) {
  // Pass 1: gather annotated + name-pattern declarations, and all names that
  // appear inside secure_wipe()/secure_wipe_object() argument lists, grouped
  // by file stem so a header member wiped in its .cpp destructor counts.
  std::map<std::string, std::set<std::string>> wiped_by_stem;
  std::vector<SecretDecl> decls;

  for (const auto& f : files) {
    const std::string stem = stem_of(f.path);
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      if ((toks[i].text == "secure_wipe" || toks[i].text == "secure_wipe_object") &&
          i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
        const std::size_t close = match_paren(toks, i + 1);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks[j].kind == TokenKind::kIdentifier) wiped_by_stem[stem].insert(toks[j].text);
        }
      }
    }

    // (a) explicit `// lint: secret` annotations.
    for (const auto& [line, directives] : f.annotations) {
      if (!directives.count("secret")) continue;
      for (const auto& name : declared_names_on_line(f, line))
        decls.push_back({f.path, line, name});
    }

    // (b) name-pattern: persistent `Bytes <secret-name>_` members in keyed
    // dirs (the trailing underscore is the codebase's member convention;
    // members outlive calls and must be wiped on teardown).
    if (!in_keyed_dir(f.path)) continue;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "Bytes")) continue;
      // Walk a comma-separated declarator list: Bytes a_, b_;
      std::size_t j = i + 1;
      while (j + 1 < toks.size() && toks[j].kind == TokenKind::kIdentifier &&
             (is_punct(toks[j + 1], ";") || is_punct(toks[j + 1], ",") ||
              is_punct(toks[j + 1], "{"))) {
        const std::string& name = toks[j].text;
        if (name.size() > 1 && name.back() == '_' && is_secret_name(name) &&
            !f.has_annotation(toks[j].line, "not-secret") &&
            !allowed(f, toks[j].line, kSecretWipe)) {
          decls.push_back({f.path, toks[j].line, name});
        }
        if (is_punct(toks[j + 1], ";")) break;
        j += (is_punct(toks[j + 1], "{")) ? 3 : 2;  // skip `{}` initializer
      }
    }
  }

  for (const auto& d : decls) {
    const auto it = wiped_by_stem.find(stem_of(d.file));
    if (it != wiped_by_stem.end() && it->second.count(d.name)) continue;
    out.push_back({d.file, d.line, kSecretWipe,
                   "secret '" + d.name + "' is never passed to secure_wipe()"});
  }
}

// ------------------------------------------------------------ rule: banned-fn

const char* kBannedFn = "banned-fn";

void rule_banned_fn(const LexedFile& f, std::vector<Finding>& out) {
  if (!in_src(f.path) && !in_tests(f.path)) return;
  static const std::set<std::string> kBanned = {
      "strcpy", "strcat", "sprintf", "vsprintf", "gets", "strtok", "alloca", "rand", "srand",
  };
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (allowed(f, t.line, kBannedFn)) continue;
    const bool member_access =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (kBanned.count(t.text) && !member_access && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      out.push_back({f.path, t.line, kBannedFn,
                     "banned function " + t.text + "() (unbounded/nondeterministic)"});
      continue;
    }
    // Raw new[] in parser code: parsers handle attacker-sized lengths and
    // must use Bytes / vector instead of manual array lifetime.
    if (t.text == "new" && in_parser_dir(f.path)) {
      for (std::size_t j = i + 1; j < std::min(toks.size(), i + 8); ++j) {
        if (is_punct(toks[j], "(") || is_punct(toks[j], ";") || is_punct(toks[j], "{") ||
            is_punct(toks[j], ")"))
          break;
        if (is_punct(toks[j], "[")) {
          out.push_back({f.path, t.line, kBannedFn,
                         "raw new[] in parser code; use Bytes or std::vector"});
          break;
        }
      }
    }
  }
}

// --------------------------------------------------------- rule: partial-read

const char* kPartialRead = "partial-read";

void rule_partial_read(const LexedFile& f, std::vector<Finding>& out) {
  if (!in_src(f.path)) return;
  const auto& toks = f.tokens;
  // Track brace depth to bound each variable's scope.
  std::vector<int> depth_at(toks.size(), 0);
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    if (is_punct(toks[i], "}")) --depth;
    depth_at[i] = depth;
  }

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "Reader") && !is_ident(toks[i], "Parser")) continue;
    if (toks[i + 1].kind != TokenKind::kIdentifier) continue;
    const Token& var = toks[i + 1];
    const Token& after = toks[i + 2];
    if (!is_punct(after, "(") && !is_punct(after, "{") && !is_punct(after, "=")) continue;

    // Distinguish `Reader r(expr)` from a function declaration
    // `Parser context(unsigned n);`: empty parens or two adjacent
    // identifiers inside the parens mean "function", not "variable".
    if (is_punct(after, "(")) {
      const std::size_t close = match_paren(toks, i + 2);
      if (close == i + 3) continue;  // `()` — declaration or vexing parse
      bool looks_like_fn = false;
      for (std::size_t j = i + 3; j + 1 < close; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier &&
            toks[j + 1].kind == TokenKind::kIdentifier)
          looks_like_fn = true;
      }
      if (looks_like_fn) continue;
    }

    if (f.has_annotation(var.line, "partial-read") || allowed(f, var.line, kPartialRead))
      continue;

    // Scan the rest of the enclosing scope for `var.expect_end()`.
    const int decl_depth = depth_at[i];
    bool satisfied = false;
    for (std::size_t j = i + 3; j < toks.size() && depth_at[j] >= decl_depth; ++j) {
      if (toks[j].kind == TokenKind::kIdentifier && toks[j].text == var.text &&
          j + 2 < toks.size() && is_punct(toks[j + 1], ".") &&
          is_ident(toks[j + 2], "expect_end")) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      out.push_back({f.path, var.line, kPartialRead,
                     toks[i].text + " '" + var.text +
                         "' never calls expect_end(); trailing bytes would be silently "
                         "accepted (annotate `// lint: partial-read` if intentional)"});
    }
  }
}

// ---------------------------------------------------------- rule: nondet-test

const char* kNondetTest = "nondet-test";

void rule_nondet_test(const LexedFile& f, std::vector<Finding>& out) {
  if (!in_tests(f.path)) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (f.has_annotation(t.line, "nondeterministic") || allowed(f, t.line, kNondetTest))
      continue;
    if (t.text == "srand" || t.text == "random_device" || t.text == "random_shuffle" ||
        t.text == "system_clock") {
      out.push_back({f.path, t.line, kNondetTest,
                     t.text + " makes the test nondeterministic; seed a Drbg with a fixed "
                              "label instead"});
      continue;
    }
    if (t.text == "rand" && i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        (i == 0 || (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")))) {
      out.push_back({f.path, t.line, kNondetTest,
                     "rand() makes the test nondeterministic; use a fixed-seed Drbg"});
      continue;
    }
    if (t.text == "time" && i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        i + 2 < toks.size() &&
        (is_ident(toks[i + 2], "nullptr") || is_ident(toks[i + 2], "NULL") ||
         (toks[i + 2].kind == TokenKind::kNumber && toks[i + 2].text == "0"))) {
      out.push_back({f.path, t.line, kNondetTest,
                     "wall-clock seed time(...) makes the test nondeterministic"});
    }
  }
}

}  // namespace

bool is_secret_name(const std::string& identifier) {
  const auto segs = segments(identifier);
  bool secret = false;
  for (const auto& s : segs) {
    if (secret_segments().count(s)) secret = true;
    if (public_segments().count(s)) return false;
  }
  return secret;
}

bool rule_allowed(const LexedFile& f, int line, const std::string& rule) {
  return f.has_annotation(line, "allow-" + rule) ||
         f.has_annotation(line, "ok(" + rule + ")");
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"secret-compare",
       "no memcmp/==/variable-time equal() on secret buffers in src/{crypto,rsa,ec,bignum,mbtls}"},
      {"secret-wipe",
       "declarations marked `// lint: secret` (and Bytes *key*_ members in keyed dirs) must "
       "reach secure_wipe()"},
      {"banned-fn", "no strcpy/sprintf/strcat/gets/strtok/alloca/rand/srand; no raw new[] in parsers"},
      {"partial-read",
       "every Reader/Parser decode path ends in expect_end() or `// lint: partial-read`"},
      {"nondet-test", "tests must be deterministic: no srand/rand/random_device/wall-clock seeds"},
      {"trace-no-secret",
       "trace emitters never receive key material (dataflow: direct secret names keep this id); "
       "wrap keys in key_fingerprint()"},
      {"queue-no-secret",
       "worker queues never receive key material (dataflow: direct secret names keep this id); "
       "only sealed records cross the data plane"},
      {"secret-escape",
       "taint from a secret source reaching a trace/queue/long-lived-container sink through any "
       "chain of assignments or call returns (interprocedural, via summaries)"},
      {"wipe-all-paths",
       "every normal CFG exit of a function holding a secret-named owning local must reach "
       "secure_wipe() or transfer ownership out (path-sensitive; catches early-return leaks)"},
      {"dangling-span",
       "views into reusable scratch buffers, reader next_view() results or the records a "
       "reader's consume() hands its callback must not escape to members/containers/returns "
       "or be used after the buffer is recycled (clear/resize/assign; the reader's next "
       "feed; the callback's return)"},
  };
  return kRules;
}

namespace {

/// The dataflow rule families whose findings only apply to production code
/// under src/ (tests churn short-lived key material by design; the legacy
/// trace rule stays repo-wide, matching its token-rule ancestor).
bool dataflow_rule_src_only(const std::string& rule) {
  return rule == "queue-no-secret" || rule == "secret-escape" ||
         rule == "wipe-all-paths" || rule == "dangling-span";
}

}  // namespace

std::vector<Finding> run_rules(const std::vector<LexedFile>& files,
                               const std::vector<std::string>& only_rules) {
  std::vector<Finding> out;
  for (const auto& f : files) {
    rule_secret_compare(f, out);
    rule_banned_fn(f, out);
    rule_partial_read(f, out);
    rule_nondet_test(f, out);
  }
  rule_secret_wipe(files, out);

  // Layer 2: CFG + taint dataflow with interprocedural summaries.
  const std::vector<AnalyzedFile> analyzed = analyze_files(files);
  const Summaries summaries = compute_summaries(analyzed);
  std::vector<Finding> flow;
  for (const auto& af : analyzed) run_dataflow_rules(af, summaries, flow);
  for (auto& f : flow) {
    if (dataflow_rule_src_only(f.rule) && !in_src(f.file)) continue;
    out.push_back(std::move(f));
  }

  if (!only_rules.empty()) {
    const std::set<std::string> keep(only_rules.begin(), only_rules.end());
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Finding& f) { return !keep.count(f.rule); }),
              out.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace mbtls::lint
