#include "dataflow.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <set>

namespace mbtls::lint {

namespace {

// --------------------------------------------------------------- utilities

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

/// Index of the `)` matching the `(` at `open`, or `end` if unbalanced.
std::size_t close_paren(const std::vector<Token>& toks, std::size_t open, std::size_t end) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return end;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// True if `id` has the lowercase '_'-segment `seg` (digits stripped).
bool has_segment(const std::string& id, const std::string& seg) {
  std::string cur;
  for (char c : lower(id) + "_") {
    if (c == '_') {
      while (!cur.empty() && std::isdigit(static_cast<unsigned char>(cur.back())))
        cur.pop_back();
      if (cur == seg) return true;
      cur.clear();
    } else {
      cur += c;
    }
  }
  return false;
}

bool is_scratch_name(const std::string& id) { return has_segment(id, "scratch"); }

bool is_sanitizer_name(const std::string& s) {
  return s == "key_fingerprint" || s == "seal" || s == "seal_into";
}

bool is_wipe_name(const std::string& s) {
  return s == "secure_wipe" || s == "secure_wipe_object";
}

const std::set<std::string>& emitter_methods() {
  static const std::set<std::string> kSet = {"instant", "begin", "end", "counter"};
  return kSet;
}
const std::set<std::string>& queue_methods() {
  static const std::set<std::string> kSet = {"post", "try_post", "submit", "enqueue"};
  return kSet;
}
const std::set<std::string>& container_methods() {
  static const std::set<std::string> kSet = {"push_back", "insert", "emplace",
                                             "emplace_back", "put"};
  return kSet;
}
/// Receiver name segments that mark a container as long-lived/shared: a
/// secret copied into one of these outlives its session context.
const std::set<std::string>& longlived_segments() {
  static const std::set<std::string> kSet = {"cache", "pool", "log", "journal",
                                             "history", "registry"};
  return kSet;
}

bool is_view_type(const std::string& t) {
  return t == "ByteView" || t == "MutableByteView" || t == "span" || t == "Span" ||
         t == "string_view";
}
/// Owning byte-buffer types whose secret-named locals carry a wipe
/// obligation. Views/references are non-owning and exempt.
bool is_owning_buf_type(const std::string& t) {
  return t == "Bytes" || t == "vector" || t == "array";
}
/// x86 SIMD vector registers spilled to locals (the AES-NI backend keeps
/// round keys and GHASH key powers in these). Owning by-value storage, so
/// secret-named ones carry the same wipe obligation as byte buffers — but
/// only in files that include an intrinsic header (LexedFile::
/// has_intrinsic_include), where the name is certain to be Intel's type.
bool is_simd_vector_type(const std::string& t) {
  return t == "__m128i" || t == "__m256i" || t == "__m512i";
}

const std::set<std::string>& decl_keywords() {
  static const std::set<std::string> kSet = {
      "const", "constexpr", "static", "volatile", "unsigned", "signed",
      "long",  "short",     "struct", "class",    "typename", "thread_local",
      "mutable", "inline",  "register",
  };
  return kSet;
}

const char* kTraceNoSecret = "trace-no-secret";
const char* kQueueNoSecret = "queue-no-secret";
const char* kSecretEscape = "secret-escape";
const char* kWipeAllPaths = "wipe-all-paths";
const char* kDanglingSpan = "dangling-span";

// -------------------------------------------------------- abstract state

struct Taint {
  std::string origin;  // the secret this value derives from
  int line = 0;        // where the taint entered
};

struct SecretLocal {
  int line = 0;  // declaration line
};

struct ViewInfo {
  std::string source;  // the scratch buffer or record reader viewed into
  int line = 0;        // where the view was formed
  bool stale = false;  // source was recycled (scratch) or fed (reader) since
};

struct AbsState {
  bool reachable = false;
  std::map<std::string, Taint> taint;
  std::map<std::string, SecretLocal> secrets;
  std::map<std::string, ViewInfo> views;

  /// May-join: union of facts; returns true if *this changed.
  bool join_from(const AbsState& o) {
    if (!o.reachable) return false;
    if (!reachable) {
      *this = o;
      return true;
    }
    bool changed = false;
    for (const auto& [k, v] : o.taint)
      if (taint.emplace(k, v).second) changed = true;
    for (const auto& [k, v] : o.secrets)
      if (secrets.emplace(k, v).second) changed = true;
    for (const auto& [k, v] : o.views) {
      auto [it, fresh] = views.emplace(k, v);
      if (fresh) {
        changed = true;
      } else if (v.stale && !it->second.stale) {
        it->second.stale = true;
        changed = true;
      }
    }
    return changed;
  }
};

// ----------------------------------------------- statement interpretation

/// A parsed declaration or assignment inside one statement.
struct DeclOrAssign {
  bool valid = false;
  bool is_decl = false;
  bool lhs_member = false;  // x.y = / this->y = / indexing
  bool compound = false;    // += and friends
  std::string name;         // declared/assigned variable ("" when lhs_member)
  int name_line = 0;
  std::string type_last;    // last type identifier for declarations
  bool type_ref_or_ptr = false;
  std::size_t rhs_begin = 0, rhs_end = 0;  // may be an empty range
};

/// The per-function engine: fixed-point taint propagation over the CFG,
/// then a report pass that replays transfers with converged block-entry
/// states and emits findings.
class FnTaint {
 public:
  /// `file_cfgs` (the CFGs of `f`, `cfg` among them) lets the report pass
  /// see the consume() callbacks inside `cfg`.
  FnTaint(const LexedFile& f, const Cfg& cfg, const Summaries& sums,
          const std::vector<Cfg>* file_cfgs = nullptr)
      : f_(f), toks_(f.tokens), cfg_(cfg), sums_(sums) {
    if (file_cfgs == nullptr) return;
    for (const Cfg& cb : *file_cfgs) {
      if (cb.view_reader.empty() || &cb == &cfg || cb.body_begin < cfg.body_begin ||
          cb.body_end > cfg.body_end)
        continue;
      FnTaint inner(f, cb, sums);
      inner.solve();
      callbacks_.push_back({cb.body_begin, cb.body_end, cb.view_reader, inner.escaped_views()});
    }
  }

  void solve() {
    in_.assign(cfg_.blocks.size(), AbsState{});
    AbsState entry;
    entry.reachable = true;
    for (const auto& p : cfg_.params) {
      if (is_secret_name(p.name) || f_.has_annotation(p.line, "secret"))
        entry.taint[p.name] = Taint{p.name, p.line};
      declared_.insert(p.name);
    }
    // A consume() callback's record parameter views the reader's intake.
    if (!cfg_.view_reader.empty() && !cfg_.params.empty())
      entry.views[cfg_.params.front().name] =
          ViewInfo{cfg_.view_reader, cfg_.params.front().line, false};
    in_[cfg_.entry] = std::move(entry);

    std::deque<int> work = {cfg_.entry};
    std::set<int> queued = {cfg_.entry};
    while (!work.empty()) {
      const int b = work.front();
      work.pop_front();
      queued.erase(b);
      AbsState s = in_[b];
      for (const auto& st : cfg_.blocks[b].stmts) transfer(s, st, nullptr);
      for (int succ : cfg_.blocks[b].succs) {
        if (in_[succ].join_from(s) && queued.insert(succ).second) work.push_back(succ);
      }
    }
  }

  /// True if any reachable `return` statement returns tainted data.
  bool returns_secret() {
    const auto reach = reachable_blocks(cfg_);
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (!reach[b] || !in_[b].reachable) continue;
      AbsState s = in_[b];
      for (const auto& st : cfg_.blocks[b].stmts) {
        if (st.kind == Stmt::Kind::kReturn) {
          Taint t;
          if (span_tainted(st.begin + 1, ret_expr_end(st), s, &t)) return true;
        }
        transfer(s, st, nullptr);
      }
    }
    return false;
  }

  /// 0-based parameter indices this function wipes (simple token scan —
  /// a may-wipe is treated as a wipe; the goal is wrapper transparency,
  /// not soundness against adversarial wrappers).
  std::vector<int> wiped_params() const {
    std::vector<int> out;
    for (std::size_t p = 0; p < cfg_.params.size(); ++p) {
      const std::string& name = cfg_.params[p].name;
      for (std::size_t i = cfg_.body_begin; i + 1 < cfg_.body_end; ++i) {
        if (toks_[i].kind != TokenKind::kIdentifier) continue;
        const bool direct = is_wipe_name(toks_[i].text);
        const auto it = sums_.find(toks_[i].text);
        const bool via_summary = it != sums_.end() && !it->second.wiped_params.empty();
        if ((!direct && !via_summary) || !is_punct(toks_[i + 1], "(")) continue;
        const std::size_t close = close_paren(toks_, i + 1, cfg_.body_end);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks_[j].kind == TokenKind::kIdentifier && toks_[j].text == name) {
            out.push_back(static_cast<int>(p));
            j = close;
            i = close;
          }
        }
        if (std::find(out.begin(), out.end(), static_cast<int>(p)) != out.end()) break;
      }
    }
    return out;
  }

  void report(std::vector<Finding>& out) {
    const auto reach = reachable_blocks(cfg_);
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (!reach[b] || !in_[b].reachable) continue;
      AbsState s = in_[b];
      const auto& blk = cfg_.blocks[static_cast<int>(b)];
      for (const auto& st : blk.stmts) transfer(s, st, &out);
      // Fall-off-the-end exits: a block that reaches the synthetic exit
      // without a return statement is still a normal exit path.
      const bool to_exit = std::find(blk.succs.begin(), blk.succs.end(), cfg_.exit_id) !=
                           blk.succs.end();
      const bool ends_in_return =
          !blk.stmts.empty() && blk.stmts.back().kind == Stmt::Kind::kReturn;
      if (to_exit && !ends_in_return) {
        const int line = blk.stmts.empty() ? cfg_.line : blk.stmts.back().line;
        emit_wipe_findings(s, line, "falls off the end of the function", &out);
      }
    }
  }

 private:
  /// After solve() on a consume() callback: the views it left in variables
  /// it did not declare (the enclosing function's locals, by capture; a
  /// trailing-'_' member store is already a finding of its own).
  std::map<std::string, ViewInfo> escaped_views() const {
    std::map<std::string, ViewInfo> out;
    for (const auto& [name, v] : in_[static_cast<std::size_t>(cfg_.exit_id)].views) {
      if (!declared_.count(name) && name.back() != '_') out.emplace(name, v);
    }
    return out;
  }

  // The end of a return statement's expression (before the `;`).
  std::size_t ret_expr_end(const Stmt& st) const {
    return st.end > st.begin && is_punct(toks_[st.end - 1], ";") ? st.end - 1 : st.end;
  }

  bool allowed(int line, const char* rule) const {
    return f_.has_annotation(line, std::string("allow-") + rule) ||
           f_.has_annotation(line, std::string("ok(") + rule + ")") ||
           f_.has_annotation(cfg_.line, std::string("ok(") + rule + ")");
  }

  /// Does the token span hold secret data under `s`? Sanitizer call spans
  /// are clean; `.size()`-style metadata never matters because metadata
  /// names are already vetoed by is_secret_name().
  bool span_tainted(std::size_t b, std::size_t e, const AbsState& s, Taint* info) const {
    std::size_t i = b;
    while (i < e) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::kIdentifier) {
        if (is_sanitizer_name(t.text) && i + 1 < e && is_punct(toks_[i + 1], "(")) {
          i = close_paren(toks_, i + 1, e) + 1;
          continue;
        }
        if (is_secret_name(t.text)) {
          if (info) *info = Taint{t.text, t.line};
          return true;
        }
        const auto it = s.taint.find(t.text);
        if (it != s.taint.end()) {
          if (info) *info = it->second;
          return true;
        }
        const auto sit = sums_.find(t.text);
        if (sit != sums_.end() && sit->second.returns_secret && i + 1 < e &&
            is_punct(toks_[i + 1], "(")) {
          if (info) *info = Taint{t.text + "()", t.line};
          return true;
        }
      }
      ++i;
    }
    return false;
  }

  /// The receiver of a `recv.next_view(` / `recv->next_view(` call in
  /// [b,e), or nullptr: the record reader whose buffer the result views.
  const std::string* reader_view_call_in(std::size_t b, std::size_t e) const {
    for (std::size_t i = b + 2; i + 1 < e; ++i) {
      if (toks_[i].kind == TokenKind::kIdentifier && toks_[i].text == "next_view" &&
          is_punct(toks_[i + 1], "(") &&
          (is_punct(toks_[i - 1], ".") || is_punct(toks_[i - 1], "->")) &&
          toks_[i - 2].kind == TokenKind::kIdentifier)
        return &toks_[i - 2].text;
    }
    return nullptr;
  }

  /// The view source named in [b,e), if any: an existing view variable
  /// (propagation), a reader's next_view() call, or a `scratch`-segment
  /// identifier.
  const std::string* scratch_source_in(std::size_t b, std::size_t e, const AbsState& s,
                                       int* via_view_line) const {
    for (std::size_t i = b; i < e; ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier) continue;
      const auto vit = s.views.find(toks_[i].text);
      if (vit != s.views.end()) {
        if (via_view_line) *via_view_line = vit->second.line;
        return &vit->second.source;
      }
    }
    if (const std::string* reader = reader_view_call_in(b, e)) {
      if (via_view_line) *via_view_line = 0;
      return reader;
    }
    static thread_local std::string direct;
    for (std::size_t i = b; i < e; ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier) continue;
      if (is_scratch_name(toks_[i].text)) {
        direct = toks_[i].text;
        if (via_view_line) *via_view_line = 0;
        return &direct;
      }
    }
    return nullptr;
  }

  /// Is [b,e) a *view expression*: an existing view variable, a reader's
  /// next_view() call, or a ByteView/span constructed from a scratch source?
  const std::string* view_of_scratch(std::size_t b, std::size_t e, const AbsState& s) const {
    // An owning-buffer construction (`Bytes(v.begin(), v.end())`,
    // `to_bytes(v)`) copies the bytes out: the result is not a view even if
    // a view var feeds it.
    for (std::size_t i = b; i + 1 < e; ++i) {
      if (toks_[i].kind == TokenKind::kIdentifier &&
          (is_owning_buf_type(toks_[i].text) || toks_[i].text == "to_bytes") &&
          (is_punct(toks_[i + 1], "(") || is_punct(toks_[i + 1], "{")))
        return nullptr;
    }
    if (const std::string* reader = reader_view_call_in(b, e)) return reader;
    for (std::size_t i = b; i < e; ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier) continue;
      const auto vit = s.views.find(toks_[i].text);
      if (vit != s.views.end()) return &vit->second.source;
    }
    bool view_ctor = false;
    for (std::size_t i = b; i < e; ++i) {
      if (toks_[i].kind == TokenKind::kIdentifier && is_view_type(toks_[i].text))
        view_ctor = true;
    }
    if (!view_ctor) return nullptr;
    return scratch_source_in(b, e, s, nullptr);
  }

  /// "reusable scratch buffer 'x'" / "the buffer of reader 'x'" (a view
  /// source that is not scratch-named came from x.next_view()), for
  /// dangling-span messages.
  static std::string view_source_desc(const std::string& src) {
    return (is_scratch_name(src) ? "reusable scratch buffer '" : "the buffer of reader '") +
           src + "'";
  }

  void emit(std::vector<Finding>* out, int line, const char* rule, std::string msg) {
    if (out == nullptr || allowed(line, rule)) return;
    out->push_back(Finding{f_.path, line, rule, std::move(msg), cfg_.qual_name});
  }

  void emit_wipe_findings(const AbsState& s, int line, const std::string& how,
                          std::vector<Finding>* out) {
    if (out == nullptr) return;
    for (const auto& [name, decl] : s.secrets) {
      if (allowed(line, kWipeAllPaths) || allowed(decl.line, kWipeAllPaths)) continue;
      emit(out, line, kWipeAllPaths,
           "secret local '" + name + "' (declared line " + std::to_string(decl.line) +
               ") " + how + " without secure_wipe() — wipe it on every path or move it "
               "out");
    }
  }

  /// Scan a sink's argument span: directly secret-named identifiers keep the
  /// legacy rule id; tainted neutrally-named values are `secret-escape`.
  void check_sink_args(std::size_t open, std::size_t close, const AbsState& s,
                       const char* legacy_rule, const char* sink_what,
                       std::vector<Finding>* out) {
    for (std::size_t j = open + 1; j < close; ++j) {
      const Token& a = toks_[j];
      if (a.kind != TokenKind::kIdentifier) continue;
      if (is_sanitizer_name(a.text) && j + 1 < close && is_punct(toks_[j + 1], "(")) {
        j = close_paren(toks_, j + 1, close);
        continue;
      }
      if (is_secret_name(a.text)) {
        if (!allowed(a.line, legacy_rule)) {
          emit(out, a.line, legacy_rule,
               "secret '" + a.text + "' passed to " + sink_what +
                   (legacy_rule == kTraceNoSecret
                        ? "; trace key_fingerprint(" + a.text + ") instead"
                        : "; only sealed records may cross the data-plane queue"));
        }
        continue;
      }
      const auto it = s.taint.find(a.text);
      if (it != s.taint.end()) {
        emit(out, a.line, kSecretEscape,
             "'" + a.text + "' carries secret '" + it->second.origin + "' (tainted at line " +
                 std::to_string(it->second.line) + ") into " + sink_what +
                 " — the name-based rules cannot see this flow");
      }
    }
  }

  /// Identifiers of the member-call receiver chain ending just before the
  /// `.`/`->` at `dot` (walks `a.b->c`, `a[i].b`, `(*a).b` loosely).
  std::vector<std::string> receiver_chain(std::size_t dot) const {
    std::vector<std::string> out;
    std::size_t i = dot;
    while (i > 0) {
      const Token& t = toks_[i - 1];
      if (t.kind == TokenKind::kIdentifier) {
        out.push_back(t.text);
      } else if (!is_punct(t, ".") && !is_punct(t, "->") && !is_punct(t, "::") &&
                 !is_punct(t, "]") && !is_punct(t, "[") && !is_punct(t, ")")) {
        break;
      }
      --i;
      if (out.size() > 6) break;
    }
    return out;
  }

  // The transfer function: interpret one statement, mutating `s`. With
  // `out` non-null, also emit findings (the report pass re-runs this with
  // converged entry states).
  void transfer(AbsState& s, const Stmt& st, std::vector<Finding>* out) {
    if (!s.reachable) return;
    const std::size_t b = st.begin, e = st.end;

    // --- sinks & stale-view uses, evaluated against the pre-state ---------
    scan_sinks(s, b, e, out);
    if (out != nullptr) scan_stale_uses(s, st, out);

    // --- declaration / assignment effects (pre-kill state for the RHS) ---
    DeclOrAssign da;
    if (st.kind == Stmt::Kind::kPlain) da = parse_decl_or_assign(b, e);
    if (st.kind == Stmt::Kind::kCond) da = parse_cond_decl(b, e);
    Taint rhs_taint;
    const bool rhs_tainted =
        da.valid && span_tainted(da.rhs_begin, da.rhs_end, s, &rhs_taint);
    const std::string* rhs_view_src =
        da.valid ? view_of_scratch(da.rhs_begin, da.rhs_end, s) : nullptr;

    // Member stores of scratch views escape the view past its batch.
    if (da.valid && da.lhs_member && rhs_view_src != nullptr) {
      emit(out, st.line, kDanglingSpan,
           "span into " + view_source_desc(*rhs_view_src) +
               " stored into a member — it dangles once that buffer is reused");
    }

    // --- ownership transfers and wipes kill obligations -------------------
    apply_kills(s, b, e);

    // --- scratch recycle events mark derived views stale ------------------
    apply_recycles(s, b, e);

    // --- post-state updates for the declared/assigned variable ------------
    if (da.valid && da.is_decl) declared_.insert(da.name);
    if (da.valid && !da.lhs_member && !da.name.empty()) {
      const bool ann_secret = f_.has_annotation(da.name_line, "secret");
      // View tracking: a view-typed/pointer declaration mentioning a
      // scratch source forms a view of it; otherwise only an explicit view
      // expression (existing view var, ByteView ctor of scratch) propagates.
      const bool view_decl = da.is_decl && (is_view_type(da.type_last) ||
                                            (da.type_ref_or_ptr && !is_owning_buf_type(
                                                                       da.type_last)));
      const std::string* vsrc =
          view_decl ? scratch_source_in(da.rhs_begin, da.rhs_end, s, nullptr)
                    : rhs_view_src;
      if (vsrc != nullptr) {
        s.views[da.name] = ViewInfo{*vsrc, st.line, false};
      } else if (!da.compound) {
        s.views.erase(da.name);  // strong update: overwritten with non-view
      }
      // Taint tracking.
      if (rhs_tainted || ann_secret || is_secret_name(da.name)) {
        s.taint[da.name] = rhs_tainted ? rhs_taint : Taint{da.name, da.name_line};
      } else if (!da.compound) {
        s.taint.erase(da.name);
      }
      // Wipe obligations: secret-named (or annotated) owning buffer locals,
      // plus SIMD vector locals in intrinsic-including files (key schedules
      // staged in registers still hit the stack when spilled).
      const bool owning_type =
          is_owning_buf_type(da.type_last) ||
          (f_.has_intrinsic_include() && is_simd_vector_type(da.type_last));
      if (da.is_decl && !da.type_ref_or_ptr && owning_type &&
          (is_secret_name(da.name) || ann_secret) &&
          !f_.has_annotation(da.name_line, "not-secret") &&
          !allowed(da.name_line, kWipeAllPaths)) {
        s.secrets[da.name] = SecretLocal{da.name_line};
      }
    }

    // --- a consume() callback in this statement has returned: the views it
    // left in this function's locals are dead ------------------------------
    for (const auto& cb : callbacks_) {
      if (cb.begin < b || cb.end > e) continue;
      for (const auto& [name, v] : cb.escaped) s.views[name] = ViewInfo{cb.reader, v.line, true};
    }

    // --- returns: ownership transfer out, then leak check -----------------
    if (st.kind == Stmt::Kind::kReturn) {
      const std::size_t rb = b + 1, re = ret_expr_end(st);
      // Only a *bare* `return k;` transfers ownership to the caller (the
      // call summary takes over there). `return std::move(k)` was already
      // handled by apply_kills; `return concat(k, x)` copies, so k stays
      // obliged.
      if (re == rb + 1 && toks_[rb].kind == TokenKind::kIdentifier) {
        s.secrets.erase(toks_[rb].text);
      }
      if (out != nullptr) {
        // Returning a view into scratch hands the caller a span that dies
        // with the next batch.
        const std::string* v = view_of_scratch(rb, re, s);
        if (v != nullptr) {
          emit(out, st.line, kDanglingSpan,
               "returning a span into " + view_source_desc(*v) +
                   " — it dangles once that buffer is reused");
        }
        emit_wipe_findings(s, st.line, "leaks on this return path", out);
      }
    }
  }

  void scan_sinks(const AbsState& s, std::size_t b, std::size_t e,
                  std::vector<Finding>* out) {
    for (std::size_t i = b + 1; i < e; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier || i + 1 >= e) continue;
      if (!is_punct(toks_[i - 1], ".") && !is_punct(toks_[i - 1], "->")) continue;
      if (!is_punct(toks_[i + 1], "(")) continue;
      const std::size_t close = close_paren(toks_, i + 1, e);

      if (emitter_methods().count(t.text) && !allowed(t.line, kTraceNoSecret)) {
        check_sink_args(i + 1, close, s, kTraceNoSecret, "a trace emitter", out);
      } else if (queue_methods().count(t.text) && !allowed(t.line, kQueueNoSecret)) {
        check_sink_args(i + 1, close, s, kQueueNoSecret, "a worker queue", out);
      } else if (container_methods().count(t.text)) {
        // Long-lived containers are secret sinks...
        bool longlived = false;
        for (const auto& r : receiver_chain(i - 1))
          for (const auto& seg : longlived_segments())
            if (has_segment(r, seg)) longlived = true;
        if (longlived && !allowed(t.line, kSecretEscape)) {
          check_sink_args(i + 1, close, s, kSecretEscape, "a long-lived container", out);
        }
        // ...and *any* container store of a scratch view outlives the batch.
        const std::string* v = view_of_scratch(i + 2, close, s);
        if (v != nullptr) {
          emit(out, t.line, kDanglingSpan,
               "span into " + view_source_desc(*v) +
                   " stored into a container — it dangles once that buffer is reused");
        }
      }
    }
  }

  /// Flag uses of views whose scratch source has been recycled.
  void scan_stale_uses(const AbsState& s, const Stmt& st, std::vector<Finding>* out) {
    // The assignment target is being overwritten, not used.
    const DeclOrAssign da = st.kind == Stmt::Kind::kPlain
                                ? parse_decl_or_assign(st.begin, st.end)
                                : DeclOrAssign{};
    for (std::size_t i = st.begin; i < st.end; ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier) continue;
      if (da.valid && !da.lhs_member && toks_[i].text == da.name &&
          (i < da.rhs_begin || i >= da.rhs_end))
        continue;
      const auto it = s.views.find(toks_[i].text);
      if (it != s.views.end() && it->second.stale) {
        emit(out, toks_[i].line, kDanglingSpan,
             "'" + toks_[i].text + "' is a span into " + view_source_desc(it->second.source) +
                 " (formed line " + std::to_string(it->second.line) +
                 ") used after it was recycled — copy the bytes out instead");
      }
    }
  }

  /// secure_wipe()/wrapper calls, std::move, and swap end wipe obligations
  /// (and wipes end taint — the buffer is zeros afterwards).
  void apply_kills(AbsState& s, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i + 1 < e; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier || !is_punct(toks_[i + 1], "(")) continue;
      const std::size_t close = close_paren(toks_, i + 1, e);

      if (is_wipe_name(t.text)) {
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks_[j].kind == TokenKind::kIdentifier) {
            s.taint.erase(toks_[j].text);
            s.secrets.erase(toks_[j].text);
          }
        }
        continue;
      }
      if (t.text == "move" || t.text == "swap") {
        // std::move(k): k is moved-from; swap(k, o): ownership churns.
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks_[j].kind == TokenKind::kIdentifier) {
            s.secrets.erase(toks_[j].text);
            if (t.text == "move") s.taint.erase(toks_[j].text);
          }
        }
        continue;
      }
      const auto it = sums_.find(t.text);
      if (it != sums_.end() && !it->second.wiped_params.empty()) {
        // Wrapper that wipes specific parameters: kill the matching args.
        std::vector<std::pair<std::size_t, std::size_t>> args;
        std::size_t arg_b = i + 2;
        int depth = 0;
        for (std::size_t j = i + 2; j <= close && j < e; ++j) {
          if (is_punct(toks_[j], "(") || is_punct(toks_[j], "[") || is_punct(toks_[j], "{"))
            ++depth;
          if (is_punct(toks_[j], ")") || is_punct(toks_[j], "]") || is_punct(toks_[j], "}"))
            --depth;
          if ((is_punct(toks_[j], ",") && depth == 0) || j == close) {
            args.emplace_back(arg_b, j);
            arg_b = j + 1;
          }
        }
        for (int idx : it->second.wiped_params) {
          if (idx < 0 || static_cast<std::size_t>(idx) >= args.size()) continue;
          const auto [ab, ae] = args[static_cast<std::size_t>(idx)];
          if (ae == ab + 1 && toks_[ab].kind == TokenKind::kIdentifier) {
            s.taint.erase(toks_[ab].text);
            s.secrets.erase(toks_[ab].text);
          }
        }
      }
    }
  }

  /// reader.feed() / consume() / take_unconsumed() end the views a reader's
  /// next_view() handed out; buf.clear() / resize() / assign() recycle a
  /// scratch buffer. Views into either become stale.
  void apply_recycles(AbsState& s, std::size_t b, std::size_t e) {
    auto mark_stale = [&](const std::string& source) {
      for (auto& [name, v] : s.views)
        if (v.source == source) v.stale = true;
    };
    for (std::size_t i = b; i + 1 < e; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if ((t.text == "feed" || t.text == "consume" || t.text == "take_unconsumed") &&
          i >= b + 2 &&
          is_punct(toks_[i + 1], "(") &&
          (is_punct(toks_[i - 1], ".") || is_punct(toks_[i - 1], "->")) &&
          toks_[i - 2].kind == TokenKind::kIdentifier) {
        mark_stale(toks_[i - 2].text);
        continue;
      }
      if (is_scratch_name(t.text) &&
          (is_punct(toks_[i + 1], ".") || is_punct(toks_[i + 1], "->")) && i + 2 < e &&
          toks_[i + 2].kind == TokenKind::kIdentifier &&
          (toks_[i + 2].text == "clear" || toks_[i + 2].text == "resize" ||
           toks_[i + 2].text == "assign")) {
        mark_stale(t.text);
      }
    }
  }

  /// Parse `Type name = rhs;` / `Type name(rhs);` / `name = rhs;` /
  /// `x.y_ = rhs;` from a plain statement's token span.
  DeclOrAssign parse_decl_or_assign(std::size_t b, std::size_t e) const {
    DeclOrAssign out;
    if (b >= e) return out;
    // Trim the trailing `;`.
    std::size_t stmt_e = e;
    if (is_punct(toks_[stmt_e - 1], ";")) --stmt_e;
    if (b >= stmt_e) return out;

    // Find a top-level assignment operator.
    std::size_t eq = stmt_e;
    bool compound = false;
    int depth = 0;
    for (std::size_t i = b; i < stmt_e; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (depth != 0) continue;
      if (t.text == "=") {
        eq = i;
        break;
      }
      if (t.text.size() == 2 && t.text[1] == '=' && t.text != "==" && t.text != "!=" &&
          t.text != "<=" && t.text != ">=") {
        eq = i;
        compound = true;
        break;
      }
    }

    // For `=`-less statements the LHS of interest ends at the first
    // top-level `(`/`{` (a constructor initializer); for assignments it
    // ends at the operator.
    std::size_t lhs_e = eq;
    if (eq == stmt_e) {
      lhs_e = b;
      int d0 = 0;
      while (lhs_e < stmt_e) {
        if (is_punct(toks_[lhs_e], "(") || is_punct(toks_[lhs_e], "{")) {
          if (d0 == 0) break;
        }
        if (is_punct(toks_[lhs_e], "<")) ++d0;
        if (is_punct(toks_[lhs_e], ">")) d0 = std::max(0, d0 - 1);
        ++lhs_e;
      }
    }
    // Member / element target?
    bool member = false;
    for (std::size_t i = b; i < lhs_e; ++i) {
      if (is_punct(toks_[i], ".") || is_punct(toks_[i], "->") || is_punct(toks_[i], "["))
        member = true;
    }

    // Collect top-level identifier groups on the LHS.
    struct Group {
      std::string last_ident;
      int line = 0;
    };
    std::vector<Group> groups;
    bool ref_or_ptr = false;
    {
      int d = 0;
      bool in_group = false;
      bool joiner = false;  // saw `::` since the group's last identifier
      for (std::size_t i = b; i < lhs_e; ++i) {
        const Token& t = toks_[i];
        if (t.kind == TokenKind::kPunct) {
          if (t.text == "<" && i > b && toks_[i - 1].kind == TokenKind::kIdentifier) ++d;
          if (t.text == ">") d = std::max(0, d - 1);
          if (d > 0) continue;
          if (t.text == "*" || t.text == "&" || t.text == "&&") ref_or_ptr = true;
          if (t.text == "::") {
            joiner = true;
          } else {
            in_group = false;
            joiner = false;
          }
          continue;
        }
        if (d > 0) continue;
        if (t.kind != TokenKind::kIdentifier) {
          in_group = false;
          joiner = false;
          continue;
        }
        if (decl_keywords().count(t.text)) continue;
        // Adjacent identifiers (`Bytes okm`) are separate groups; only a
        // `::` joins identifiers into one qualified name.
        if (in_group && joiner) {
          groups.back().last_ident = t.text;
          groups.back().line = t.line;
        } else {
          groups.push_back(Group{t.text, t.line});
          in_group = true;
        }
        joiner = false;
      }
    }

    if (eq < stmt_e) {
      out.valid = true;
      out.compound = compound;
      out.rhs_begin = eq + 1;
      out.rhs_end = stmt_e;
      if (member) {
        // Only genuine member stores count (not `arr[i] =` onto a local —
        // but both are treated as opaque, which is safe for may-taint).
        out.lhs_member = true;
        return out;
      }
      if (groups.size() >= 2) {
        out.is_decl = true;
        out.type_last = groups[groups.size() - 2].last_ident;
        out.type_ref_or_ptr = ref_or_ptr;
      } else if (groups.size() != 1) {
        out.valid = false;
        return out;
      }
      out.name = groups.back().last_ident;
      out.name_line = groups.back().line;
      // Repo convention: a trailing '_' names a member, so `held_view_ = v;`
      // is a member store even without an explicit `this->`.
      if (!out.is_decl && !out.name.empty() && out.name.back() == '_') {
        out.lhs_member = true;
      }
      return out;
    }

    // No `=`: a constructor-initialized declaration `Type name(args);` /
    // `Type name{args};` / `Type name;` needs at least two ident groups
    // before the initializer.
    if (member || groups.size() < 2) return out;
    const std::size_t open = lhs_e;
    // The name must be the identifier just before the initializer (or the
    // statement end for `Type name;`).
    const std::size_t name_tok = open - 1;
    if (toks_[name_tok].kind != TokenKind::kIdentifier ||
        groups.back().last_ident != toks_[name_tok].text)
      return out;
    out.valid = true;
    out.is_decl = true;
    out.name = groups.back().last_ident;
    out.name_line = groups.back().line;
    out.type_last = groups[groups.size() - 2].last_ident;
    out.type_ref_or_ptr = ref_or_ptr;
    if (open < stmt_e) {
      out.rhs_begin = open + 1;
      const std::size_t close = is_punct(toks_[open], "(")
                                    ? close_paren(toks_, open, stmt_e)
                                    : stmt_e - 1;
      out.rhs_end = std::min(close, stmt_e);
    }
    return out;
  }

  /// `if (auto v = ...)` / `while (auto v = ...)` declare (or assign) `v`
  /// like a plain statement; a condition without an initializer declares
  /// nothing. Range-for headers bind their element (parse_range_for).
  DeclOrAssign parse_cond_decl(std::size_t b, std::size_t e) const {
    if (b + 1 < e && (toks_[b].text == "if" || toks_[b].text == "while") &&
        is_punct(toks_[b + 1], "(")) {
      const DeclOrAssign da = parse_decl_or_assign(b + 2, close_paren(toks_, b + 1, e));
      return da.valid && da.rhs_end > da.rhs_begin ? da : DeclOrAssign{};
    }
    return parse_range_for(b, e);
  }

  /// `for (Type name : range)` binds `name` to elements of `range`.
  DeclOrAssign parse_range_for(std::size_t b, std::size_t e) const {
    DeclOrAssign out;
    if (b >= e || toks_[b].text != "for") return out;
    std::size_t colon = e;
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      if (is_punct(toks_[i], "(") || is_punct(toks_[i], "[") || is_punct(toks_[i], "{"))
        ++depth;
      if (is_punct(toks_[i], ")") || is_punct(toks_[i], "]") || is_punct(toks_[i], "}"))
        --depth;
      if (is_punct(toks_[i], ":") && depth == 1) {
        colon = i;
        break;
      }
    }
    if (colon >= e || colon == b || toks_[colon - 1].kind != TokenKind::kIdentifier)
      return out;
    out.valid = true;
    out.is_decl = true;
    out.name = toks_[colon - 1].text;
    out.name_line = toks_[colon - 1].line;
    out.type_ref_or_ptr = true;  // element bindings are views, never owners
    out.rhs_begin = colon + 1;
    out.rhs_end = e > b && is_punct(toks_[e - 1], ")") ? e - 1 : e;
    return out;
  }

  const LexedFile& f_;
  const std::vector<Token>& toks_;
  const Cfg& cfg_;
  const Summaries& sums_;
  std::vector<AbsState> in_;
  std::set<std::string> declared_;  // parameters and declared locals
  struct Callback {
    std::size_t begin, end;  // the callback's body tokens
    std::string reader;
    std::map<std::string, ViewInfo> escaped;
  };
  std::vector<Callback> callbacks_;  // consume() callbacks inside this function
};

}  // namespace

std::vector<AnalyzedFile> analyze_files(const std::vector<LexedFile>& files) {
  std::vector<AnalyzedFile> out;
  out.reserve(files.size());
  for (const auto& f : files) {
    AnalyzedFile af;
    af.file = &f;
    af.cfgs = build_cfgs(f);
    out.push_back(std::move(af));
  }
  return out;
}

Summaries compute_summaries(const std::vector<AnalyzedFile>& files) {
  Summaries sums;
  // Fixed point over all TUs: each pass folds the previous pass's summaries
  // into every function's analysis, so secrets propagate across one more
  // call boundary per pass. Two passes reach the common cases (helper
  // returns a member secret; wrapper wipes a param); the loop runs until
  // stable with a small bound for pathological call chains.
  for (int pass = 0; pass < 4; ++pass) {
    Summaries next = sums;
    for (const auto& af : files) {
      for (const auto& cfg : af.cfgs) {
        FnTaint ft(*af.file, cfg, sums);
        ft.solve();
        FnSummary& fs = next[cfg.name];
        if (ft.returns_secret()) fs.returns_secret = true;
        for (int p : ft.wiped_params()) {
          if (std::find(fs.wiped_params.begin(), fs.wiped_params.end(), p) ==
              fs.wiped_params.end())
            fs.wiped_params.push_back(p);
        }
      }
    }
    const bool stable = next == sums;
    sums = std::move(next);
    if (stable) break;
  }
  return sums;
}

void run_dataflow_rules(const AnalyzedFile& af, const Summaries& summaries,
                        std::vector<Finding>& out) {
  for (const auto& cfg : af.cfgs) {
    FnTaint ft(*af.file, cfg, summaries, &af.cfgs);
    ft.solve();
    ft.report(out);
  }
}

}  // namespace mbtls::lint
