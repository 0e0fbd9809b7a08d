#include "cfg.h"

#include <algorithm>
#include <set>

namespace mbtls::lint {

namespace {

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}

/// Index just past the matching close for the open bracket at `open`
/// (one of `(`/`[`/`{`), or `end` if unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open, std::size_t end) {
  const std::string& o = toks[open].text;
  const char* c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (toks[i].kind == TokenKind::kPunct) {
      if (toks[i].text == o) ++depth;
      if (toks[i].text == c && --depth == 0) return i + 1;
    }
  }
  return end;
}

/// Keywords that can precede `(` without being a function name.
const std::set<std::string>& non_name_keywords() {
  static const std::set<std::string> kSet = {
      "if",     "while",  "for",      "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "noexcept", "throw",  "new",
      "delete", "case",   "default",  "do",       "else",   "alignas",
      "static_assert",
  };
  return kSet;
}

const std::set<std::string>& cv_like_keywords() {
  static const std::set<std::string> kSet = {
      "const", "volatile", "unsigned", "signed", "struct", "class",
      "enum",  "typename", "constexpr", "register", "long", "short",
  };
  return kSet;
}

/// From the decoration run after a parameter list's `)`, decide whether a
/// function *body* follows, and if so return the index of its `{`.
/// Handles cv/ref qualifiers, noexcept(...), override/final, trailing
/// return types, and constructor initializer lists.
std::size_t find_body_brace(const std::vector<Token>& toks, std::size_t after_close) {
  const std::size_t n = toks.size();
  std::size_t i = after_close;
  bool in_ctor_init = false;
  while (i < n) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) return i;
    if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, ")") || is_punct(t, "]") ||
        is_punct(t, "}"))
      return n;  // declaration, defaulted, or mid-expression call
    if (is_punct(t, ",")) {
      // Commas separate constructor initializers; anywhere else they mean
      // this was a call inside a larger expression.
      if (!in_ctor_init) return n;
      ++i;
      continue;
    }
    if (is_punct(t, ":")) {
      in_ctor_init = true;
      ++i;
      continue;
    }
    if (is_punct(t, "(")) {
      // noexcept(...) / an initializer's argument list.
      i = skip_balanced(toks, i, n);
      continue;
    }
    if (in_ctor_init && t.kind == TokenKind::kIdentifier && i + 1 < n &&
        is_punct(toks[i + 1], "{")) {
      // Brace initializer `b_{y}`: skip it, it is not the body.
      i = skip_balanced(toks, i + 1, n);
      continue;
    }
    // Trailing return types and qualifier words pass through; any other
    // punctuation cannot appear between `)` and a body `{`.
    if (t.kind == TokenKind::kIdentifier || is_punct(t, "::") || is_punct(t, "->") ||
        is_punct(t, "<") || is_punct(t, ">") || is_punct(t, "*") || is_punct(t, "&") ||
        is_punct(t, "&&")) {
      ++i;
      continue;
    }
    return n;
  }
  return n;
}

/// Extract parameter names from the token span inside the parens.
std::vector<Param> extract_params(const std::vector<Token>& toks, std::size_t begin,
                                  std::size_t end) {
  std::vector<Param> out;
  std::size_t seg_begin = begin;
  int depth = 0;
  auto flush = [&](std::size_t seg_end) {
    // Cut at a top-level `=` (default argument).
    std::size_t cut = seg_end;
    int d = 0;
    for (std::size_t i = seg_begin; i < seg_end; ++i) {
      if (toks[i].kind != TokenKind::kPunct) continue;
      if (toks[i].text == "(" || toks[i].text == "{" || toks[i].text == "[" ||
          toks[i].text == "<")
        ++d;
      if (toks[i].text == ")" || toks[i].text == "}" || toks[i].text == "]" ||
          toks[i].text == ">")
        --d;
      if (toks[i].text == "=" && d == 0) {
        cut = i;
        break;
      }
    }
    // Parameter name = last identifier before the cut that is not a
    // cv/type keyword; a segment with fewer than two non-cv identifiers is
    // an unnamed parameter (`void f(int)`).
    int ident_count = 0;
    std::size_t name_idx = cut;
    int d2 = 0;
    for (std::size_t i = seg_begin; i < cut; ++i) {
      if (toks[i].kind == TokenKind::kPunct) {
        if (toks[i].text == "(" || toks[i].text == "{" || toks[i].text == "<") ++d2;
        if (toks[i].text == ")" || toks[i].text == "}" || toks[i].text == ">")
          d2 = std::max(0, d2 - 1);
        continue;
      }
      if (toks[i].kind != TokenKind::kIdentifier || d2 > 0) continue;
      if (cv_like_keywords().count(toks[i].text)) continue;
      ++ident_count;
      name_idx = i;
    }
    if (ident_count >= 2 && name_idx < cut) {
      out.push_back(Param{toks[name_idx].text, toks[name_idx].line});
    }
    seg_begin = seg_end + 1;
  };
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokenKind::kPunct) {
      if (toks[i].text == "(" || toks[i].text == "{" || toks[i].text == "[") ++depth;
      if (toks[i].text == ")" || toks[i].text == "}" || toks[i].text == "]")
        depth = std::max(0, depth - 1);
      if (toks[i].text == "," && depth == 0) flush(i);
    }
  }
  if (seg_begin < end) flush(end);
  return out;
}

// -------------------------------------------------------------- CFG builder

class CfgBuilder {
 public:
  explicit CfgBuilder(const std::vector<Token>& toks) : toks_(toks) {}

  void build(Cfg& cfg) {
    cfg_ = &cfg;
    cfg.blocks.clear();
    cfg.entry = new_block();
    cfg.exit_id = new_block();
    cfg.throw_id = new_block();
    cur_ = cfg.entry;
    parse_seq(cfg.body_begin, cfg.body_end, /*switch_head=*/-1);
    edge(cur_, cfg.exit_id);  // falling off the end
  }

 private:
  int new_block() {
    cfg_->blocks.emplace_back();
    return static_cast<int>(cfg_->blocks.size()) - 1;
  }
  void edge(int from, int to) {
    auto& s = cfg_->blocks[from].succs;
    if (std::find(s.begin(), s.end(), to) == s.end()) s.push_back(to);
  }
  void append(Stmt::Kind kind, std::size_t b, std::size_t e) {
    if (b >= e) return;
    cfg_->blocks[cur_].stmts.push_back(Stmt{kind, b, e, toks_[b].line});
  }
  /// End of the plain statement starting at `pos`: past the `;` at bracket
  /// depth 0. Mid-statement braces (lambdas, init lists, local structs) are
  /// skipped whole.
  std::size_t stmt_end(std::size_t pos, std::size_t end) const {
    std::size_t i = pos;
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") {
          i = skip_balanced(toks_, i, end);
          continue;
        }
        if (t.text == ";") return i + 1;
        if (t.text == "}") return i;  // ran off the enclosing scope
      }
      ++i;
    }
    return end;
  }

  void parse_seq(std::size_t begin, std::size_t end, int switch_head) {
    std::size_t pos = begin;
    bool first_label_seen = false;
    while (pos < end) {
      // Inside a switch body: each `case ...:` / `default:` run starts a new
      // block entered from the switch head, with fall-through from the
      // previous block.
      if (switch_head >= 0 && (is_ident(toks_[pos], "case") || is_ident(toks_[pos], "default"))) {
        std::size_t lbl = pos;
        while (lbl < end && !is_punct(toks_[lbl], ":")) ++lbl;
        const int prev = cur_;
        cur_ = new_block();
        edge(switch_head, cur_);
        if (first_label_seen) edge(prev, cur_);  // fall-through
        first_label_seen = true;
        pos = lbl + 1;
        continue;
      }
      const std::size_t next = parse_stmt(pos, end);
      pos = (next > pos) ? next : pos + 1;
    }
  }

  /// Parse one statement starting at `pos`; returns the index just past it.
  std::size_t parse_stmt(std::size_t pos, std::size_t end) {
    const Token& t = toks_[pos];

    if (is_punct(t, ";")) return pos + 1;
    if (is_punct(t, "{")) {
      const std::size_t close = skip_balanced(toks_, pos, end);
      parse_seq(pos + 1, close - 1 < end ? close - 1 : end, /*switch_head=*/-1);
      return close;
    }

    if (is_ident(t, "if")) return parse_if(pos, end);
    if (is_ident(t, "while")) return parse_while(pos, end);
    if (is_ident(t, "do")) return parse_do(pos, end);
    if (is_ident(t, "for")) return parse_for(pos, end);
    if (is_ident(t, "switch")) return parse_switch(pos, end);
    if (is_ident(t, "try")) return parse_try(pos, end);

    if (is_ident(t, "return") || is_ident(t, "throw")) {
      const bool is_ret = t.text == "return";
      const std::size_t e = stmt_end(pos, end);
      append(is_ret ? Stmt::Kind::kReturn : Stmt::Kind::kThrow, pos, e);
      edge(cur_, is_ret ? cfg_->exit_id : cfg_->throw_id);
      cur_ = new_block();  // anything after is unreachable from here
      return e;
    }
    if (is_ident(t, "break") || is_ident(t, "continue")) {
      const bool is_break = t.text == "break";
      const std::size_t e = stmt_end(pos, end);
      append(is_break ? Stmt::Kind::kBreak : Stmt::Kind::kContinue, pos, e);
      const auto& stack = is_break ? break_targets_ : continue_targets_;
      edge(cur_, stack.empty() ? cfg_->exit_id : stack.back());
      cur_ = new_block();
      return e;
    }

    const std::size_t e = stmt_end(pos, end);
    if (!throw_points_.empty()) {
      // A plain statement in a try body may throw before its own effects
      // (a consume() callback, say, before consume() returns): the state
      // before it is one the handlers can see.
      throw_points_.back().push_back(cur_);
      const int next = new_block();
      edge(cur_, next);
      cur_ = next;
    }
    append(Stmt::Kind::kPlain, pos, e);
    return e;
  }

  std::size_t parse_if(std::size_t pos, std::size_t end) {
    std::size_t open = pos + 1;
    // `if constexpr (...)`
    if (open < end && is_ident(toks_[open], "constexpr")) ++open;
    if (open >= end || !is_punct(toks_[open], "(")) return stmt_end(pos, end);
    const std::size_t cond_close = skip_balanced(toks_, open, end);
    append(Stmt::Kind::kCond, pos, cond_close);
    const int head = cur_;

    cur_ = new_block();
    edge(head, cur_);
    std::size_t p = parse_stmt(cond_close, end);
    const int then_end = cur_;

    if (p < end && is_ident(toks_[p], "else")) {
      cur_ = new_block();
      edge(head, cur_);
      p = parse_stmt(p + 1, end);
      const int else_end = cur_;
      const int merge = new_block();
      edge(then_end, merge);
      edge(else_end, merge);
      cur_ = merge;
    } else {
      const int merge = new_block();
      edge(then_end, merge);
      edge(head, merge);
      cur_ = merge;
    }
    return p;
  }

  std::size_t parse_while(std::size_t pos, std::size_t end) {
    const std::size_t open = pos + 1;
    if (open >= end || !is_punct(toks_[open], "(")) return stmt_end(pos, end);
    const std::size_t cond_close = skip_balanced(toks_, open, end);

    const int head = new_block();
    edge(cur_, head);
    cur_ = head;
    append(Stmt::Kind::kCond, pos, cond_close);

    const int body = new_block();
    const int after = new_block();
    edge(head, body);
    edge(head, after);
    continue_targets_.push_back(head);
    break_targets_.push_back(after);
    cur_ = body;
    const std::size_t p = parse_stmt(cond_close, end);
    edge(cur_, head);  // back edge
    continue_targets_.pop_back();
    break_targets_.pop_back();
    cur_ = after;
    return p;
  }

  std::size_t parse_do(std::size_t pos, std::size_t end) {
    const int body = new_block();
    edge(cur_, body);
    const int cond = new_block();
    const int after = new_block();
    continue_targets_.push_back(cond);
    break_targets_.push_back(after);
    cur_ = body;
    std::size_t p = parse_stmt(pos + 1, end);
    edge(cur_, cond);
    continue_targets_.pop_back();
    break_targets_.pop_back();

    // `while (...);`
    cur_ = cond;
    if (p < end && is_ident(toks_[p], "while") && p + 1 < end && is_punct(toks_[p + 1], "(")) {
      const std::size_t cond_close = skip_balanced(toks_, p + 1, end);
      append(Stmt::Kind::kCond, p, cond_close);
      p = cond_close;
      if (p < end && is_punct(toks_[p], ";")) ++p;
    }
    edge(cond, body);
    edge(cond, after);
    cur_ = after;
    return p;
  }

  std::size_t parse_for(std::size_t pos, std::size_t end) {
    const std::size_t open = pos + 1;
    if (open >= end || !is_punct(toks_[open], "(")) return stmt_end(pos, end);
    const std::size_t paren_end = skip_balanced(toks_, open, end);  // past `)`

    // Find top-level `;`s inside the parens: classic for has two,
    // range-for has none.
    std::vector<std::size_t> semis;
    int depth = 0;
    for (std::size_t i = open + 1; i + 1 < paren_end; ++i) {
      if (toks_[i].kind != TokenKind::kPunct) continue;
      if (toks_[i].text == "(" || toks_[i].text == "{" || toks_[i].text == "[") ++depth;
      if (toks_[i].text == ")" || toks_[i].text == "}" || toks_[i].text == "]") --depth;
      if (toks_[i].text == ";" && depth == 0) semis.push_back(i);
    }

    const int after = new_block();
    const int head = new_block();
    int inc_block = -1;

    if (semis.size() >= 2) {
      append(Stmt::Kind::kPlain, open + 1, semis[0]);  // init runs once, before head
      edge(cur_, head);
      cur_ = head;
      append(Stmt::Kind::kCond, semis[0] + 1, semis[1]);  // may be empty
      inc_block = new_block();
    } else {
      // Range-for: the whole header is the loop head.
      edge(cur_, head);
      cur_ = head;
      append(Stmt::Kind::kCond, pos, paren_end);
    }

    const int body = new_block();
    edge(head, body);
    edge(head, after);
    continue_targets_.push_back(inc_block >= 0 ? inc_block : head);
    break_targets_.push_back(after);
    cur_ = body;
    const std::size_t p = parse_stmt(paren_end, end);
    if (inc_block >= 0) {
      edge(cur_, inc_block);
      cur_ = inc_block;
      append(Stmt::Kind::kPlain, semis[1] + 1, paren_end - 1);
      edge(inc_block, head);
    } else {
      edge(cur_, head);
    }
    continue_targets_.pop_back();
    break_targets_.pop_back();
    cur_ = after;
    return p;
  }

  std::size_t parse_switch(std::size_t pos, std::size_t end) {
    const std::size_t open = pos + 1;
    if (open >= end || !is_punct(toks_[open], "(")) return stmt_end(pos, end);
    const std::size_t cond_close = skip_balanced(toks_, open, end);
    append(Stmt::Kind::kCond, pos, cond_close);
    const int head = cur_;
    const int after = new_block();

    if (cond_close < end && is_punct(toks_[cond_close], "{")) {
      const std::size_t body_close = skip_balanced(toks_, cond_close, end);
      break_targets_.push_back(after);
      cur_ = new_block();  // statements before the first label are dead code
      parse_seq(cond_close + 1, body_close - 1, /*switch_head=*/head);
      edge(cur_, after);  // fall off the last case
      break_targets_.pop_back();
      // Conservative: a missing/unreached default skips the body entirely.
      edge(head, after);
      cur_ = after;
      return body_close;
    }
    cur_ = after;
    edge(head, after);
    return cond_close;
  }

  std::size_t parse_try(std::size_t pos, std::size_t end) {
    const int pre = cur_;
    std::size_t p = pos + 1;
    if (p >= end || !is_punct(toks_[p], "{")) return stmt_end(pos, end);
    throw_points_.emplace_back();
    p = parse_stmt(p, end);  // the try compound, parsed in normal flow
    const std::vector<int> points = std::move(throw_points_.back());
    throw_points_.pop_back();
    // What the handlers do not catch may reach an enclosing try's.
    if (!throw_points_.empty())
      throw_points_.back().insert(throw_points_.back().end(), points.begin(), points.end());
    const int merge = new_block();
    edge(cur_, merge);
    while (p < end && is_ident(toks_[p], "catch")) {
      std::size_t q = p + 1;
      if (q < end && is_punct(toks_[q], "(")) q = skip_balanced(toks_, q, end);
      const int handler = new_block();
      // An exception can arise anywhere in the try body: the handler is
      // entered from the pre-try state and from the state before each plain
      // statement of the body.
      edge(pre, handler);
      for (int point : points) edge(point, handler);
      cur_ = handler;
      if (q < end && is_punct(toks_[q], "{")) q = parse_stmt(q, end);
      edge(cur_, merge);
      p = q;
    }
    cur_ = merge;
    return p;
  }

  const std::vector<Token>& toks_;
  Cfg* cfg_ = nullptr;
  int cur_ = 0;
  std::vector<int> break_targets_;
  std::vector<int> continue_targets_;
  std::vector<std::vector<int>> throw_points_;  // per open try body, innermost last
};

/// The lambdas among the arguments of the `reader.consume(` call whose
/// parens span [open, close): one CFG each, marked with the reader.
void add_consume_callbacks(const std::vector<Token>& toks, std::size_t open, std::size_t close,
                           std::vector<Cfg>& out) {
  if (open < 3 || toks[open - 3].kind != TokenKind::kIdentifier ||
      !(is_punct(toks[open - 2], ".") || is_punct(toks[open - 2], "->")))
    return;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (!is_punct(toks[i], "[")) continue;
    const std::size_t params = skip_balanced(toks, i, close);  // `(` after the captures
    if (params >= close || !is_punct(toks[params], "(")) continue;
    const std::size_t params_end = skip_balanced(toks, params, close);
    const std::size_t brace = find_body_brace(toks, params_end);
    if (brace >= close) continue;
    const std::size_t body_close = skip_balanced(toks, brace, close);
    Cfg cfg;
    cfg.name = "consume-callback";  // not an identifier: no call site matches it
    cfg.qual_name = toks[open - 3].text + ".consume callback";
    cfg.line = toks[i].line;
    cfg.view_reader = toks[open - 3].text;
    cfg.params = extract_params(toks, params + 1, params_end - 1);
    cfg.body_begin = brace + 1;
    cfg.body_end = body_close - 1;
    CfgBuilder(toks).build(cfg);
    out.push_back(std::move(cfg));
    i = body_close - 1;
  }
}

}  // namespace

std::vector<Cfg> build_cfgs(const LexedFile& f) {
  std::vector<Cfg> out;
  const auto& toks = f.tokens;
  const std::size_t n = toks.size();

  for (std::size_t i = 1; i < n; ++i) {
    if (!is_punct(toks[i], "(")) continue;
    const Token& name = toks[i - 1];
    if (name.kind != TokenKind::kIdentifier) continue;
    if (non_name_keywords().count(name.text)) continue;
    const std::size_t close = skip_balanced(toks, i, n);
    if (close >= n) continue;
    const std::size_t brace = find_body_brace(toks, close);
    if (brace >= n) {
      if (name.text == "consume") add_consume_callbacks(toks, i, close - 1, out);
      continue;
    }
    const std::size_t body_close = skip_balanced(toks, brace, n);

    Cfg cfg;
    cfg.name = name.text;
    cfg.line = name.line;
    cfg.body_begin = brace + 1;
    cfg.body_end = body_close > brace ? body_close - 1 : brace + 1;
    cfg.params = extract_params(toks, i + 1, close - 1);
    // Qualified spelling: walk `A::B::name` backwards.
    std::size_t q = i - 1;
    std::string qual = name.text;
    while (q >= 2 && is_punct(toks[q - 1], "::") && toks[q - 2].kind == TokenKind::kIdentifier) {
      qual = toks[q - 2].text + "::" + qual;
      q -= 2;
    }
    cfg.qual_name = std::move(qual);

    CfgBuilder builder(toks);
    builder.build(cfg);
    out.push_back(std::move(cfg));
  }
  return out;
}

std::vector<bool> reachable_blocks(const Cfg& cfg) {
  std::vector<bool> seen(cfg.blocks.size(), false);
  std::vector<int> stack = {cfg.entry};
  seen[cfg.entry] = true;
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    for (int s : cfg.blocks[b].succs) {
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return seen;
}

}  // namespace mbtls::lint
