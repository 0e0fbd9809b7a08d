// Basic-block control-flow graphs for mbtls-lint's dataflow layer.
//
// A lightweight per-function parser over the lexer's token stream: it finds
// function definitions (free functions, methods, constructors — anything of
// the shape `name(...) ... {`), extracts their parameter names, and splits
// the body into basic blocks connected by edges for if/else, loops, switch,
// early returns, throws, break/continue and try/catch. It is deliberately
// NOT a C++ parser: statements stay as raw token spans and the taint engine
// (dataflow.h) interprets them with token-shape heuristics. What the CFG
// adds over the old single-pass rules is *paths*: a leak on one early-return
// arm, or a merge point where a tainted and a clean assignment join, is
// visible here and invisible to a flat token scan.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.h"

namespace mbtls::lint {

/// One statement: a half-open token range in the owning file's stream.
/// Control statements contribute their *header* only (the `if (cond)` part);
/// their controlled statements live in successor blocks.
struct Stmt {
  enum class Kind {
    kPlain,     // expression / declaration statement, `;`-terminated
    kCond,      // if/while/for/switch header (condition tokens included)
    kReturn,    // `return ...;` — block edge goes to the exit node
    kThrow,     // `throw ...;` — block edge goes to the throw-exit node
    kBreak,     // `break;`
    kContinue,  // `continue;`
  };
  Kind kind = Kind::kPlain;
  std::size_t begin = 0;  // token index, inclusive
  std::size_t end = 0;    // token index, exclusive
  int line = 0;           // line of the first token
};

struct Block {
  std::vector<Stmt> stmts;
  std::vector<int> succs;
};

struct Param {
  std::string name;
  int line = 0;
};

/// A function definition with its CFG. `blocks[entry]` is the entry block;
/// `exit_id` is a synthetic empty block every normal exit (return or falling
/// off the end) edges into; `throw_id` collects throw edges so unwind paths
/// are distinguishable from normal exits.
struct Cfg {
  std::string name;       // unqualified name ("seal")
  std::string qual_name;  // qualified spelling as written ("RecordWriter::seal")
  int line = 0;           // line of the name token
  std::vector<Param> params;
  std::vector<Block> blocks;
  int entry = 0;
  int exit_id = 0;
  int throw_id = 0;
  std::size_t body_begin = 0;  // token range of the braced body, braces excluded
  std::size_t body_end = 0;
  /// Set on a lambda handed to `reader.consume(...)` (a record reader's
  /// intake callback), which gets a CFG of its own: the reader's name. Its
  /// record parameter views bytes that die when the callback returns.
  std::string view_reader;
};

/// Extract every function definition in `f`, and every lambda handed to a
/// `consume(` call, and build its CFG.
std::vector<Cfg> build_cfgs(const LexedFile& f);

/// Blocks reachable from `entry` (dataflow only propagates through these;
/// code after an unconditional return stays bottom and cannot leak).
std::vector<bool> reachable_blocks(const Cfg& cfg);

}  // namespace mbtls::lint
