// Flow-sensitive taint analysis over cfg.h's basic-block graphs.
//
// Layer 2 of mbtls-lint: a may-taint dataflow engine with repo-wide
// interprocedural call summaries. Taint *sources* are secret-named
// parameters and members, declarations annotated `// lint: secret`, and
// calls to functions whose summary says they return secret material. Taint
// *sinks* are trace emitters, worker-queue submissions, long-lived
// containers, and (via summaries) value returns. Sanitizers —
// key_fingerprint(), seal(), seal_into() — stop propagation.
//
// Three rule families run on top of the engine:
//
//  * trace-no-secret / queue-no-secret — reimplemented on dataflow: a
//    directly secret-named argument keeps the legacy rule id, and a secret
//    laundered into a neutrally-named local (including across one or more
//    call boundaries, via summaries) is reported as `secret-escape`.
//  * wipe-all-paths — every *normal* CFG exit of a function holding a
//    secret-named owning local must reach secure_wipe()/secure_wipe_object()
//    (or transfer ownership out: `return k`, `std::move(k)`, `swap`).
//    Path-sensitive: a wiped happy path with an unwiped early return is a
//    finding at the leaking return. Throw exits are exempt — unwind cleanup
//    belongs to wiping destructors, not inline wipe calls.
//  * dangling-span — views (ByteView/span/pointer/.data()) into reusable
//    buffers must not escape into members/containers/returns or be used
//    after the buffer is recycled. Two kinds of buffer: scratch buffers
//    (identifiers with a `scratch` segment), recycled by clear()/resize()/
//    assign(); and record readers, whose next_view() results die on that
//    reader's next feed(), consume() or take_unconsumed(), and whose
//    consume() callbacks' record views die when the callback returns (each
//    such callback is analyzed as a function of its own, cfg.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cfg.h"
#include "lexer.h"
#include "rules.h"

namespace mbtls::lint {

/// Interprocedural facts about one function name. Same-named functions
/// (overloads, same-named methods on different classes) are merged
/// conservatively: if any of them returns a secret, calls to that name are
/// treated as secret-returning.
struct FnSummary {
  bool returns_secret = false;
  std::vector<int> wiped_params;  // 0-based indices of by-ref params wiped

  bool operator==(const FnSummary& o) const {
    return returns_secret == o.returns_secret && wiped_params == o.wiped_params;
  }
};

using Summaries = std::map<std::string, FnSummary>;

/// One translation unit, lexed and CFG-built, ready for the engine.
struct AnalyzedFile {
  const LexedFile* file = nullptr;
  std::vector<Cfg> cfgs;
};

/// Build CFGs for every file.
std::vector<AnalyzedFile> analyze_files(const std::vector<LexedFile>& files);

/// Compute call summaries with repeated fixed-point passes over all TUs
/// (pass N sees pass N-1's summaries; stops when stable, bounded).
Summaries compute_summaries(const std::vector<AnalyzedFile>& files);

/// Run the dataflow rule families over one file and append findings.
void run_dataflow_rules(const AnalyzedFile& af, const Summaries& summaries,
                        std::vector<Finding>& out);

}  // namespace mbtls::lint
