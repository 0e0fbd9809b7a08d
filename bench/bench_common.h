// Shared helpers for the figure/table benchmark binaries: a process-wide
// benchmark CA and identities, per-party CPU timers, and mean/CI statistics.
#pragma once

#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "crypto/backend.h"
#include "x509/certificate.h"

namespace mbtls::bench {

inline crypto::Drbg& rng() {
  static crypto::Drbg r("bench", 0);
  return r;
}

inline const x509::CertificateAuthority& ca() {
  static const auto authority =
      x509::CertificateAuthority::create("Bench Root CA", x509::KeyType::kEcdsaP256, rng());
  return authority;
}

struct Identity {
  std::shared_ptr<x509::PrivateKey> key;
  std::vector<x509::Certificate> chain;
};

/// Issue an identity; RSA keys use full 2048-bit moduli (the paper's
/// ECDHE-RSA / DHE-RSA suites sign with RSA certificates).
inline Identity make_identity(const std::string& cn,
                              x509::KeyType type = x509::KeyType::kRsa) {
  Identity id;
  id.key = std::make_shared<x509::PrivateKey>(x509::PrivateKey::generate(type, rng(), 2048));
  x509::CertRequest req;
  req.subject_cn = cn;
  req.san_dns = {cn};
  req.not_after = 2524607999;
  req.key = id.key->public_key();
  id.chain = {ca().issue(req, rng())};
  return id;
}

/// The calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID) in nanoseconds:
/// time the thread spends descheduled on a loaded host is not counted.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Accumulates CPU time spent inside one party's calls: the calling
/// thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), so time the thread spends
/// descheduled on a loaded host is not counted.
class PartyTimer {
 public:
  template <typename F>
  auto time(F&& f) {
    const std::int64_t start = thread_cpu_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      total_ns_ += thread_cpu_ns() - start;
    } else {
      auto result = f();
      total_ns_ += thread_cpu_ns() - start;
      return result;
    }
  }

  double ms() const { return static_cast<double>(total_ns_) / 1e6; }
  void reset() { total_ns_ = 0; }

 private:
  std::int64_t total_ns_ = 0;
};

struct Stats {
  double mean = 0;
  double ci95 = 0;  // half-width of the 95% confidence interval of the mean
};

inline Stats stats_of(const std::vector<double>& samples) {
  Stats s;
  if (samples.empty()) return s;
  double sum = 0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return s;
  double var = 0;
  for (const double v : samples) var += (v - s.mean) * (v - s.mean);
  var /= static_cast<double>(samples.size() - 1);
  s.ci95 = 1.96 * std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

/// Trials from argv ("--trials N"), with a default.
inline int trials_arg(int argc, char** argv, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trials") return std::atoi(argv[i + 1]);
  }
  return fallback;
}

/// Value of "<flag> VALUE" from argv; empty when absent.
inline std::string value_arg(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return {};
}

/// Output path from argv ("--json PATH"); empty when not requested.
inline std::string json_arg(int argc, char** argv) {
  return value_arg(argc, argv, "--json");
}

/// Output path from argv ("--trace PATH"): where benches that support
/// tracing write a Chrome trace-event JSON (chrome://tracing / Perfetto).
inline std::string trace_arg(int argc, char** argv) {
  return value_arg(argc, argv, "--trace");
}

/// Write `body` to `path`; returns false on I/O failure.
inline bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

/// Minimal ordered JSON emitter for the BENCH_*.json files every bench
/// binary writes under --json. Supports objects, arrays, numbers, and
/// strings — scripts/bench.sh chains these into the perf-regression record,
/// so the shape must stay machine-stable across PRs.
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  Json& add(const std::string& key, double v) {
    sep();
    text_ += quote(key) + ":" + num(v);
    return *this;
  }
  Json& add(const std::string& key, const std::string& v) {
    sep();
    text_ += quote(key) + ":" + quote(v);
    return *this;
  }
  Json& add(const std::string& key, const Json& v) {
    sep();
    text_ += quote(key) + ":" + v.str();
    return *this;
  }
  Json& push(const Json& v) {
    sep();
    text_ += v.str();
    return *this;
  }

  std::string str() const { return text_ + (kind_ == Kind::kObject ? "}" : "]"); }

  /// Write to `path` with a trailing newline; returns false on I/O failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string body = str() + "\n";
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  enum class Kind { kObject, kArray };
  explicit Json(Kind kind) : kind_(kind), text_(kind == Kind::kObject ? "{" : "[") {}

  void sep() {
    if (!first_) text_ += ",";
    first_ = false;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  Kind kind_;
  bool first_ = true;
  std::string text_;
};

/// Stamps the resolved crypto backend and the host's CPU feature set into a
/// JSON document. Every BENCH_*.json carries these fields so a committed
/// baseline records which backend produced it — numbers from a forced-scalar
/// run and an AES-NI run are not comparable, and scripts/bench.sh surfaces
/// the fields when refreshing baselines.
inline Json& add_backend_fields(Json& doc) {
  return doc.add("backend", std::string(crypto::active_backend_name()))
      .add("cpu_features", crypto::cpu_feature_string());
}

}  // namespace mbtls::bench
