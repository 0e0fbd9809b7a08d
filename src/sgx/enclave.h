// Simulated Intel SGX: secure execution environments with protected memory,
// code measurement, sealing, remote attestation, and ECALL transition
// accounting.
//
// Substitution notes (see DESIGN.md): the paper runs its middlebox TLS stack
// inside real SGX enclaves. This simulation preserves the two properties the
// protocol depends on, in an *executable* way:
//
//  1. Memory isolation. Every byte a program stores lives in a MemoryStore.
//     The Platform (the middlebox infrastructure provider's machine) exposes
//     an adversary view: untrusted stores are readable in plaintext, enclave
//     stores only as AES-GCM ciphertext under a per-CPU key the adversary
//     does not hold. The Table-1 attack "MIP reads session keys from RAM"
//     actually executes against this view.
//
//  2. Remote attestation. Only an Enclave can mint a Quote; quotes are
//     ECDSA-signed by the simulated Intel attestation service key over
//     (measurement || report_data), so a verifier learns what code runs in
//     the enclave and can bind the quote to a handshake transcript.
//
//  3. Transition cost. ECALL/OCALL boundary crossings burn a calibrated
//     amount of CPU, so the Figure-7 throughput experiment and every
//     enclave-backed middlebox pay a real overhead rather than a constant.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/drbg.h"
#include "util/bytes.h"

namespace mbtls::sgx {

/// A code measurement (analog of MRENCLAVE): SHA-256 of the code identity
/// string and configuration.
Bytes measure(std::string_view code_identity, ByteView config = {});

/// Named byte storage. Programs keep secrets (keys, plaintext buffers) in a
/// MemoryStore so the adversary view in Platform is meaningful.
///
/// NOT thread-safe: a MemoryStore belongs to the one event loop that owns
/// its session (DESIGN.md "Multi-loop transport"). The record path never
/// touches it: a joined middlebox keeps its hop keys in per-session
/// HopDuplex state (mbtls::mb::Middlebox).
class MemoryStore {
 public:
  void put(std::string name, Bytes value) { data_[std::move(name)] = std::move(value); }
  std::optional<Bytes> get(const std::string& name) const;
  void erase(const std::string& name) { data_.erase(name); }
  const std::map<std::string, Bytes>& raw() const { return data_; }

 private:
  std::map<std::string, Bytes> data_;
};

class Platform;

class Enclave {
 public:
  const Bytes& measurement() const { return measurement_; }
  const std::string& code_identity() const { return code_identity_; }

  /// Protected memory: contents visible to code "inside" the enclave,
  /// ciphertext-only to the platform adversary view.
  MemoryStore& memory() { return memory_; }
  const MemoryStore& memory() const { return memory_; }

  /// Execute `f` inside the enclave. Burns the configured transition cost on
  /// entry and exit and counts the crossing. Returns f's result.
  ///
  /// Thread-safety: like real SGX (one TCS per thread), an enclave may be
  /// entered concurrently from several event loops; the transition counters
  /// are atomic and burn_cycles is purely local. Enclave *state* (memory(),
  /// seal()) stays with the loop that owns the session.
  template <typename F>
  auto ecall(F&& f) {
    enter();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      leave();
    } else {
      auto result = f();
      leave();
      return result;
    }
  }

  /// Batched transition: one ECALL carries many records' worth of work, so
  /// the fixed boundary-crossing cost is paid once per batch instead of once
  /// per record — the amortization Knauth et al. identify as the key SGX+TLS
  /// throughput lever. `f` returns the number of records it handled, which
  /// is what batched_records() accumulates. mb::Middlebox makes one such
  /// crossing per transport read.
  template <typename F>
  void ecall_batch(F&& f) {
    const std::size_t records = ecall(std::forward<F>(f));
    batch_ecalls_.fetch_add(1, std::memory_order_relaxed);
    batched_records_.fetch_add(records, std::memory_order_relaxed);
  }

  /// Produce an attestation quote binding this enclave's measurement to
  /// `report_data` (at most 64 bytes, zero-padded).
  struct QuoteData {
    Bytes measurement;
    Bytes report_data;  // 64 bytes
    Bytes signature;    // Intel attestation service ECDSA over the above

    Bytes encode() const;
    static std::optional<QuoteData> decode(ByteView wire);
  };
  QuoteData quote(ByteView report_data) const;

  /// Sealing: AES-GCM under a key derived from (CPU sealing key,
  /// measurement); only the same enclave code on the same platform unseals.
  Bytes seal(ByteView plaintext);
  std::optional<Bytes> unseal(ByteView sealed) const;

  std::uint64_t transitions() const { return transitions_.load(std::memory_order_relaxed); }
  /// Number of ecall_batch() crossings and the records they carried.
  std::uint64_t batch_ecalls() const { return batch_ecalls_.load(std::memory_order_relaxed); }
  std::uint64_t batched_records() const {
    return batched_records_.load(std::memory_order_relaxed);
  }

 private:
  friend class Platform;
  Enclave(Platform& platform, std::string code_identity, ByteView config);

  void enter();
  void leave();

  Platform& platform_;
  std::string code_identity_;
  Bytes measurement_;
  MemoryStore memory_;
  Bytes sealing_key_;
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> batch_ecalls_{0};
  std::atomic<std::uint64_t> batched_records_{0};
  std::uint64_t seal_counter_ = 0;
};

/// The adversary's (MIP's) view of one memory region.
struct MemoryRegionView {
  std::string name;
  bool encrypted;  // true for enclave pages
  Bytes contents;  // plaintext if !encrypted, AES-GCM ciphertext otherwise
};

/// A machine owned by the middlebox infrastructure provider. Hosts enclaves
/// and untrusted memory; provides the adversary view used by the attack
/// harness.
class Platform {
 public:
  /// `platform_seed` models the per-CPU secrets (sealing/encryption keys).
  explicit Platform(std::uint64_t platform_seed = 0);

  /// Launch an enclave running the given code. The returned reference lives
  /// as long as the platform.
  Enclave& launch(std::string code_identity, ByteView config = {});

  /// Untrusted (regular) memory on this machine.
  MemoryStore& untrusted_memory() { return untrusted_; }

  /// Cost burned on each enclave boundary crossing, in calibration-loop
  /// iterations (~cycles). Default approximates published SGX transition
  /// costs (~8000 cycles).
  void set_transition_cost(std::uint64_t iterations) { transition_cost_ = iterations; }
  std::uint64_t transition_cost() const { return transition_cost_; }

  /// ADVERSARY VIEW: everything a malicious operator can read off this
  /// machine. Untrusted memory appears in plaintext; enclave memory is
  /// encrypted by the (simulated) memory-encryption engine.
  std::vector<MemoryRegionView> adversary_memory_view() const;

  /// Convenience for attack code: search the adversary view for a byte
  /// pattern (e.g. a session key). Returns the region names that contain it.
  std::vector<std::string> adversary_find_secret(ByteView needle) const;

  std::uint64_t total_transitions() const;

 private:
  friend class Enclave;

  Bytes memory_encryption_key_;  // MEE key: never exposed via adversary view
  Bytes sealing_root_;
  std::uint64_t transition_cost_ = 8000;
  MemoryStore untrusted_;
  std::vector<std::unique_ptr<Enclave>> enclaves_;
  crypto::Drbg rng_;
};

/// Burn `iterations` of calibrated work (models enclave-transition cost).
void burn_cycles(std::uint64_t iterations);

}  // namespace mbtls::sgx
