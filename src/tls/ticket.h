// Stateless session tickets under a rotating AEAD key (§3.5 at scale).
//
// The manager is the engine's ticket key (Config::ticket_keys); the only
// other sealer is an SGX enclave's sealing key. It rotates the
// ticket-protection key on a schedule so a key compromise only exposes
// tickets from the last rotation window, keeping exactly two generations
// live:
//
//   * tickets seal under the CURRENT key and carry its 16-byte key name;
//   * tickets sealed under the PREVIOUS key still unseal (clients resuming
//     across one rotation stay on the fast path) but are flagged stale so
//     the server reissues a fresh ticket under the current key;
//   * anything older — or any unknown key name — is rejected, which the
//     engine turns into a clean fall back to a full handshake.
//
// Thread safety: one manager is shared by every server engine in the
// process (that is the point — rotation is a fleet-wide event), so all
// methods take an internal lock. The hot path is one AES-256-GCM call.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "crypto/backend.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "util/bytes.h"

namespace mbtls::tls {

class TicketKeyManager {
 public:
  static constexpr std::size_t kKeyNameLen = 16;
  static constexpr std::size_t kIvLen = 12;
  static constexpr std::size_t kTagLen = 16;
  /// Smallest well-formed ticket: key name, IV, and the AEAD tag of an
  /// empty plaintext. Anything shorter is rejected before any crypto runs.
  static constexpr std::size_t kMinTicketLen = kKeyNameLen + kIvLen + kTagLen;

  /// Seeds the key schedule deterministically (benchmarks, reproducible
  /// tests); production embedders pick a high-entropy seed.
  explicit TicketKeyManager(std::string_view label = "ticket-keys",
                            std::uint64_t seed = 0);
  ~TicketKeyManager();
  TicketKeyManager(const TicketKeyManager&) = delete;
  TicketKeyManager& operator=(const TicketKeyManager&) = delete;

  /// Retire the previous key, demote the current key, and install a fresh
  /// one. Tickets sealed two or more rotations ago stop unsealing.
  void rotate();

  /// Seal `plaintext` into key_name || iv || ciphertext || tag under the
  /// current key.
  Bytes seal(ByteView plaintext);

  struct Unsealed {
    Bytes plaintext;
    /// Sealed under the previous (still-accepted) key: the caller should
    /// reissue a fresh ticket so the client survives the next rotation too.
    bool stale = false;
  };

  /// Open a ticket sealed by this manager under the current or previous
  /// key. Unknown key name, truncation, or authentication failure yield
  /// nullopt — the caller falls back to a full handshake, never an abort.
  std::optional<Unsealed> unseal(ByteView ticket);

  /// How many times rotate() has run (generation of the current key).
  std::uint64_t generation() const;

  struct Stats {
    std::uint64_t seals = 0;
    std::uint64_t unseal_current = 0;  // opened under the current key
    std::uint64_t unseal_stale = 0;    // opened under the previous key
    std::uint64_t rejects = 0;         // unknown name / truncated / bad tag
  };
  Stats stats() const;

 private:
  struct Key {
    Bytes name;    // public 16-byte identifier, sent in the clear
    Bytes secret;  // lint: secret
    // The AEAD under `secret`, built on first use and rebuilt only when the
    // crypto backend changes: its key schedule and GHASH tables cost more
    // than sealing one ticket.
    std::optional<crypto::AesGcm> aead;
    crypto::Backend aead_backend = crypto::Backend::kScalar;
    Key() = default;
    Key(Key&&) = default;
    Key& operator=(Key&&) = default;
    ~Key() { secure_wipe(secret); }
  };

  Key fresh_key_locked();
  static const crypto::AesGcm& aead_of(Key& key);

  mutable std::mutex mu_;
  crypto::Drbg rng_;
  Key current_;
  Key previous_;  // empty name = no previous generation yet
  std::uint64_t generation_ = 0;
  Stats stats_;
};

}  // namespace mbtls::tls
