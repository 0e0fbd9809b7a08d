#include "tls/ticket.h"

namespace mbtls::tls {

TicketKeyManager::TicketKeyManager(std::string_view label, std::uint64_t seed)
    : rng_(label, seed) {
  current_ = fresh_key_locked();
}

TicketKeyManager::~TicketKeyManager() = default;  // Key dtors wipe secrets

TicketKeyManager::Key TicketKeyManager::fresh_key_locked() {
  Key key;
  key.name = rng_.bytes(kKeyNameLen);
  key.secret = rng_.bytes(32);
  return key;
}

const crypto::AesGcm& TicketKeyManager::aead_of(Key& key) {
  const crypto::Backend backend = crypto::active_backend();
  if (!key.aead || key.aead_backend != backend) {
    key.aead.emplace(key.secret);
    key.aead_backend = backend;
  }
  return *key.aead;
}

void TicketKeyManager::rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  // The manager is a shared cross-thread object: any connection thread may
  // rotate or seal. Draws from rng_ are serialized by mu_, so each one is a
  // deliberate ownership handoff as far as the Drbg discipline is concerned
  // (nonce/key-name draw *order* across threads is allowed to be
  // nondeterministic — these are random values, not a reproducible stream).
  rng_.rebind_owner_thread();
  // previous_'s old secret is wiped by the move-assignment's destruction
  // chain only if the vector reallocates; wipe explicitly first.
  secure_wipe(previous_.secret);
  previous_ = std::move(current_);
  current_ = fresh_key_locked();
  ++generation_;
}

Bytes TicketKeyManager::seal(ByteView plaintext) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.rebind_owner_thread();  // serialized by mu_ (see rotate())
  const crypto::AesGcm& gcm = aead_of(current_);
  const Bytes iv = rng_.bytes(kIvLen);
  // The key name is authenticated as AAD: moving a ciphertext under a
  // different generation's name fails the tag, not just the lookup.
  Bytes out = current_.name;
  append(out, iv);
  append(out, gcm.seal(iv, current_.name, plaintext));
  ++stats_.seals;
  return out;
}

std::optional<TicketKeyManager::Unsealed> TicketKeyManager::unseal(ByteView ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ticket.size() < kMinTicketLen) {
    ++stats_.rejects;
    return std::nullopt;
  }
  const ByteView name = ticket.first(kKeyNameLen);
  const ByteView iv = ticket.subspan(kKeyNameLen, kIvLen);
  const ByteView sealed = ticket.subspan(kKeyNameLen + kIvLen);

  Key* key = nullptr;
  bool stale = false;
  if (equal(name, current_.name)) {
    key = &current_;
  } else if (!previous_.name.empty() && equal(name, previous_.name)) {
    key = &previous_;
    stale = true;
  }
  if (!key) {
    ++stats_.rejects;
    return std::nullopt;
  }

  auto plain = aead_of(*key).open(iv, name, sealed);
  if (!plain) {
    ++stats_.rejects;
    return std::nullopt;
  }
  stale ? ++stats_.unseal_stale : ++stats_.unseal_current;
  return Unsealed{std::move(*plain), stale};
}

std::uint64_t TicketKeyManager::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

TicketKeyManager::Stats TicketKeyManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mbtls::tls
