// TLS 1.2 handshake message structures and their wire codecs, including the
// mbTLS additions: the MiddleboxSupport extension, the SGXAttestation
// handshake message, and the MBTLSKeyMaterial record body (Appendix A).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tls/common.h"
#include "util/reader.h"

namespace mbtls::tls {

struct Extension {
  std::uint16_t type = 0;
  Bytes data;
};

/// type + 24-bit length framing around a handshake body.
Bytes wrap_handshake(HandshakeType type, ByteView body);

/// A reassembled handshake message.
struct HandshakeMsg {
  HandshakeType type;
  Bytes body;
  Bytes raw;  // full message incl. header — fed to the transcript hash
};

/// Incremental handshake-stream reassembler (messages may span records).
class HandshakeReassembler {
 public:
  void feed(ByteView record_payload);
  /// The unparsed bytes: a record layer opens payloads straight onto them.
  Bytes& input() { return buffer_; }
  std::optional<HandshakeMsg> next();
  bool empty() const { return buffer_.empty(); }

 private:
  Bytes buffer_;
};

// ----------------------------------------------------------------- hellos

struct ClientHello {
  Bytes random;  // 32 bytes
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<Extension> extensions;

  Bytes encode_body() const;
  static ClientHello parse(ByteView body);
  const Extension* find_extension(std::uint16_t type) const;
};

struct ServerHello {
  Bytes random;
  Bytes session_id;
  std::uint16_t cipher_suite = 0;
  std::vector<Extension> extensions;

  Bytes encode_body() const;
  static ServerHello parse(ByteView body);
};

// ------------------------------------------------------------ certificates

struct CertificateMsg {
  std::vector<Bytes> chain_der;  // leaf first

  Bytes encode_body() const;
  static CertificateMsg parse(ByteView body);
};

// ------------------------------------------------------------ key exchange

/// Signed ephemeral parameters. `params` is the raw parameter bytes the
/// signature covers (together with both randoms).
struct ServerKeyExchange {
  KeyExchange kx = KeyExchange::kEcdhe;
  // ECDHE
  Bytes ec_point;
  // DHE
  Bytes dh_p, dh_g, dh_ys;
  // Signature over client_random || server_random || params.
  std::uint8_t sig_hash = 0;  // HashAlgorithm registry value
  std::uint8_t sig_algo = 0;  // SignatureAlgorithm registry value (1=RSA, 3=ECDSA)
  Bytes signature;

  Bytes params_bytes() const;
  Bytes encode_body() const;
  static ServerKeyExchange parse(ByteView body, KeyExchange kx);
};

struct ClientKeyExchange {
  KeyExchange kx = KeyExchange::kEcdhe;
  Bytes public_value;  // EC point or DH Yc

  Bytes encode_body() const;
  static ClientKeyExchange parse(ByteView body, KeyExchange kx);
};

// ------------------------------------------------------------- attestation

struct SgxAttestationMsg {
  Bytes quote;  // sgx::Enclave::QuoteData::encode()

  Bytes encode_body() const;
  static SgxAttestationMsg parse(ByteView body);
};

// ------------------------------------------------- MiddleboxSupport (mbTLS)

/// Paper Appendix A.2: announces client mbTLS support and lists middleboxes
/// known a priori. `optimistic_hellos` carries extra ClientHellos for
/// middleboxes that need distinct parameters (unused when the primary hello
/// serves double duty, which is the common case and what our stack does).
struct MiddleboxSupportExtension {
  std::vector<Bytes> optimistic_hellos;
  std::vector<std::string> known_middleboxes;

  Bytes encode() const;
  static MiddleboxSupportExtension parse(ByteView data);
};

// -------------------------------------------- MBTLSKeyMaterial record body

/// Paper Appendix A.1: key material an endpoint ships to a middlebox over
/// the (encrypted) secondary session — one direction-pair per adjacent hop.
struct HopKeys {
  Bytes client_to_server_key;  // lint: secret
  Bytes client_to_server_iv;   // 4-byte GCM salt
  Bytes server_to_client_key;  // lint: secret
  Bytes server_to_client_iv;
  std::uint64_t client_to_server_seq = 0;
  std::uint64_t server_to_client_seq = 0;

  HopKeys() = default;
  HopKeys(const HopKeys&) = default;
  HopKeys(HopKeys&&) = default;
  HopKeys& operator=(const HopKeys&) = default;
  HopKeys& operator=(HopKeys&&) = default;
  // Hop keys are copied into every node of a session chain; each copy
  // scrubs itself when it dies (P1/P4 rest on these bytes staying private).
  ~HopKeys() {
    secure_wipe(client_to_server_key);
    secure_wipe(client_to_server_iv);
    secure_wipe(server_to_client_key);
    secure_wipe(server_to_client_iv);
  }
};

struct KeyMaterialMsg {
  std::uint16_t version = kVersionTls12;
  std::uint16_t cipher_suite = 0;
  HopKeys toward_client;  // hop on the middlebox's client side
  HopKeys toward_server;  // hop on the middlebox's server side

  Bytes encode() const;
  static std::optional<KeyMaterialMsg> parse(ByteView data);
};

// ----------------------------------------------------- Encapsulated records

/// Body of an Encapsulated record: subchannel ID + a complete inner record.
struct EncapsulatedRecord {
  std::uint8_t subchannel = 0;
  Bytes inner_record;  // full TLS record (header + payload)

  Bytes encode() const;
  static std::optional<EncapsulatedRecord> parse(ByteView data);
};

// -------------------------------------------------------------- extensions

Bytes encode_extensions(const std::vector<Extension>& extensions);
std::vector<Extension> parse_extensions(Reader& r);

/// server_name extension helpers (host_name entry only).
Bytes encode_sni(std::string_view host);
std::optional<std::string> parse_sni(ByteView data);

}  // namespace mbtls::tls
