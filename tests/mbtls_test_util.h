// Helpers for mbTLS integration tests: build client/server/middlebox chains
// over in-memory pipes and pump them to quiescence.
#pragma once

#include <functional>
#include <memory>

#include "mbtls/client.h"
#include "mbtls/middlebox.h"
#include "mbtls/server.h"
#include "tests/tls_test_util.h"

namespace mbtls::mb::testing {

using tls::testing::make_identity;
using tls::testing::shared_rng;
using tls::testing::test_ca;

inline ClientSession::Options client_options(const std::string& server_name,
                                             std::uint64_t seed = 1) {
  ClientSession::Options opts;
  opts.tls.is_client = true;
  opts.tls.trust_anchors = {test_ca().root()};
  opts.tls.server_name = server_name;
  opts.tls.rng_label = "mb-client";
  opts.tls.rng_seed = seed;
  return opts;
}

inline ServerSession::Options server_options(const tls::testing::ServerIdentity& id,
                                             std::uint64_t seed = 2) {
  ServerSession::Options opts;
  opts.tls.is_client = false;
  opts.tls.private_key = id.key;
  opts.tls.certificate_chain = id.chain;
  opts.tls.trust_anchors = {test_ca().root()};
  opts.tls.rng_label = "mb-server";
  opts.tls.rng_seed = seed;
  return opts;
}

inline Middlebox::Options middlebox_options(const std::string& name, Middlebox::Side side) {
  const auto id = make_identity(name);
  Middlebox::Options opts;
  opts.name = name;
  opts.side = side;
  opts.private_key = id.key;
  opts.certificate_chain = id.chain;
  return opts;
}

/// A chain: client -- [mbox...] -- server (plain TLS engine or ServerSession).
/// Pumps all byte streams until quiescent.
struct Chain {
  ClientSession* client = nullptr;
  tls::Engine* legacy_client = nullptr;  // alternative to `client`
  std::vector<Middlebox*> middleboxes;   // in path order, client first
  ServerSession* server = nullptr;
  tls::Engine* legacy_server = nullptr;  // alternative to `server`
  // Optional wire tap: sees every byte the middlebox at index `hop` sends
  // toward the client.
  std::function<void(std::size_t hop, ByteView bytes)> tap_to_client = nullptr;

  // Moves bytes one step; returns true if anything moved.
  bool step() {
    bool moved = false;
    auto move = [&](Bytes&& data, auto&& sink) {
      if (!data.empty()) {
        moved = true;
        sink(data);
      }
    };

    // Client egress -> first middlebox (or server).
    Bytes from_client = client ? client->take_output()
                               : (legacy_client ? legacy_client->take_output() : Bytes{});
    if (!middleboxes.empty()) {
      move(std::move(from_client), [&](const Bytes& d) { middleboxes[0]->feed_from_client(d); });
    } else {
      move(std::move(from_client), [&](const Bytes& d) {
        if (server) server->feed(d);
        if (legacy_server) legacy_server->feed(d);
      });
    }

    // Middlebox relays.
    for (std::size_t i = 0; i < middleboxes.size(); ++i) {
      Bytes up = middleboxes[i]->take_to_server();
      move(std::move(up), [&](const Bytes& d) {
        if (i + 1 < middleboxes.size()) {
          middleboxes[i + 1]->feed_from_client(d);
        } else {
          if (server) server->feed(d);
          if (legacy_server) legacy_server->feed(d);
        }
      });
      Bytes down = middleboxes[i]->take_to_client();
      if (tap_to_client && !down.empty()) tap_to_client(i, down);
      move(std::move(down), [&](const Bytes& d) {
        if (i == 0) {
          if (client) client->feed(d);
          if (legacy_client) legacy_client->feed(d);
        } else {
          middleboxes[i - 1]->feed_from_server(d);
        }
      });
    }

    // Server egress -> last middlebox (or client).
    Bytes from_server = server ? server->take_output()
                               : (legacy_server ? legacy_server->take_output() : Bytes{});
    if (!middleboxes.empty()) {
      move(std::move(from_server),
           [&](const Bytes& d) { middleboxes.back()->feed_from_server(d); });
    } else {
      move(std::move(from_server), [&](const Bytes& d) {
        if (client) client->feed(d);
        if (legacy_client) legacy_client->feed(d);
      });
    }
    return moved;
  }

  void pump(int max_iters = 200) {
    for (int i = 0; i < max_iters && step(); ++i) {
    }
  }
};

}  // namespace mbtls::mb::testing
