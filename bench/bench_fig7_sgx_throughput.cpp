// Figure 7 — SGX (non-)overhead: middlebox throughput with/without
// encryption and with/without an enclave.
//
// Reproduces: a middlebox fed a saturating stream of records of varying
// payload size ("buffer size" 512 B - 12 KiB) in four configurations:
//   no encryption + no enclave : forward bytes untouched
//   no encryption + enclave    : forward, but each record crosses the
//                                enclave boundary (transition cost burned)
//   encryption + no enclave    : AES-256-GCM open + re-seal per record
//   encryption + enclave       : open + re-seal inside the enclave
//
// Paper result (shape): the enclave makes no noticeable difference (I/O
// interrupt/processing costs dominate boundary crossings), while the
// decrypt+re-encrypt path plateaus at the AES-GCM compute bound.
// Absolute numbers differ from the paper's 40 Gbps testbed: this AES is
// bit-sliced-free portable C++, so the crypto plateau sits lower, but the
// relationships between the four curves are the experiment.
#include <chrono>

#include "bench/bench_common.h"
#include "mbtls/types.h"
#include "sgx/enclave.h"

namespace mbtls::bench {
namespace {

// Per-record network-I/O handling cost (NIC interrupt, kernel stack,
// copies). The paper attributes the *absence* of enclave overhead to exactly
// this cost dominating boundary crossings; the model makes that executable.
// 60k calibration iterations ~ a couple of syscalls + interrupt handling.
constexpr std::uint64_t kIoCostIterations = 60'000;

struct Config {
  bool encrypt;
  bool enclave;
  const char* name;
};

double run_config(const Config& config, std::size_t buffer_size, double seconds_budget) {
  crypto::Drbg rng_local("fig7", buffer_size);
  const std::size_t key_len = 32;  // AES-256-GCM, as in the paper's prototype

  // Inbound and outbound hop keys (what an mbTLS middlebox holds).
  const tls::HopKeys in_keys = mb::generate_hop_keys(key_len, rng_local);
  const tls::HopKeys out_keys = mb::generate_hop_keys(key_len, rng_local);
  mb::HopDuplex inbound(in_keys, key_len);
  mb::HopDuplex outbound(out_keys, key_len);

  // Pre-seal a batch of records with a *sender-side* channel so the
  // middlebox-side `inbound` channel can open them in sequence.
  tls::HopChannel sender({in_keys.client_to_server_key, in_keys.client_to_server_iv}, 0);
  const Bytes payload = rng_local.bytes(buffer_size);
  std::vector<Bytes> sealed;
  for (int i = 0; i < 64; ++i) {
    Bytes rec = sender.seal(tls::ContentType::kApplicationData, payload);
    sealed.push_back(Bytes(rec.begin() + tls::kRecordHeaderSize, rec.end()));
  }

  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("fig7-mbox");

  std::uint64_t bytes_moved = 0;
  volatile std::uint64_t sink = 0;
  // Reused across every record: `scratch` holds the inbound body (decrypted
  // in place), `out` receives the re-sealed wire record. Capacity is
  // retained, so the steady-state reprotect path performs no allocation —
  // the same discipline Middlebox::reprotect_c2s uses.
  Bytes scratch, out;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds_budget);
  std::size_t batch_index = 0;
  // Fresh open-channel per 64-record pass (sequence numbers restart).
  while (std::chrono::steady_clock::now() < deadline) {
    mb::HopDuplex pass_in(in_keys, key_len);
    mb::HopDuplex pass_out(out_keys, key_len);
    for (const auto& record : sealed) {
      auto work = [&] {
        if (config.encrypt) {
          scratch.assign(record.begin(), record.end());
          auto opened = pass_in.c2s().open_in_place(tls::ContentType::kApplicationData, scratch);
          if (!opened) std::abort();
          out.clear();
          pass_out.c2s().seal_into(tls::ContentType::kApplicationData, *opened, out);
          sink = sink + out.size();
        } else {
          // Plain forwarding: touch the bytes (copy) like a forwarding path.
          scratch.assign(record.begin(), record.end());
          sink = sink + scratch.size();
        }
      };
      sgx::burn_cycles(kIoCostIterations);  // recv()/send() handling
      if (config.enclave) {
        enclave.ecall(work);
      } else {
        work();
      }
      bytes_moved += buffer_size;
    }
    ++batch_index;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  (void)batch_index;
  return static_cast<double>(bytes_moved) * 8.0 / elapsed / 1e9;  // Gbps
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls::bench;
  double budget = 0.25;  // seconds per (config, size) cell
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--seconds") budget = std::atof(argv[i + 1]);
  }
  const std::string json_path = json_arg(argc, argv);
  const std::size_t sizes[] = {512, 1024, 2048, 4096, 8192, 12288};
  const Config configs[] = {
      {false, false, "No Encryption + No Enclave"},
      {false, true, "No Encryption + Enclave"},
      {true, false, "Encryption + No Enclave"},
      {true, true, "Encryption + Enclave"},
  };
  std::printf("=== Figure 7: middlebox throughput (Gbps) vs record buffer size ===\n");
  std::printf("SGX transition cost model: ~8000 cycles per boundary crossing.\n\n");
  std::printf("%-28s", "config \\ buffer");
  for (const auto s : sizes) std::printf("%8zuB", s);
  std::printf("\n");
  Json rows = Json::array();
  for (const auto& config : configs) {
    std::printf("%-28s", config.name);
    for (const auto size : sizes) {
      const double gbps = run_config(config, size, budget);
      std::printf("%9.2f", gbps);
      rows.push(Json::object()
                    .add("config", std::string(config.name))
                    .add("buffer_bytes", static_cast<double>(size))
                    .add("gbps", gbps));
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape to check: enclave vs no-enclave nearly indistinguishable within each\n"
      "encryption mode; the encryption rows plateau at the AES-GCM compute bound while\n"
      "the forwarding rows keep scaling with buffer size.\n");
  if (!json_path.empty()) {
    Json doc = Json::object().add("bench", std::string("fig7_sgx_throughput"));
    add_backend_fields(doc).add("rows", rows);
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
