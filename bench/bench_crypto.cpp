// Microbenchmarks for the from-scratch crypto substrate (google-benchmark):
// establishes that the security stack's primitives are fast enough for
// machine message rates by orders of magnitude — the quantitative basis
// for the "security costs no productivity" claim in bench_fig1.
#include <benchmark/benchmark.h>

#include "crypto/aead.h"
#include "crypto/ed25519.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"

#include "obs/telemetry.h"

using namespace agrarsec;

namespace {

core::Bytes make_payload(std::size_t n) {
  crypto::Drbg drbg{1, "bench"};
  return drbg.generate(n);
}

void BM_Sha256(benchmark::State& state) {
  const auto data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const auto data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha512::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const auto key = make_payload(32);
  const auto data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256::mac(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_HkdfExpand(benchmark::State& state) {
  const auto prk = crypto::hkdf_extract(make_payload(32), make_payload(32));
  const auto info = core::from_string("session-keys");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hkdf_expand(prk, info, 64));
  }
}
BENCHMARK(BM_HkdfExpand);

void BM_AeadSeal(benchmark::State& state) {
  const auto key = make_payload(32);
  const auto nonce = make_payload(12);
  const auto aad = make_payload(16);
  const auto payload = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aead_seal(key, nonce, aad, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(256)->Arg(4096);

void BM_AeadOpen(benchmark::State& state) {
  const auto key = make_payload(32);
  const auto nonce = make_payload(12);
  const auto aad = make_payload(16);
  const auto sealed =
      crypto::aead_seal(key, nonce, aad,
                        make_payload(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto opened = crypto::aead_open(key, nonce, aad, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(64)->Arg(4096);

void BM_X25519Base(benchmark::State& state) {
  crypto::Drbg drbg{2, "x25519"};
  const auto priv = drbg.generate32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_base(priv));
  }
}
BENCHMARK(BM_X25519Base);

void BM_X25519Shared(benchmark::State& state) {
  crypto::Drbg drbg{2, "x25519"};
  const auto a_priv = drbg.generate32();
  const auto b_priv = drbg.generate32();
  const auto b_pub = crypto::x25519_base(b_priv);
  crypto::X25519Key out{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_shared(a_priv, b_pub, out));
  }
}
BENCHMARK(BM_X25519Shared);

void BM_Ed25519Keypair(benchmark::State& state) {
  crypto::Drbg drbg{3, "ed"};
  const auto seed = drbg.generate32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_keypair(seed));
  }
}
BENCHMARK(BM_Ed25519Keypair);

void BM_Ed25519Sign(benchmark::State& state) {
  crypto::Drbg drbg{3, "ed"};
  const auto kp = crypto::ed25519_keypair(drbg.generate32());
  const auto msg = make_payload(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_sign(kp, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  crypto::Drbg drbg{3, "ed"};
  const auto kp = crypto::ed25519_keypair(drbg.generate32());
  const auto msg = make_payload(256);
  const auto sig = crypto::ed25519_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

}  // namespace

// BENCHMARK_MAIN supplies main; a static artifact writes
// bench_crypto.telemetry.json when the process exits.
static agrarsec::obs::BenchArtifact g_artifact{"bench_crypto"};

BENCHMARK_MAIN();
