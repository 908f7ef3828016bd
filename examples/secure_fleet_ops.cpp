// Fleet operations walkthrough: PKI lifecycle (enrollment, revocation,
// CRL distribution), secure boot of the forwarder ECU, a signed
// over-the-air firmware update delivered over the machine link — the
// platform-security path of the stack — and finally the FleetService
// session daemon running several secured worksites concurrently with
// per-session determinism.
//
//   build/examples/secure_fleet_ops
#include <cstdio>

#include "crypto/random.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "secure/boot.h"
#include "secure/handshake.h"
#include "secure/update.h"
#include "service/fleet_service.h"

using namespace agrarsec;

int main() {
  std::printf("fleet platform security walkthrough\n");
  std::printf("===================================\n\n");

  crypto::Drbg drbg{77, "fleet-ops"};

  // 1. Site PKI bring-up.
  auto root = pki::CertificateAuthority::create_root("komatsu-site-7-root",
                                                     drbg.generate32(), 0,
                                                     3650 * 24 * core::kHour);
  pki::TrustStore trust;
  (void)trust.add_root(root.certificate());
  std::printf("[pki] root CA '%s' (fingerprint %s)\n", root.name().c_str(),
              root.certificate().fingerprint().c_str());

  auto forwarder = pki::enroll(root, drbg, "forwarder-01", pki::CertRole::kMachine,
                               0, 365 * 24 * core::kHour);
  auto drone = pki::enroll(root, drbg, "drone-01", pki::CertRole::kDrone, 0,
                           365 * 24 * core::kHour);
  auto old_drone = pki::enroll(root, drbg, "drone-legacy", pki::CertRole::kDrone, 0,
                               365 * 24 * core::kHour);
  std::printf("[pki] enrolled forwarder-01, drone-01, drone-legacy (%lu certs)\n\n",
              static_cast<unsigned long>(root.issued_count()));

  // 2. Secure boot of the forwarder ECU.
  const auto oem_signer = crypto::ed25519_keypair(drbg.generate32());
  secure::SecureBootRom rom{oem_signer.public_key};

  auto make_image = [&](const char* name, std::uint32_t version, const char* blob) {
    secure::BootImage image;
    image.name = name;
    image.version = version;
    image.payload = core::from_string(blob);
    secure::sign_image(image, oem_signer);
    return image;
  };
  std::vector<secure::BootImage> chain = {
      make_image("bootloader", 3, "bl"),
      make_image("safety-rtos", 12, "rtos"),
      make_image("autonomy-app", 41, "app-v41"),
  };
  auto report = rom.boot(chain);
  std::printf("[boot] chain verification: %s, platform measurement %.16s...\n",
              report.booted ? "PASS" : "FAIL",
              core::to_hex(report.platform_measurement).c_str());

  // Tampered image must not boot.
  auto tampered = chain;
  tampered[2].payload.push_back(0x90);  // implant
  report = rom.boot(tampered);
  std::printf("[boot] implanted app image: %s at stage '%s' (%s)\n\n",
              report.booted ? "BOOTED (BAD!)" : "refused", report.failed_stage.c_str(),
              report.failure_code.c_str());

  // 3. Signed OTA update v41 -> v42.
  const core::Bytes new_app = drbg.generate(48 * 1024);
  const secure::PreparedUpdate update =
      secure::prepare_update("autonomy-app", 42, new_app, 4096, oem_signer);
  std::printf("[ota] update autonomy-app v42: %zu chunks of %u bytes\n",
              update.chunks.size(), update.manifest.chunk_size);

  secure::UpdateReceiver receiver{oem_signer.public_key};
  (void)receiver.begin(update.manifest);
  for (const auto& chunk : update.chunks) (void)receiver.feed(chunk);
  auto image = receiver.finalize();
  std::printf("[ota] transfer + verification: %s\n", image.ok() ? "PASS" : "FAIL");

  chain[2] = image.value();
  report = rom.boot(chain);
  std::printf("[ota] boot with v42: %s (rollback floor now %u)\n",
              report.booted ? "PASS" : "FAIL", rom.rollback_floor("autonomy-app"));

  // Downgrade attack: re-deliver v41.
  const secure::PreparedUpdate downgrade =
      secure::prepare_update("autonomy-app", 41, core::from_string("app-v41"), 4096,
                             oem_signer);
  secure::UpdateReceiver receiver2{oem_signer.public_key};
  (void)receiver2.begin(downgrade.manifest);
  for (const auto& chunk : downgrade.chunks) (void)receiver2.feed(chunk);
  auto old_image = receiver2.finalize();
  chain[2] = old_image.value();
  report = rom.boot(chain);
  std::printf("[ota] downgrade to v41: %s (%s)\n\n",
              report.booted ? "BOOTED (BAD!)" : "refused", report.failure_code.c_str());

  // 4. Decommissioning: revoke the legacy drone, distribute the CRL, and
  //    watch its handshake fail while the current drone still connects.
  root.revoke(old_drone.value().leaf().body.serial);
  (void)trust.add_crl(root.current_crl(1000), root.certificate());
  std::printf("[pki] revoked drone-legacy; CRL covers %zu serial(s)\n",
              root.current_crl(1000).revoked_serials.size());

  auto good = secure::establish(drone.value(), forwarder.value(), trust, 2000, drbg);
  std::printf("[hs ] drone-01     -> forwarder-01: %s\n",
              good.ok() ? "session established" : good.error().code.c_str());
  auto bad = secure::establish(old_drone.value(), forwarder.value(), trust, 2000, drbg);
  std::printf("[hs ] drone-legacy -> forwarder-01: %s\n",
              bad.ok() ? "session established (BAD!)" : bad.error().code.c_str());

  // 5. Session traffic sample.
  if (good.ok()) {
    auto& pair = good.value();
    const auto payload = core::from_string("detection x=31.5 y=44.2 conf=0.93");
    const secure::Record record = pair.initiator.seal(payload);
    const auto opened = pair.responder.open(record);
    std::printf("[link] sealed %zu bytes -> record %zu bytes -> opened: %s\n",
                payload.size(), record.encode().size(),
                opened.ok() ? "PASS" : "FAIL");
  }

  // 6. Multi-worksite operations: the FleetService runs each stand as an
  //    independent secured session, batched across a thread pool. Session
  //    seeds derive from (fleet_seed, stand key), so every session replays
  //    bit-identically no matter how the fleet is scheduled.
  std::printf("\n[fleet] FleetService: 4 secured worksite sessions\n");
  service::FleetServiceConfig fleet_config;
  fleet_config.threads = 0;  // use hardware concurrency
  fleet_config.fleet_seed = 77;
  service::FleetService fleet{fleet_config};

  auto stand_config = [] {
    integration::SecuredWorksiteConfig config;
    config.worksite.forest.trees_per_hectare = 150;
    config.worksite.harvester_output_m3_per_min = 20.0;
    return config;
  };
  std::vector<service::SessionId> stands;
  for (std::uint64_t key = 0; key < 4; ++key) {
    const service::SessionId id = fleet.create_session_keyed(stand_config(), key);
    fleet.session(id)->worksite().add_worker("scaler", {70, 60}, {80, 80});
    stands.push_back(id);
  }
  const std::uint64_t fleet_steps =
      static_cast<std::uint64_t>(10 * core::kMinute / sim::kWorksiteStep);
  fleet.step_all(fleet_steps);

  for (const service::SessionId id : stands) {
    std::printf("[fleet] stand %llu: %.1f m3 delivered, %llu reports accepted\n",
                static_cast<unsigned long long>(id),
                fleet.session(id)->worksite().delivered_m3(),
                static_cast<unsigned long long>(
                    fleet.session(id)->security_metrics().detection_reports_accepted));
  }
  const integration::SecurityMetrics totals = fleet.aggregate_security_metrics();
  std::printf("[fleet] aggregate: %llu reports sent, %llu spoofed accepted, "
              "%llu session-steps\n",
              static_cast<unsigned long long>(totals.detection_reports_sent),
              static_cast<unsigned long long>(totals.spoofed_messages_accepted),
              static_cast<unsigned long long>(fleet.total_session_steps()));

  // Replay stand 0 solo with the same derived seed: byte-identical export.
  integration::SecuredWorksiteConfig replay_config = stand_config();
  replay_config.seed = service::FleetService::derive_session_seed(77, 0);
  integration::SecuredWorksite replay{replay_config};
  replay.worksite().add_worker("scaler", {70, 60}, {80, 80});
  replay.run_for(10 * core::kMinute);
  const bool replay_match = replay.telemetry().deterministic_json() ==
                            fleet.session_deterministic_json(stands[0]);
  std::printf("[fleet] solo replay of stand 0 matches in-fleet run: %s\n",
              replay_match ? "PASS" : "FAIL");
  return replay_match ? 0 : 1;
}
