#include "kernels.h"

#include <algorithm>
#include <string>

#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/kernels.h"
#include "crypto/whirlpool.h"
#include "sample.h"
#include "trace.h"
#include "workload/jobgen.h"

namespace perfbench {

namespace mw = mccp::workload;
namespace mc = mccp::crypto;
using mccp::Bytes;
using mccp::top::ChannelMode;

namespace {

struct Sealed {
  Bytes payload, tag;
};

/// One packet as the device computes it (host/fast_device.cpp): CTR walks
/// the INC core's 16-bit counter, GCM IVs are 96-bit (the counter cannot
/// wrap inside a <= 255-block packet), CBC-MAC returns only its tag.
Sealed seal(ChannelMode mode, const mc::AesRoundKeys& keys, const mc::GcmKey& gcm,
            const mw::ChannelClass& p, const JobRecord& j) {
  Sealed s;
  switch (mode) {
    case ChannelMode::kCtr:
      s.payload =
          mc::ctr_transform_inc16(keys, mccp::Block128::from_span(j.iv), j.plaintext);
      break;
    case ChannelMode::kGcm: {
      mc::GcmSealed g = mc::gcm_seal(gcm, j.iv, j.aad, j.plaintext, p.tag_len);
      s.payload = std::move(g.ciphertext);
      s.tag = std::move(g.tag);
      break;
    }
    case ChannelMode::kCcm: {
      mc::CcmSealed c = mc::ccm_seal(keys, {p.tag_len, p.nonce_len}, j.iv, j.aad, j.plaintext);
      s.payload = std::move(c.ciphertext);
      s.tag = std::move(c.tag);
      break;
    }
    case ChannelMode::kCbcMac: {
      mc::CbcMac mac(keys);
      mac.update_padded(j.plaintext);
      s.tag.assign(mac.mac().b.begin(), mac.mac().b.begin() + p.tag_len);
      break;
    }
    case ChannelMode::kWhirlpool: {
      auto d = mc::whirlpool(j.plaintext);
      s.payload.assign(d.begin(), d.end());
      break;
    }
  }
  return s;
}

struct ClassKeys {
  mc::AesRoundKeys keys;
  mc::GcmKey gcm;
};

std::vector<ClassKeys> class_keys(const mw::ScenarioSpec& spec) {
  std::vector<ClassKeys> out;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const mw::ChannelClass& p = spec.classes[i].profile;
    ClassKeys k;
    k.keys = mc::aes_expand_key(mw::class_key(spec.seed, i, p.key_len));
    k.gcm = mc::GcmKey(k.keys);
    out.push_back(std::move(k));
  }
  return out;
}

/// Keeps the compiler from discarding a computed packet.
volatile std::uint8_t g_sink = 0;
void sink(const Sealed& s) {
  if (!s.payload.empty()) g_sink = g_sink ^ s.payload.back();
  if (!s.tag.empty()) g_sink = g_sink ^ s.tag.back();
}

/// Whirlpool is bit-serial and ~1000x slower per byte than AES: cap the
/// packets (and the bytes of the Whirlpool pass) so a pass stays short.
constexpr std::size_t kMaxPackets = 512;
constexpr std::size_t kWhirlpoolBytesCap = 64 * 1024;

}  // namespace

KernelCosts kernel_pass(const mw::ScenarioSpec& spec, const std::vector<JobRecord>& all_jobs,
                        int passes) {
  const std::vector<JobRecord> jobs(
      all_jobs.begin(), all_jobs.begin() + std::min(all_jobs.size(), kMaxPackets));
  const std::vector<ClassKeys> keys = class_keys(spec);
  std::size_t bytes = 0;
  for (const JobRecord& j : jobs) bytes += j.plaintext.size();
  if (jobs.empty() || bytes == 0) return {};

  // A fixed class profile per AES mode, so every mode runs over the same
  // payloads whatever the workload's own mix is.
  mw::ChannelClass mode_profile;
  mode_profile.tag_len = 16;
  mode_profile.nonce_len = 13;
  const mc::AesRoundKeys k0 = keys[0].keys;
  const mc::GcmKey g0(k0);

  std::vector<double> per_pkt, ctr, gcm, ccm, cbc, wp;
  for (int pass = 0; pass < passes; ++pass) {
    std::int64_t t = now_ns();
    for (const JobRecord& j : jobs) {
      const mw::ChannelClass& p = spec.classes[j.class_index].profile;
      sink(seal(p.mode, keys[j.class_index].keys, keys[j.class_index].gcm, p, j));
    }
    per_pkt.push_back(static_cast<double>(now_ns() - t) / static_cast<double>(jobs.size()));

    auto per_kb = [&](ChannelMode mode, std::size_t cap) {
      JobRecord fixed;
      std::size_t done = 0;
      const std::int64_t t0 = now_ns();
      for (const JobRecord& j : jobs) {
        if (done >= cap) break;
        fixed.plaintext = j.plaintext;
        fixed.iv.assign(j.iv.begin(), j.iv.end());
        fixed.iv.resize(mode == ChannelMode::kGcm ? 12 : mode == ChannelMode::kCcm ? 13 : 16);
        sink(seal(mode, k0, g0, mode_profile, fixed));
        done += j.plaintext.size();
      }
      return static_cast<double>(now_ns() - t0) * 1024.0 / static_cast<double>(done);
    };
    ctr.push_back(per_kb(ChannelMode::kCtr, bytes));
    gcm.push_back(per_kb(ChannelMode::kGcm, bytes));
    ccm.push_back(per_kb(ChannelMode::kCcm, bytes));
    cbc.push_back(per_kb(ChannelMode::kCbcMac, bytes));
    wp.push_back(per_kb(ChannelMode::kWhirlpool, kWhirlpoolBytesCap));
  }
  return {median(per_pkt), median(ctr), median(gcm), median(ccm), median(cbc), median(wp)};
}

std::uint64_t oracle_mismatches(const mw::ScenarioSpec& spec, const std::vector<JobRecord>& jobs) {
  const std::string tier = mc::active_kernel_name();
  mc::set_crypto_kernel("portable");
  const std::vector<ClassKeys> keys = class_keys(spec);
  std::uint64_t bad = 0;
  for (const JobRecord& j : jobs) {
    const mw::ChannelClass& p = spec.classes[j.class_index].profile;
    const Sealed want = seal(p.mode, keys[j.class_index].keys, keys[j.class_index].gcm, p, j);
    bool ok = j.auth_ok && j.payload == want.payload && j.tag == want.tag;
    if (j.verify) {
      const Bytes opened = p.mode == ChannelMode::kCbcMac ? Bytes(j.plaintext.size(), 0)
                                                          : j.plaintext;
      ok = ok && j.verify_done && j.verify_ok && j.verify_payload == opened;
    }
    if (!ok) ++bad;
  }
  mc::set_crypto_kernel(tier);
  return bad;
}

std::uint64_t output_digest(const Bytes& payload, const Bytes& tag) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Bytes* b : {&payload, &tag}) {
    for (std::uint8_t x : *b) h = (h ^ x) * 0x100000001b3ull;
    h = (h ^ 0xff) * 0x100000001b3ull;  // separator
  }
  return h;
}

std::uint64_t oracle_digest_mismatches(const mw::ScenarioSpec& spec,
                                       const std::vector<JobRecord>& jobs,
                                       const std::vector<std::uint64_t>& got) {
  const std::string tier = mc::active_kernel_name();
  mc::set_crypto_kernel("portable");
  const std::vector<ClassKeys> keys = class_keys(spec);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    const mw::ChannelClass& p = spec.classes[j.class_index].profile;
    const Sealed want = seal(p.mode, keys[j.class_index].keys, keys[j.class_index].gcm, p, j);
    if (i >= got.size() || got[i] != output_digest(want.payload, want.tag)) ++bad;
  }
  mc::set_crypto_kernel(tier);
  return bad;
}

}  // namespace perfbench
