// The crypto layer measured on its own, and the oracle every traced run's
// outputs are checked against.
//
// Both compute a packet exactly as the hardware would from the public
// crypto functions: the bare-kernel pass on whatever kernel tier is
// dispatched, the oracle with the portable tier forced (the reference the
// hardware tiers are tested against).
#pragma once

#include <cstdint>
#include <vector>

#include "replay.h"
#include "workload/spec.h"

namespace perfbench {

/// Host cost of the crypto kernels alone, per the metric names
/// crypto.ns_per_pkt and crypto.<mode>.ns_per_kb.
struct KernelCosts {
  double ns_per_pkt = 0;
  double ctr = 0, gcm = 0, ccm = 0, cbc_mac = 0, whirlpool = 0;  // ns per KB
};

/// Median of `passes` timed passes over the first 512 of `jobs`' plaintexts:
/// each packet in its own class's mode, then each AES mode and Whirlpool
/// over all of them.
KernelCosts kernel_pass(const mccp::workload::ScenarioSpec& spec,
                        const std::vector<JobRecord>& jobs, int passes);

/// Recompute every job with the portable kernels and count outputs that
/// differ from what the device returned (payload, tag, verify outcome).
/// Restores the previously dispatched tier before returning.
std::uint64_t oracle_mismatches(const mccp::workload::ScenarioSpec& spec,
                                const std::vector<JobRecord>& jobs);

/// FNV-1a over a device output (payload, then tag): lets a long open-loop
/// run keep one word per packet instead of its bytes.
std::uint64_t output_digest(const mccp::Bytes& payload, const mccp::Bytes& tag);

/// As oracle_mismatches, against `got[i]`, the output digest the device
/// returned for `jobs[i]` (encrypt side only).
std::uint64_t oracle_digest_mismatches(const mccp::workload::ScenarioSpec& spec,
                                       const std::vector<JobRecord>& jobs,
                                       const std::vector<std::uint64_t>& got);

}  // namespace perfbench
