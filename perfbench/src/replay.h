// The benchmark's own replay of a scenario through a host::Engine it
// builds itself.
//
// ScenarioRunner::run builds its fleet internally, so the layers under it
// cannot be observed from outside. The replay rebuilds the same fleet from
// public parts (FastDevice / SimDevice, optionally wrapped in a
// TracedDevice, adopted by Engine's adopting constructor) and feeds it the
// same workload/jobgen packets with the same pacing as the runner's closed
// loop: admission plan, window, tenant quotas, per-channel bursts and
// decrypt/verify round-trips. Its modeled figures must equal the runner's
// exactly; the benchmark fails a run where they do not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "trace.h"
#include "workload/histogram.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace perfbench {

/// Deterministic per-class figures of one run (cycles, counts).
struct ClassFigures {
  std::string name;
  std::uint64_t offered = 0, completed = 0, throttled = 0, shed = 0, dropped = 0;
  std::uint64_t auth_failures = 0, busy_rejections = 0;
  std::uint64_t decrypt_submitted = 0, decrypt_completed = 0;
  mccp::workload::LogHistogram latency{}, service{};
};

/// The modeled outcome of one run: what `model.*` metrics report and what
/// the traced replay must reproduce bit for bit.
struct ModelFigures {
  std::uint64_t makespan_cycles = 0;
  std::uint64_t reconfigurations = 0, reconfig_stall_cycles = 0;
  std::uint64_t peak_inflight = 0;
  std::uint64_t lost_jobs = 0;
  std::uint64_t payload_bytes = 0;  // submitted arrivals' payload
  std::vector<ClassFigures> classes;

  static ModelFigures from(const mccp::workload::ScenarioReport& report);
  std::uint64_t offered() const;
  std::uint64_t completed() const;
  std::uint64_t busy_rejections() const;
  /// Packets offered but neither completed nor refused by plan, plus auth
  /// failures and lost jobs: every one is an output-check violation.
  std::uint64_t violations() const;
  /// Empty when equal, else the first difference.
  std::string diff(const ModelFigures& other) const;
};

/// One sealed arrival and its round-trip, kept for the oracle check.
struct JobRecord {
  std::size_t class_index = 0;
  mccp::Bytes iv, aad, plaintext;
  mccp::Bytes payload, tag;  // what the device returned
  bool auth_ok = false;
  bool verify = false;      // a decrypt/verify round-trip followed
  bool verify_done = false;
  bool verify_ok = false;
  mccp::Bytes verify_payload;
};

struct ReplayOptions {
  Tracer* tracer = nullptr;        // non-null: wrap devices, record spans
  DeviceCounts* counts = nullptr;  // required with tracer
  bool setup_only = false;         // return once the fleet is ready to submit
  bool keep_jobs = false;          // fill ReplayResult::jobs for the oracle
};

struct ReplayResult {
  ModelFigures model;
  std::int64_t setup_ns = 0;  // fleet, plan, keys, channels
  std::int64_t pass_ns = 0;   // first admission to drain
  std::int64_t plan_ns = 0;   // build_admission_plan alone
  std::vector<JobRecord> jobs;
};

/// Replay `spec` (no faults or autoscale) and return its figures.
ReplayResult replay(const mccp::workload::ScenarioSpec& spec, const ReplayOptions& opt);

}  // namespace perfbench
