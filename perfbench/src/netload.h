// Open-loop load through the MCCP/1 service over loopback.
//
// One process: the net::Server runs on its own thread with the scenario's
// fleet, and this thread drives `kConnections` net::Client connections.
// Packets come from the scenario's workload/jobgen class streams, merged
// by arrival instant, and packet i is due at t0 + i / rate (wall clock)
// whatever has completed — an open loop. Each request is timed from when
// it was due until its completion callback, so a stall also charges the
// requests queued behind it.
#pragma once

#include <cstdint>
#include <vector>

#include "replay.h"
#include "trace.h"
#include "workload/spec.h"

namespace perfbench {

inline constexpr std::size_t kConnections = 3;

/// Half a second of the open loop: 2000 packets at the offered rate, so
/// each window's p99 has twenty samples beyond it.
struct NetWindow {
  std::vector<double> rtt_ns;    // due -> completion callback, of packets due in it
  std::uint64_t completed = 0;   // completions delivered in it
  double server_cpu_ns = 0;      // CPU time the server thread spent in it
};

struct NetRun {
  std::vector<double> setup_ns;        // one per set-up
  std::vector<double> calibration_ns;  // calibration_ns() at each window boundary
  std::uint64_t sent = 0, completed = 0, failed = 0;
  std::vector<NetWindow> windows;
  std::vector<double> late_ns;  // send instant - due instant
  std::int64_t client_ns = 0;     // in submits and delivering polls (traced only)
  std::uint64_t oracle_mismatches = 0;  // traced only
};

/// Set up the server and clients, then offer `rate` packets per second for
/// `seconds` and drain. With `sample_setups`, a second, throwaway service is
/// also set up and torn down at every window boundary, so the set-up times
/// sample the whole run rather than its first milliseconds, and the host
/// calibration loop is timed there too; the open loop pauses meanwhile. With a tracer, client calls are spanned and every
/// output is checked against the portable-kernel oracle afterwards.
NetRun run_net(const mccp::workload::ScenarioSpec& spec, double rate, double seconds,
               bool sample_setups, Tracer* tracer);

/// The first `n` packets run_net offers, in order.
std::vector<JobRecord> net_packets(const mccp::workload::ScenarioSpec& spec, std::size_t n);

}  // namespace perfbench
