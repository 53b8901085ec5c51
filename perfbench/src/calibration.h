// Host-speed calibration for the end-to-end metrics.
//
// The reference 4-vCPU host is shared. For minutes at a time it runs
// everything 1.3-2x slower, with no fast moments a within-run statistic
// could pick out. A fixed compute loop owned by the benchmark, and never by
// the program under test, is timed between passes on the same thread. Host
// times are scaled by its undisturbed time over a fixed reference, so a
// run reads as if the host had run at reference speed. Measured
// interleaved like this, the loop tracks the slow phases. Across 11
// alternating runs it narrowed the spread of aes_fleet from 185k-269k to
// 336k-398k scaled packets/s, and of hash_reconfig from 1982-3587 to
// 2852-3563.
#pragma once

#include <cstdint>
#include <vector>

#include "sample.h"
#include "trace.h"

namespace perfbench {

/// Calibration time the scale is relative to: about the loop's undisturbed
/// time on the reference host.
inline constexpr double kCalibrationRefNs = 1e6;

/// One timing of the calibration loop: bit-serial GF(2^8) multiplies over
/// an L1-resident 4 KiB buffer. Single-threaded use only.
inline double calibration_ns() {
  static std::vector<std::uint8_t> buf(4096, 3);
  const std::int64_t start = now_ns();
  for (int round = 0; round < 40; ++round)
    for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
      std::uint8_t a = buf[i], b = buf[i + 1] | 1, p = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (b & 1) p ^= a;
        const bool carry = a & 0x80;
        a = static_cast<std::uint8_t>(a << 1);
        if (carry) a ^= 0x1d;
        b >>= 1;
      }
      buf[i] = static_cast<std::uint8_t>(p ^ round);
    }
  return static_cast<double>(now_ns() - start);
}

/// How much slower than reference speed the host ran, from a run's
/// calibration timings.
inline double host_slowdown(const std::vector<double>& calibration) {
  return undisturbed(calibration) / kCalibrationRefNs;
}

}  // namespace perfbench
