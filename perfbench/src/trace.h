// In-memory span tracing for the traced benchmark run.
//
// A span is one timed call across a layer boundary: a name, a start and end
// on the steady clock, and the span that was open when it began (its
// cause). Self time — a span's duration minus the time its child spans
// cover — is folded into per-name totals as each span closes, so the
// totals stay exact however many spans are stored. The first `kKeep`
// spans of the last traced pass are kept verbatim and written out when the
// benchmark ends (see write_tsv).
//
// TracedDevice is the `host::Device` decorator the traced run hands to
// `host::Engine`'s adopting constructor: it forwards every virtual, counts
// data-plane calls per method, and opens a span around every call except
// the constant getters (name, last_error, num_cores, supports_quiet_burst,
// the reconfiguration counters).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "host/device.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. The `kDev*` block is the Device seam, in the order of
/// `kDeviceMethodNames`.
enum SpanName : std::uint16_t {
  kPass,          // one replay pass (root)
  kOnDone,        // the replay's completion callbacks
  kEngMaxCycle,   // Engine::max_cycle
  kEngSubmit,     // Engine::submit_batch / submit_decrypt
  kEngStep,       // Engine::step
  kEngAdvanceTo,  // Engine::advance_to
  kDevSubmit,
  kDevStep,
  kDevAdvanceTo,
  kDevResult,
  kDevCompletions,
  kDevPumpRound,
  kDevQuietHorizon,
  kDevAdvanceQuiet,
  kDevOther,  // every remaining Device virtual
  kClientSubmit,
  kClientPoll,
  kNumSpanNames
};

inline const char* span_name(std::uint16_t n) {
  static constexpr std::array<const char*, kNumSpanNames> kNames = {
      "replay.pass",      "replay.on_done",    "engine.max_cycle",  "engine.submit",
      "engine.step",      "engine.advance_to", "device.submit",     "device.step",
      "device.advance_to", "device.result",    "device.completions", "device.pump_round",
      "device.quiet_horizon", "device.advance_quiet", "device.other", "net.client.submit",
      "net.client.poll"};
  return kNames[n];
}

/// Per-method names of the counted Device calls (metric suffixes).
inline constexpr std::array<const char*, 8> kDeviceMethodNames = {
    "submit", "step", "advance_to", "result", "completions", "pump_round", "quiet_horizon",
    "advance_quiet"};

class Tracer {
 public:
  static constexpr std::size_t kKeep = 200'000;
  static constexpr std::uint16_t kRoot = 0xffff;

  /// Forget stored spans and totals (start of a traced pass).
  void reset() {
    spans_.clear();
    dropped_ = 0;
    stack_.clear();
    total_.fill(0);
    self_.fill(0);
    count_.fill(0);
  }

  void open(std::uint16_t name) {
    stack_.push_back({now_ns(), 0, stack_.empty() ? kRoot : stack_.back().name, name});
  }

  void close() { close_at(now_ns()); }

  void close_at(std::int64_t end) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    total_[f.name] += dur;
    self_[f.name] += dur - f.child_ns;
    ++count_[f.name];
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (spans_.size() < kKeep)
      spans_.push_back({f.start, end, f.parent, f.name});
    else
      ++dropped_;
  }

  /// A leaf span measured by the caller, under the currently open span.
  void record(std::uint16_t name, std::int64_t start, std::int64_t end) {
    stack_.push_back({start, 0, stack_.empty() ? kRoot : stack_.back().name, name});
    close_at(end);
  }

  std::int64_t total_ns(std::uint16_t n) const { return total_[n]; }
  std::int64_t self_ns(std::uint16_t n) const { return self_[n]; }
  std::uint64_t count(std::uint16_t n) const { return count_[n]; }

  /// Stored spans as TSV: name, start_ns, end_ns, name of the causing span.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# spans kept %zu, dropped %llu\nname\tstart_ns\tend_ns\tparent\n",
                 spans_.size(), static_cast<unsigned long long>(dropped_));
    for (const Span& s : spans_)
      std::fprintf(f, "%s\t%lld\t%lld\t%s\n", span_name(s.name),
                   static_cast<long long>(s.start), static_cast<long long>(s.end),
                   s.parent == kRoot ? "-" : span_name(s.parent));
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::int64_t start, end;
    std::uint16_t parent, name;
  };
  struct Frame {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint16_t parent, name;
  };
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kNumSpanNames> total_{};
  std::array<std::int64_t, kNumSpanNames> self_{};
  std::array<std::uint64_t, kNumSpanNames> count_{};
};

/// RAII span; a null tracer makes it free of clock reads.
class Scoped {
 public:
  Scoped(Tracer* t, std::uint16_t name) : t_(t) {
    if (t_) t_->open(name);
  }
  ~Scoped() {
    if (t_) t_->close();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
};

/// Call counts at the Device seam, summed over a fleet's decorators.
struct DeviceCounts {
  std::array<std::uint64_t, kDeviceMethodNames.size()> calls{};
  std::uint64_t result_complete = 0;  // result() calls that found the job complete
  std::uint64_t cycles_advanced = 0;  // device clock moved by step/advance_to/advance_quiet
};

/// Forwards every `host::Device` virtual to the wrapped device, counting
/// data-plane calls into a shared DeviceCounts and spanning each call.
class TracedDevice final : public mccp::host::Device {
 public:
  TracedDevice(std::unique_ptr<mccp::host::Device> inner, Tracer& tracer, DeviceCounts& counts)
      : inner_(std::move(inner)), t_(&tracer), c_(&counts) {}

  using ChannelInfo = mccp::host::ChannelInfo;
  using JobSpec = mccp::host::JobSpec;
  using JobResult = mccp::host::JobResult;
  using DeviceJobId = mccp::host::DeviceJobId;
  using CoreImage = mccp::reconfig::CoreImage;
  using Cycle = mccp::sim::Cycle;

  std::string name() const override { return inner_->name(); }
  void provision_key(mccp::top::KeyId id, mccp::Bytes key) override {
    Scoped s(t_, kDevOther);
    inner_->provision_key(id, std::move(key));
  }
  std::optional<ChannelInfo> open_channel(mccp::host::ChannelMode mode, mccp::top::KeyId key,
                                          unsigned tag_len, unsigned nonce_len) override {
    Scoped s(t_, kDevOther);
    return inner_->open_channel(mode, key, tag_len, nonce_len);
  }
  bool close_channel(std::uint8_t id) override {
    Scoped s(t_, kDevOther);
    return inner_->close_channel(id);
  }
  std::uint8_t last_error() const override { return inner_->last_error(); }

  DeviceJobId submit(JobSpec spec) override {
    Scoped s(t_, kDevSubmit);
    ++c_->calls[0];
    return inner_->submit(std::move(spec));
  }
  std::vector<DeviceJobId> submit_batch(std::span<JobSpec> specs) override {
    Scoped s(t_, kDevSubmit);
    ++c_->calls[0];
    return inner_->submit_batch(specs);
  }
  void step() override {
    Scoped s(t_, kDevStep);
    ++c_->calls[1];
    const Cycle before = inner_->now();
    inner_->step();
    c_->cycles_advanced += inner_->now() - before;
  }
  void advance_to(Cycle target) override {
    Scoped s(t_, kDevAdvanceTo);
    ++c_->calls[2];
    const Cycle before = inner_->now();
    inner_->advance_to(target);
    c_->cycles_advanced += inner_->now() - before;
  }
  bool idle() const override {
    Scoped s(t_, kDevOther);
    return inner_->idle();
  }

  bool supports_quiet_burst() const override { return inner_->supports_quiet_burst(); }
  bool pump_round() override {
    Scoped s(t_, kDevPumpRound);
    ++c_->calls[5];
    return inner_->pump_round();
  }
  Cycle quiet_horizon(Cycle cap) const override {
    Scoped s(t_, kDevQuietHorizon);
    ++c_->calls[6];
    return inner_->quiet_horizon(cap);
  }
  void advance_quiet(Cycle n) override {
    Scoped s(t_, kDevAdvanceQuiet);
    ++c_->calls[7];
    const Cycle before = inner_->now();
    inner_->advance_quiet(n);
    c_->cycles_advanced += inner_->now() - before;
  }

  const JobResult* result(DeviceJobId id) const override {
    Scoped s(t_, kDevResult);
    ++c_->calls[3];
    const JobResult* r = inner_->result(id);
    if (r != nullptr && r->complete) ++c_->result_complete;
    return r;
  }
  std::uint64_t completions() const override {
    Scoped s(t_, kDevCompletions);
    ++c_->calls[4];
    return inner_->completions();
  }
  void forget(DeviceJobId id) override {
    Scoped s(t_, kDevOther);
    inner_->forget(id);
  }

  CoreImage slot_image(std::size_t slot) const override {
    Scoped s(t_, kDevOther);
    return inner_->slot_image(slot);
  }
  bool slot_reconfiguring(std::size_t slot) const override {
    Scoped s(t_, kDevOther);
    return inner_->slot_reconfiguring(slot);
  }
  std::size_t slots_with_image(CoreImage img) const override {
    Scoped s(t_, kDevOther);
    return inner_->slots_with_image(img);
  }
  std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot, CoreImage image,
                                                     mccp::reconfig::BitstreamStore store) override {
    Scoped s(t_, kDevOther);
    return inner_->begin_reconfiguration(slot, image, store);
  }
  std::uint64_t reconfigurations() const override { return inner_->reconfigurations(); }
  std::uint64_t reconfig_stall_cycles() const override { return inner_->reconfig_stall_cycles(); }
  std::uint64_t reconfigurations_to(CoreImage img) const override {
    return inner_->reconfigurations_to(img);
  }

  Cycle now() const override {
    Scoped s(t_, kDevOther);
    return inner_->now();
  }
  std::size_t num_cores() const override { return inner_->num_cores(); }
  std::size_t inflight() const override {
    Scoped s(t_, kDevOther);
    return inner_->inflight();
  }
  std::size_t open_channel_count() const override {
    Scoped s(t_, kDevOther);
    return inner_->open_channel_count();
  }
  bool failed() const override {
    Scoped s(t_, kDevOther);
    return inner_->failed();
  }

 private:
  std::unique_ptr<mccp::host::Device> inner_;
  Tracer* t_;
  DeviceCounts* c_;
};

}  // namespace perfbench
