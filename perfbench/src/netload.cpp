#include "netload.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibration.h"
#include "kernels.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/jobgen.h"

namespace perfbench {

namespace mw = mccp::workload;
namespace mn = mccp::net;

namespace {

/// A loopback server on its own thread plus the connected, keyed clients
/// with every class's channels open. Clients say GOODBYE before the server
/// stops; the thread is joined before the server is destroyed.
struct Service {
  struct Wire {
    std::size_t client = 0;
    std::uint32_t channel = 0;
  };

  std::unique_ptr<mn::Server> server;
  std::atomic<bool> server_failed{false};
  std::thread thread;
  std::vector<std::unique_ptr<mn::Client>> clients;
  std::vector<std::vector<Wire>> channels;  // [class][class channel]

  explicit Service(const mw::ScenarioSpec& spec) {
    mn::ServerConfig sc;
    sc.name = "perfbench";
    sc.engine = mw::engine_config_from(spec);
    server = std::make_unique<mn::Server>(std::move(sc));
    thread = std::thread([this] {
      try {
        server->run();
      } catch (...) {
        server_failed = true;
      }
    });
    try {
      mn::ClientConfig cc;
      cc.port = server->port();
      for (std::size_t k = 0; k < kConnections; ++k) {
        cc.name = "perfbench#" + std::to_string(k);
        clients.push_back(std::make_unique<mn::Client>(cc));
      }
      for (std::size_t i = 0; i < spec.classes.size(); ++i)
        clients[0]->provision_key(static_cast<std::uint8_t>(i + 1),
                                  mw::class_key(spec.seed, i, spec.classes[i].profile.key_len));
      std::size_t g = 0;  // class-major channel order, as the in-process runner opens them
      for (std::size_t i = 0; i < spec.classes.size(); ++i) {
        const mw::ChannelClass& p = spec.classes[i].profile;
        channels.emplace_back();
        for (std::size_t c = 0; c < spec.classes[i].channels; ++c, ++g) {
          const std::size_t k = g % kConnections;
          const mn::OpenOkFrame ok = clients[k]->open_channel(
              static_cast<std::uint8_t>(p.mode), static_cast<std::uint8_t>(i + 1),
              static_cast<std::uint8_t>(p.tag_len), static_cast<std::uint8_t>(p.nonce_len));
          channels.back().push_back({k, ok.channel});
        }
      }
    } catch (...) {
      shutdown();
      throw;
    }
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { shutdown(); }

  /// CPU time the server thread has used so far.
  double server_cpu_ns() {
    clockid_t id{};
    timespec ts{};
    if (pthread_getcpuclockid(thread.native_handle(), &id) != 0 || clock_gettime(id, &ts) != 0)
      throw std::runtime_error("net_loopback: cannot read the server thread's CPU clock");
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  }

  void shutdown() {
    clients.clear();
    if (thread.joinable()) {
      server->stop();
      thread.join();
    }
  }
};

/// The scenario's class streams, unbounded, merged by arrival instant.
class MergedStream {
 public:
  explicit MergedStream(const mw::ScenarioSpec& spec) : spec_(spec) {
    for (mw::ClassSpec& cs : spec_.classes) cs.packets = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < spec_.classes.size(); ++i)
      streams_.push_back(std::make_unique<mw::ClassJobStream>(spec_.classes[i], spec_.seed, i, 0));
  }

  std::pair<std::size_t, mw::GeneratedJob> next() {
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i)
      if (streams_[i]->next_time() &&
          (best == streams_.size() || *streams_[i]->next_time() < *streams_[best]->next_time()))
        best = i;
    if (best == streams_.size()) throw std::runtime_error("net_loopback: class streams exhausted");
    return {best, streams_[best]->take()};
  }

  std::vector<JobRecord> records(std::size_t n) {
    std::vector<JobRecord> out;
    for (std::size_t i = 0; i < n; ++i) {
      auto [cls, job] = next();
      JobRecord r;
      r.class_index = cls;
      r.iv = std::move(job.job.iv_or_nonce);
      r.aad = std::move(job.job.aad);
      r.plaintext = std::move(job.job.payload);
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  mw::ScenarioSpec spec_;
  std::vector<std::unique_ptr<mw::ClassJobStream>> streams_;
};

}  // namespace

NetRun run_net(const mw::ScenarioSpec& spec, double rate, double seconds, bool sample_setups,
               Tracer* tracer) {
  NetRun out;
  auto timed_setup = [&] {
    const std::int64_t t = now_ns();
    auto s = std::make_unique<Service>(spec);
    out.setup_ns.push_back(static_cast<double>(now_ns() - t));
    return s;
  };
  std::unique_ptr<Service> svc = timed_setup();

  MergedStream gen(spec);
  std::vector<std::size_t> cursor(spec.classes.size(), 0);
  std::vector<std::uint64_t> digests;
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t send_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t give_up = send_end + 30'000'000'000;
  constexpr std::int64_t kWindowNs = 500'000'000;
  out.windows.resize(static_cast<std::size_t>(std::ceil(seconds * 1e9 / kWindowNs)));
  auto window_of = [&](std::int64_t t) {
    return std::min(out.windows.size() - 1, static_cast<std::size_t>((t - t0) / kWindowNs));
  };
  std::size_t cpu_window = 0;  // window whose server CPU time is being measured
  double cpu_mark = 0;

  for (;;) {
    const std::int64_t t = now_ns();
    if (t >= t0 && cpu_window < out.windows.size()) {
      const std::size_t w = t >= send_end ? out.windows.size() : window_of(t);
      if (cpu_mark == 0) cpu_mark = svc->server_cpu_ns();
      if (w > cpu_window) {
        const double cpu = svc->server_cpu_ns();
        out.windows[cpu_window].server_cpu_ns = cpu - cpu_mark;
        cpu_mark = cpu;
        cpu_window = w;
        if (sample_setups && w < out.windows.size()) {
          timed_setup();
          out.calibration_ns.push_back(calibration_ns());
        }
      }
    }
    for (;;) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(period_ns * out.sent);
      if (due > t || due >= send_end) break;
      auto [cls, job] = gen.next();
      const Service::Wire w = svc->channels[cls][cursor[cls]++ % svc->channels[cls].size()];
      mn::SubmitJob sj;
      sj.job_id = out.sent + 1;
      sj.priority = static_cast<std::uint8_t>(job.job.priority);
      sj.iv = std::move(job.job.iv_or_nonce);
      sj.aad = std::move(job.job.aad);
      sj.payload = std::move(job.job.payload);
      out.late_ns.push_back(static_cast<double>(t - due));
      const std::size_t window = window_of(due);
      const std::size_t index = out.sent++;
      if (tracer != nullptr) digests.emplace_back();
      Scoped span(tracer, kClientSubmit);
      svc->clients[w.client]->submit(
          w.channel, std::move(sj),
          [&out, &digests, &window_of, tracer, due, index, window](const mn::CompletionFrame& c) {
            const std::int64_t done = now_ns();
            ++out.completed;
            ++out.windows[window_of(done)].completed;
            out.windows[window].rtt_ns.push_back(static_cast<double>(done - due));
            if (!c.auth_ok) ++out.failed;
            if (tracer != nullptr) digests[index] = output_digest(c.payload, c.tag);
          });
    }
    std::size_t inflight = 0;
    for (auto& c : svc->clients) {
      // The loop polls without blocking between due instants; only polls
      // that delivered completions are client work worth a span.
      const std::int64_t start = tracer != nullptr ? now_ns() : 0;
      if (c->poll(0) > 0 && tracer != nullptr) tracer->record(kClientPoll, start, now_ns());
      inflight += c->inflight();
    }
    if (t >= send_end && inflight == 0) break;
    if (t > give_up || svc->server_failed)
      throw std::runtime_error("net_loopback: service stopped answering");
  }
  if (tracer != nullptr) {
    out.client_ns = tracer->total_ns(kClientSubmit) + tracer->total_ns(kClientPoll);
    svc.reset();  // the oracle flips the kernel tier: no crypto may run elsewhere
    MergedStream again(spec);
    constexpr std::size_t kChunk = 4096;
    for (std::size_t base = 0; base < digests.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, digests.size() - base);
      const std::vector<JobRecord> jobs = again.records(n);
      const std::vector<std::uint64_t> got(digests.begin() + base, digests.begin() + base + n);
      out.oracle_mismatches += oracle_digest_mismatches(spec, jobs, got);
    }
  }
  return out;
}

std::vector<JobRecord> net_packets(const mw::ScenarioSpec& spec, std::size_t n) {
  return MergedStream(spec).records(n);
}

}  // namespace perfbench
