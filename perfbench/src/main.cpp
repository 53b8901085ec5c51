// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME [--seed N] --seconds S --trace 0|1
//             --spec-dir DIR [--out-dir DIR]
//
// Runs one workload for S seconds of measurement and prints a report: one
// "metric NAME VALUE UNIT" line per metric, a provenance line, and as the
// last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones, from a traced run. The workloads,
// and which end-to-end metric each layer metric should move, are described
// in perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calibration.h"
#include "crypto/kernels.h"
#include "kernels.h"
#include "netload.h"
#include "replay.h"
#include "sample.h"
#include "sim/simulation.h"
#include "trace.h"
#include "workload/runner.h"
#include "workload/spec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace mw = mccp::workload;

struct Workload {
  const char* name;
  const char* preset;  // file under --spec-dir
  std::uint64_t held_out_seed;
};

// Default seeds are the presets' own; the held-out seeds are for confirming
// a claimed gain on inputs it was not tuned on.
constexpr Workload kWorkloads[] = {
    {"aes_fleet", "mixed_radio.json", 4343},
    {"hash_reconfig", "reconfig_churn.json", 7878},
    {"qos_fidelity", "tenant_storm.json", 2424},
    {"net_loopback", "mixed_radio.json", 4343},
};

/// Offered load of net_loopback, packets per second (one fixed rate).
constexpr double kNetRate = 4000.0;

// Every class name any workload's preset uses, for the model.* metric names.
constexpr const char* kClassNames[] = {"voip", "video", "bulk", "control", "aes_burst",
                                       "hash_burst"};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string spec_dir;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--spec-dir")
      a.spec_dir = v;
    else if (k == "--out-dir")
      a.out_dir = v;
    else
      throw std::invalid_argument("unknown flag " + k);
  }
  if (a.spec_dir.empty()) throw std::invalid_argument("--spec-dir is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Everything one workload run accumulates.
struct Run {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (problems.size() < 20) problems.push_back(why);
  }
};

std::uint64_t jobs_of(const ModelFigures& m) {
  std::uint64_t n = m.completed();
  for (const ClassFigures& c : m.classes) n += c.decrypt_completed;
  return n;
}

std::uint64_t offered_of(const ModelFigures& m) {
  std::uint64_t n = m.offered();
  for (const ClassFigures& c : m.classes) n += c.decrypt_submitted;
  return n;
}

/// Output check on one runner or replay pass against the reference.
void check_pass(Run& run, const ModelFigures& got, const ModelFigures* ref, const char* what) {
  run.attempted += offered_of(got);
  if (const std::uint64_t v = got.violations(); v > 0)
    run.fail(v, std::string(what) + ": packets neither completed nor refused by plan, "
                                    "auth failures or lost jobs");
  if (ref != nullptr)
    if (const std::string d = got.diff(*ref); !d.empty())
      run.fail(offered_of(got), std::string(what) + " differs from the runner: " + d);
}

/// A pass that threw: every packet it would have offered counts as failed.
template <class F>
void guarded(Run& run, std::uint64_t packets, const char* what, F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    run.attempted += packets;
    run.fail(packets, std::string(what) + " threw: " + e.what());
  }
}

ModelFigures run_runner(const mw::ScenarioSpec& spec, double* wall_ns) {
  const std::int64_t t = now_ns();
  const mw::ScenarioReport r = mw::ScenarioRunner(spec).run();
  if (wall_ns != nullptr) *wall_ns = static_cast<double>(now_ns() - t);
  return ModelFigures::from(r);
}

double modeled_p99(const ModelFigures& m) {
  mw::LogHistogram all;
  for (const ClassFigures& c : m.classes) all.merge(c.latency);
  return static_cast<double>(all.quantile(0.99));
}

/// model.<backend>.* for every class name (0 where the workload has none).
void add_model(Run& run, const char* backend, const ModelFigures* m) {
  const std::string p = std::string("model.") + backend + ".";
  run.add(p + "makespan_cycles", m ? static_cast<double>(m->makespan_cycles) : 0, "cycles");
  run.add(p + "busy_rejections", m ? static_cast<double>(m->busy_rejections()) : 0, "count");
  for (const char* cls : kClassNames) {
    const ClassFigures* c = nullptr;
    if (m != nullptr)
      for (const ClassFigures& f : m->classes)
        if (f.name == cls) c = &f;
    auto q = [&](const mw::LogHistogram& h, double x) {
      return c ? static_cast<double>(h.quantile(x)) : 0.0;
    };
    run.add(p + cls + ".p50_cycles", c ? q(c->latency, 0.5) : 0, "cycles");
    run.add(p + cls + ".p99_cycles", c ? q(c->latency, 0.99) : 0, "cycles");
    run.add(p + cls + ".service_p99_cycles", c ? q(c->service, 0.99) : 0, "cycles");
  }
}

void add_kernel_metrics(Run& run, const KernelCosts& k) {
  run.add("crypto.ns_per_pkt", k.ns_per_pkt, "ns");
  run.add("crypto.ctr.ns_per_kb", k.ctr, "ns/KB");
  run.add("crypto.gcm.ns_per_kb", k.gcm, "ns/KB");
  run.add("crypto.ccm.ns_per_kb", k.ccm, "ns/KB");
  run.add("crypto.cbc_mac.ns_per_kb", k.cbc_mac, "ns/KB");
  run.add("crypto.whirlpool.ns_per_kb", k.whirlpool, "ns/KB");
}

/// |fast - sim| / sim of makespan, and the worst class's p99.
std::pair<double, double> fidelity(const ModelFigures& sim, const ModelFigures& fast) {
  auto rel = [](double f, double s) { return s == 0 ? 0.0 : std::fabs(f - s) / s; };
  const double mk = rel(static_cast<double>(fast.makespan_cycles),
                        static_cast<double>(sim.makespan_cycles));
  double p99 = 0;
  for (std::size_t i = 0; i < sim.classes.size() && i < fast.classes.size(); ++i)
    p99 = std::max(p99, rel(static_cast<double>(fast.classes[i].latency.quantile(0.99)),
                            static_cast<double>(sim.classes[i].latency.quantile(0.99))));
  return {mk, p99};
}

/// Per-class completed/throttled/shed must not depend on the backend.
void check_backends_agree(Run& run, const ModelFigures& sim, const ModelFigures& fast) {
  for (std::size_t i = 0; i < sim.classes.size(); ++i) {
    const ClassFigures& s = sim.classes[i];
    const ClassFigures& f = fast.classes[i];
    if (s.completed != f.completed || s.throttled != f.throttled || s.shed != f.shed)
      run.fail(s.offered, "class " + s.name + ": sim and fast outcome counts differ");
  }
}

/// The end-to-end host-time metrics, scaled to reference host speed; the
/// raw figures go to the report.
void add_host_metrics(Run& run, double pkts_per_s, double setup_s, double slowdown) {
  std::printf("host: slowdown %.4f against the calibration reference; unscaled pkts_per_s "
              "%.6g, setup_s %.6g\n",
              slowdown, pkts_per_s, setup_s);
  run.add("pkts_per_s", pkts_per_s * slowdown, "1/s");
  run.add("setup_s", slowdown > 0 ? setup_s / slowdown : 0, "s");
}

// ---- inproc workloads --------------------------------------------------------

/// The run's reference pass of `spec`, output-checked; with `vs_fast` the
/// same scenario also runs on the fast backend, whose per-class outcome
/// counts must match.
struct Reference {
  ModelFigures timed;
  std::optional<ModelFigures> fast;
};

Reference reference(Run& run, const mw::ScenarioSpec& spec, bool vs_fast, double* wall_ns) {
  Reference r{run_runner(spec, wall_ns), std::nullopt};
  check_pass(run, r.timed, nullptr, "runner");
  if (vs_fast) {
    mw::ScenarioSpec fast = spec;
    fast.backend = mccp::host::Backend::kFast;
    r.fast = run_runner(fast, nullptr);
    check_pass(run, *r.fast, nullptr, "fast runner");
    check_backends_agree(run, r.timed, *r.fast);
  }
  return r;
}

/// Scenarios per end-to-end run: the seed itself and seeds derived from it.
/// Pass cost depends on the seed's arrival pattern (on the simulator it
/// follows the simulated makespan), so one scenario per run would make
/// pkts_per_s move with the seed as much as with the code.
constexpr std::size_t kSubSeeds = 8;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * k;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void inproc_e2e(Run& run, const mw::ScenarioSpec& spec, bool vs_fast, double seconds) {
  std::vector<mw::ScenarioSpec> specs(kSubSeeds, spec);
  for (std::size_t k = 1; k < kSubSeeds; ++k) specs[k].seed = sub_seed(spec.seed, k);
  std::vector<std::optional<ModelFigures>> refs(kSubSeeds);
  std::vector<std::vector<double>> runner_ns(kSubSeeds);
  std::vector<double> setup_ns, calibration;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < kSubSeeds || now_ns() < end; ++i) {
    const std::size_t k = i % kSubSeeds;
    guarded(run, refs[k] ? offered_of(*refs[k]) : 1, "ScenarioRunner::run", [&] {
      double wall = 0;
      if (!refs[k]) {
        refs[k] = reference(run, specs[k], vs_fast, &wall).timed;
      } else {
        const ModelFigures m = run_runner(specs[k], &wall);
        check_pass(run, m, &*refs[k], "runner");
      }
      runner_ns[k].push_back(wall);
    });
    guarded(run, 1, "set-up", [&] {
      ReplayOptions o;
      o.setup_only = true;
      setup_ns.push_back(static_cast<double>(replay(specs[k], o).setup_ns));
    });
    calibration.push_back(calibration_ns());
  }

  const double setup = median(setup_ns);
  double jobs = 0, timed = 0;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    if (!refs[k] || runner_ns[k].empty()) continue;
    jobs += static_cast<double>(jobs_of(*refs[k]));
    timed += undisturbed(runner_ns[k]) - setup;
  }
  add_host_metrics(run, timed > 0 ? jobs * 1e9 / timed : 0, setup / 1e9,
                   host_slowdown(calibration));
}

struct LayerSample {
  double engine_self = 0, device = 0, replay_self = 0, traced_pass = 0;
  DeviceCounts counts;
};

void inproc_layers(Run& run, const mw::ScenarioSpec& spec, const ModelFigures& ref,
                   const ModelFigures* fast_ref, double seconds, const std::string& out_dir) {
  const double pkts = static_cast<double>(jobs_of(ref));
  std::vector<double> runner_ns, setup_ns, plan_ns, untraced_pass, sim_ns_per_cycle;
  std::vector<LayerSample> samples;
  std::vector<JobRecord> last_jobs;
  Tracer tracer;
  DeviceCounts counts;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    guarded(run, offered_of(ref), "ScenarioRunner::run", [&] {
      double wall = 0;
      const ModelFigures m = run_runner(spec, &wall);
      check_pass(run, m, &ref, "runner");
      runner_ns.push_back(wall);
    });
    guarded(run, offered_of(ref), "replay", [&] {
      const ReplayResult r = replay(spec, ReplayOptions{});
      check_pass(run, r.model, &ref, "replay");
      setup_ns.push_back(static_cast<double>(r.setup_ns));
      plan_ns.push_back(static_cast<double>(r.plan_ns));
      untraced_pass.push_back(static_cast<double>(r.pass_ns));
    });
    guarded(run, offered_of(ref), "traced replay", [&] {
      ReplayOptions o;
      o.tracer = &tracer;
      o.counts = &counts;
      o.keep_jobs = true;
      ReplayResult r = replay(spec, o);
      check_pass(run, r.model, &ref, "traced replay");
      LayerSample s;
      for (std::uint16_t n : {kEngMaxCycle, kEngSubmit, kEngStep, kEngAdvanceTo})
        s.engine_self += static_cast<double>(tracer.self_ns(n));
      for (std::uint16_t n = kDevSubmit; n <= kDevOther; ++n)
        s.device += static_cast<double>(tracer.total_ns(n));
      s.replay_self = static_cast<double>(tracer.self_ns(kPass) + tracer.self_ns(kOnDone));
      s.traced_pass = static_cast<double>(tracer.total_ns(kPass));
      s.counts = counts;
      if (counts.cycles_advanced > 0 && spec.backend == mccp::host::Backend::kSim)
        sim_ns_per_cycle.push_back(s.device / static_cast<double>(counts.cycles_advanced));
      samples.push_back(s);
      last_jobs = std::move(r.jobs);
    });
  } while (now_ns() < end);

  if (!out_dir.empty())
    tracer.write_tsv(out_dir + "/" + run.w->name + "-seed" + std::to_string(run.seed) +
                     ".spans.tsv");

  // Output check: every payload and tag of the last traced pass against the
  // portable kernels.
  if (const std::uint64_t bad = oracle_mismatches(spec, last_jobs); bad > 0)
    run.fail(bad, "outputs differ from the portable-kernel oracle");
  if (last_jobs.empty()) run.fail(1, "no traced pass completed");

  auto per_pass = [&](auto field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(field(s));
    return v;
  };
  auto med = [&](auto field) { return median(per_pass(field)); };
  auto fastest = [&](auto field) { return undisturbed(per_pass(field)); };
  add_kernel_metrics(run, kernel_pass(spec, last_jobs, 3));

  const double engine_self = fastest([](const LayerSample& s) { return s.engine_self; }) / pkts;
  const double device = fastest([](const LayerSample& s) { return s.device; }) / pkts;
  const double replay_self = fastest([](const LayerSample& s) { return s.replay_self; }) / pkts;
  const double traced = fastest([](const LayerSample& s) { return s.traced_pass; }) / pkts;
  const double untraced = undisturbed(untraced_pass) / pkts;
  run.add("host.engine_self_ns_per_pkt", engine_self, "ns");
  run.add("host.device_ns_per_pkt", device, "ns");
  for (std::size_t i = 0; i < kDeviceMethodNames.size(); ++i)
    run.add(std::string("host.device_calls_per_pkt.") + kDeviceMethodNames[i],
            med([i](const LayerSample& s) { return static_cast<double>(s.counts.calls[i]); }) /
                pkts,
            "count");
  run.add("host.result_polls_per_completion",
          med([](const LayerSample& s) {
            return s.counts.result_complete == 0
                       ? 0.0
                       : static_cast<double>(s.counts.calls[3]) /
                             static_cast<double>(s.counts.result_complete);
          }),
          "ratio");
  const bool sim = spec.backend == mccp::host::Backend::kSim;
  const ModelFigures* sim_m = sim ? &ref : nullptr;
  const ModelFigures* fast_m = sim ? fast_ref : &ref;
  auto busy_per_pkt = [&](const ModelFigures* m) {
    return m ? static_cast<double>(m->busy_rejections()) / static_cast<double>(jobs_of(*m)) : 0.0;
  };
  run.add("host.busy_rejections_per_pkt.sim", busy_per_pkt(sim_m), "ratio");
  run.add("host.busy_rejections_per_pkt.fast", busy_per_pkt(fast_m), "ratio");

  std::uint64_t advancing = 0;
  if (!samples.empty())
    advancing = samples.back().counts.calls[1] + samples.back().counts.calls[2] +
                samples.back().counts.calls[7];
  run.add("mccp.ns_per_sim_cycle", sim ? undisturbed(sim_ns_per_cycle) : 0, "ns");
  run.add("mccp.sim_cycles_per_call",
          sim && advancing > 0 ? static_cast<double>(samples.back().counts.cycles_advanced) /
                                     static_cast<double>(advancing)
                               : 0,
          "cycles");

  run.add("reconfig.swaps", static_cast<double>(ref.reconfigurations), "count");
  run.add("reconfig.stall_cycles", static_cast<double>(ref.reconfig_stall_cycles), "cycles");
  std::uint64_t throttled = 0, shed = 0;
  for (const ClassFigures& c : ref.classes) {
    throttled += c.throttled;
    shed += c.shed;
  }
  run.add("qos.plan_ms", median(plan_ns) / 1e6, "ms");
  run.add("qos.throttled", static_cast<double>(throttled), "count");
  run.add("qos.shed", static_cast<double>(shed), "count");

  run.add("workload.runner_self_ns_per_pkt",
          (undisturbed(runner_ns) - median(setup_ns)) / pkts - untraced, "ns");
  run.add("workload.replay_self_ns_per_pkt", replay_self, "ns");
  run.add("workload.peak_inflight", static_cast<double>(ref.peak_inflight), "count");
  run.add("net.client_ns_per_pkt", 0, "ns");
  run.add("net.gen_late_ms", 0, "ms");
  run.add("net.rtt_p50_us", 0, "us");
  run.add("net.rtt_p99_us", 0, "us");

  add_model(run, "sim", sim_m);
  add_model(run, "fast", fast_m);
  if (sim_m != nullptr && fast_m != nullptr) {
    const auto [mk, p99] = fidelity(*sim_m, *fast_m);
    run.add("modeled_mbps",
            mccp::sim::throughput_mbps(sim_m->payload_bytes * 8, sim_m->makespan_cycles), "Mbps");
    run.add("modeled_p99_cycles", modeled_p99(*sim_m), "cycles");
    run.add("fidelity_makespan_err", mk, "ratio");
    run.add("fidelity_p99_err", p99, "ratio");
  } else {
    run.add("modeled_mbps", 0, "Mbps");
    run.add("modeled_p99_cycles", 0, "cycles");
    run.add("fidelity_makespan_err", 0, "ratio");
    run.add("fidelity_p99_err", 0, "ratio");
  }
  run.add("trace.overhead_frac", untraced > 0 ? traced / untraced - 1 : 0, "ratio");

  std::printf("accounting: engine self %.0f + device %.0f + replay self %.0f = %.0f ns/pkt "
              "traced, against %.0f ns/pkt untraced (tracing overhead %.1f%%)\n",
              engine_self, device, replay_self, engine_self + device + replay_self, untraced,
              untraced > 0 ? (traced / untraced - 1) * 100 : 0.0);
}

// ---- net_loopback ------------------------------------------------------------

/// Undisturbed per-window figures of an open-loop run: completions per
/// second of server-thread CPU time, and request latency quantiles.
struct NetFigures {
  double pkts_per_s = 0, rtt_p50_ns = 0, rtt_p99_ns = 0;
};

NetFigures net_figures(const NetRun& r) {
  std::vector<double> cost, p50, p99;
  for (const NetWindow& w : r.windows) {
    if (w.completed > 0 && w.server_cpu_ns > 0)
      cost.push_back(w.server_cpu_ns / static_cast<double>(w.completed));
    if (w.rtt_ns.size() >= 1000) {  // p99 with at least ten samples beyond it
      p50.push_back(quantile(w.rtt_ns, 0.5));
      p99.push_back(quantile(w.rtt_ns, 0.99));
    }
  }
  const double c = undisturbed(cost);
  return {c > 0 ? 1e9 / c : 0, undisturbed(p50), undisturbed(p99)};
}

void check_net(Run& run, const NetRun& r) {
  run.attempted += r.sent;
  const std::uint64_t lost = r.sent - r.completed;
  if (r.failed + lost > 0) run.fail(r.failed + lost, "net: failed or lost completions");
  if (r.oracle_mismatches > 0)
    run.fail(r.oracle_mismatches, "net outputs differ from the portable-kernel oracle");
}

void net_e2e(Run& run, const mw::ScenarioSpec& spec, double seconds) {
  guarded(run, static_cast<std::uint64_t>(kNetRate * seconds), "net_loopback", [&] {
    const NetRun r = run_net(spec, kNetRate, seconds, true, nullptr);
    check_net(run, r);
    add_host_metrics(run, net_figures(r).pkts_per_s, median(r.setup_ns) / 1e9,
                     host_slowdown(r.calibration_ns));
  });
}

void net_layers(Run& run, const mw::ScenarioSpec& spec, double seconds, const std::string& out_dir) {
  // Half the time untraced, half traced: the rtt difference is the
  // tracing overhead.
  NetFigures plain_fig, traced_fig;
  NetRun traced;
  guarded(run, static_cast<std::uint64_t>(kNetRate * seconds), "net_loopback", [&] {
    const NetRun plain = run_net(spec, kNetRate, seconds / 2, false, nullptr);
    check_net(run, plain);
    plain_fig = net_figures(plain);
    Tracer tracer;
    traced = run_net(spec, kNetRate, seconds / 2, false, &tracer);
    check_net(run, traced);
    traced_fig = net_figures(traced);
    if (!out_dir.empty())
      tracer.write_tsv(out_dir + "/" + run.w->name + "-seed" + std::to_string(run.seed) +
                       ".spans.tsv");
  });
  add_kernel_metrics(run, kernel_pass(spec, net_packets(spec, 512), 3));
  // The server's Engine is built inside net::Server, out of the
  // benchmark's reach: the host, sim, plan and runner layers read 0 here.
  run.add("host.engine_self_ns_per_pkt", 0, "ns");
  run.add("host.device_ns_per_pkt", 0, "ns");
  for (const char* m : kDeviceMethodNames)
    run.add(std::string("host.device_calls_per_pkt.") + m, 0, "count");
  run.add("host.result_polls_per_completion", 0, "ratio");
  run.add("host.busy_rejections_per_pkt.sim", 0, "ratio");
  run.add("host.busy_rejections_per_pkt.fast", 0, "ratio");
  run.add("mccp.ns_per_sim_cycle", 0, "ns");
  run.add("mccp.sim_cycles_per_call", 0, "cycles");
  run.add("reconfig.swaps", 0, "count");
  run.add("reconfig.stall_cycles", 0, "cycles");
  run.add("qos.plan_ms", 0, "ms");
  run.add("qos.throttled", 0, "count");
  run.add("qos.shed", 0, "count");
  run.add("workload.runner_self_ns_per_pkt", 0, "ns");
  run.add("workload.replay_self_ns_per_pkt", 0, "ns");
  run.add("workload.peak_inflight", 0, "count");
  run.add("net.client_ns_per_pkt",
          traced.completed > 0
              ? static_cast<double>(traced.client_ns) / static_cast<double>(traced.completed)
              : 0,
          "ns");
  run.add("net.gen_late_ms", quantile(traced.late_ns, 0.99) / 1e6, "ms");
  run.add("net.rtt_p50_us", plain_fig.rtt_p50_ns / 1e3, "us");
  run.add("net.rtt_p99_us", plain_fig.rtt_p99_ns / 1e3, "us");
  add_model(run, "sim", nullptr);
  add_model(run, "fast", nullptr);
  run.add("modeled_mbps", 0, "Mbps");
  run.add("modeled_p99_cycles", 0, "cycles");
  run.add("fidelity_makespan_err", 0, "ratio");
  run.add("fidelity_p99_err", 0, "ratio");
  run.add("trace.overhead_frac",
          plain_fig.rtt_p50_ns > 0 ? traced_fig.rtt_p50_ns / plain_fig.rtt_p50_ns - 1 : 0,
          "ratio");
}

// ---- output ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string provenance_json(const Run& run) {
  std::string compiler =
#if defined(__clang__)
      std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
      std::string("gcc ") + __VERSION__;
#else
      "unknown";
#endif
  return "{\"workload\": " + quote(run.w->name) + ", \"seed\": " + std::to_string(run.seed) +
         ", \"held_out_seed\": " + std::to_string(run.w->held_out_seed) +
         ", \"kernel\": " + quote(mccp::crypto::active_kernel_name()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + quote(compiler) +
         ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) + "}";
}

std::string result_json(const Run& run) {
  std::string m;
  for (const Metric& x : run.metrics) {
    if (!m.empty()) m += ", ";
    m += quote(x.name) + ": {\"value\": " + num(x.value) + ", \"unit\": " + quote(x.unit) + "}";
  }
  return "{\"correct\": " + std::string(run.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(run.attempted, 1)) +
         ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {" + m + "}}";
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Run run;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) run.w = &w;
  if (run.w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);

  mw::ScenarioSpec spec = mw::load_scenario(args.spec_dir + "/" + run.w->preset);
  if (args.seed) spec.seed = *args.seed;
  run.seed = spec.seed;
  const std::string name = run.w->name;

  if (name == "net_loopback") {
    if (args.trace)
      net_layers(run, spec, args.seconds, args.out_dir);
    else
      net_e2e(run, spec, args.seconds);
  } else {
    // qos_fidelity times the simulator and checks it against the fast
    // backend; the other two time the fast backend alone.
    const bool vs_fast = name == "qos_fidelity";
    spec.backend = vs_fast ? mccp::host::Backend::kSim : mccp::host::Backend::kFast;
    if (args.trace) {
      const Reference ref = reference(run, spec, vs_fast, nullptr);  // also the warm-up pass
      inproc_layers(run, spec, ref.timed, ref.fast ? &*ref.fast : nullptr, args.seconds,
                    args.out_dir);
    } else {
      inproc_e2e(run, spec, vs_fast, args.seconds);
    }
  }
  if (!args.trace) run.add("peak_rss_mb", peak_rss_mb(), "MB");

  for (const Metric& m : run.metrics)
    std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : run.problems) std::printf("check failed: %s\n", p.c_str());
  const std::string prov = provenance_json(run);
  std::printf("provenance %s\n", prov.c_str());
  const std::string result = result_json(run);
  if (!args.out_dir.empty()) {
    std::ofstream f(args.out_dir + "/" + name + "-seed" + std::to_string(run.seed) + "-trace" +
                    (args.trace ? "1" : "0") + ".json");
    f << "{\"provenance\": " << prov << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
