#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "host/engine.h"
#include "workload/jobgen.h"
#include "workload/tenantplan.h"

namespace perfbench {

namespace mw = mccp::workload;
namespace mh = mccp::host;

ModelFigures ModelFigures::from(const mw::ScenarioReport& report) {
  ModelFigures m;
  m.makespan_cycles = report.makespan_cycles;
  m.reconfigurations = report.reconfigurations;
  m.reconfig_stall_cycles = report.reconfig_stall_cycles;
  m.peak_inflight = report.peak_inflight;
  m.lost_jobs = report.lost_jobs;
  for (const mw::ClassReport& c : report.classes) {
    m.payload_bytes += c.payload_bytes;
    ClassFigures f;
    f.name = c.name;
    f.offered = c.offered;
    f.completed = c.completed;
    f.throttled = c.throttled;
    f.shed = c.shed;
    f.dropped = c.dropped;
    f.auth_failures = c.auth_failures;
    f.busy_rejections = c.busy_rejections;
    f.decrypt_submitted = c.decrypt_submitted;
    f.decrypt_completed = c.decrypt_completed;
    f.latency = c.latency;
    f.service = c.service;
    m.classes.push_back(std::move(f));
  }
  return m;
}

std::uint64_t ModelFigures::offered() const {
  std::uint64_t n = 0;
  for (const ClassFigures& c : classes) n += c.offered;
  return n;
}

std::uint64_t ModelFigures::completed() const {
  std::uint64_t n = 0;
  for (const ClassFigures& c : classes) n += c.completed;
  return n;
}

std::uint64_t ModelFigures::busy_rejections() const {
  std::uint64_t n = 0;
  for (const ClassFigures& c : classes) n += c.busy_rejections;
  return n;
}

std::uint64_t ModelFigures::violations() const {
  std::uint64_t n = lost_jobs;
  for (const ClassFigures& c : classes) {
    const std::uint64_t resolved = c.completed + c.throttled + c.shed + c.dropped;
    n += c.offered > resolved ? c.offered - resolved : resolved - c.offered;
    n += c.auth_failures;
    n += c.decrypt_submitted - std::min(c.decrypt_submitted, c.decrypt_completed);
  }
  return n;
}

namespace {

std::string hist_diff(const std::string& what, const mw::LogHistogram& a,
                      const mw::LogHistogram& b) {
  if (a.count() != b.count() || a.min() != b.min() || a.max() != b.max() ||
      a.mean() != b.mean())
    return what + " distribution";
  for (double q : {0.5, 0.9, 0.99, 0.999})
    if (a.quantile(q) != b.quantile(q)) return what + " quantile " + std::to_string(q);
  return "";
}

}  // namespace

std::string ModelFigures::diff(const ModelFigures& o) const {
  if (makespan_cycles != o.makespan_cycles)
    return "makespan " + std::to_string(makespan_cycles) + " vs " +
           std::to_string(o.makespan_cycles);
  if (reconfigurations != o.reconfigurations || reconfig_stall_cycles != o.reconfig_stall_cycles)
    return "reconfiguration totals";
  if (peak_inflight != o.peak_inflight) return "peak in-flight";
  if (payload_bytes != o.payload_bytes) return "payload bytes";
  if (classes.size() != o.classes.size()) return "class count";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassFigures& a = classes[i];
    const ClassFigures& b = o.classes[i];
    if (a.offered != b.offered || a.completed != b.completed || a.throttled != b.throttled ||
        a.shed != b.shed || a.dropped != b.dropped || a.auth_failures != b.auth_failures ||
        a.busy_rejections != b.busy_rejections || a.decrypt_submitted != b.decrypt_submitted ||
        a.decrypt_completed != b.decrypt_completed)
      return "class " + a.name + " counts";
    if (std::string d = hist_diff(a.name + " latency", a.latency, b.latency); !d.empty()) return d;
    if (std::string d = hist_diff(a.name + " service", a.service, b.service); !d.empty()) return d;
  }
  return "";
}

namespace {

struct ClassState {
  const mw::ClassSpec* spec = nullptr;
  std::size_t index = 0;
  std::unique_ptr<mw::ClassJobStream> stream;
  std::vector<mh::Channel> channels;
  std::size_t next_channel = 0;
  ClassFigures fig;
};

/// The fleet Engine(engine_config_from(spec)) would build, with each device
/// optionally wrapped in a TracedDevice.
std::unique_ptr<mh::Engine> build_engine(const mw::ScenarioSpec& spec, const ReplayOptions& opt) {
  const mh::EngineConfig cfg = mw::engine_config_from(spec);
  std::vector<std::unique_ptr<mh::Device>> devices;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, cfg.num_devices); ++i) {
    mccp::top::MccpConfig dc = cfg.device;
    if (i < cfg.slot_layouts.size() && !cfg.slot_layouts[i].empty())
      dc.slot_images = cfg.slot_layouts[i];
    std::unique_ptr<mh::Device> d;
    if (cfg.backend == mh::Backend::kFast)
      d = std::make_unique<mh::FastDevice>(dc, "fast" + std::to_string(i));
    else
      d = std::make_unique<mh::SimDevice>(dc, "mccp" + std::to_string(i));
    if (opt.tracer != nullptr)
      d = std::make_unique<TracedDevice>(std::move(d), *opt.tracer, *opt.counts);
    devices.push_back(std::move(d));
  }
  auto engine = std::make_unique<mh::Engine>(std::move(devices), cfg.placement, 0);
  for (const mccp::qos::TenantConfig& t : cfg.tenants) engine->register_tenant(t);
  return engine;
}

}  // namespace

ReplayResult replay(const mw::ScenarioSpec& spec, const ReplayOptions& opt) {
  if (!spec.faults.empty() || spec.autoscale.enabled || spec.threads != 0)
    throw std::invalid_argument("replay: scenario " + spec.name +
                                " needs serial stepping without membership events");
  Tracer* tr = opt.tracer;
  ReplayResult out;

  // ---- set-up: what the runner does before its first submit ----------------
  const std::int64_t setup_start = now_ns();
  std::unique_ptr<mh::Engine> engine_owner = build_engine(spec, opt);
  mh::Engine& engine = *engine_owner;
  const std::int64_t plan_start = now_ns();
  const mw::AdmissionPlan plan = mw::build_admission_plan(spec);
  out.plan_ns = now_ns() - plan_start;
  for (std::size_t i = 0; i < spec.classes.size(); ++i)
    engine.provision_key(static_cast<mccp::top::KeyId>(i + 1),
                         mw::class_key(spec.seed, i, spec.classes[i].profile.key_len));
  std::vector<ClassState> states(spec.classes.size());
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    ClassState& st = states[i];
    const mw::ClassSpec& cs = spec.classes[i];
    st.spec = &cs;
    st.index = i;
    st.stream = std::make_unique<mw::ClassJobStream>(cs, spec.seed, i, spec.max_cycles);
    st.fig.name = cs.profile.name;
    for (std::size_t c = 0; c < cs.channels; ++c) {
      mh::Channel ch = engine.open_channel(cs.profile.mode, static_cast<mccp::top::KeyId>(i + 1),
                                           cs.profile.tag_len, cs.profile.nonce_len, cs.tenant_id);
      if (!ch) throw std::runtime_error("replay: open_channel failed for " + cs.profile.name);
      st.channels.push_back(std::move(ch));
    }
  }
  out.setup_ns = now_ns() - setup_start;
  if (opt.setup_only) return out;

  // ---- the closed loop (mirrors ScenarioRunner::run) ------------------------
  if (tr != nullptr) {
    tr->reset();
    *opt.counts = DeviceCounts{};
  }
  std::vector<JobRecord>& jobs = out.jobs;
  std::size_t inflight = 0, peak_inflight = 0;
  const std::int64_t pass_start = now_ns();
  mccp::sim::Cycle start_cycle = 0;
  {
    Scoped pass(tr, kPass);
    {
      Scoped s(tr, kEngMaxCycle);
      start_cycle = engine.max_cycle();
    }

    auto on_done = [&](ClassState& st, const mh::JobResult& r, std::size_t record) {
      Scoped s(tr, kOnDone);
      --inflight;
      ClassFigures& f = st.fig;
      ++f.completed;
      f.busy_rejections += r.rejections;
      if (opt.keep_jobs) {
        JobRecord& j = jobs[record];
        j.payload = r.payload;
        j.tag = r.tag;
        j.auth_ok = r.auth_ok;
      }
      if (!r.auth_ok) {
        ++f.auth_failures;
        return;
      }
      f.latency.record(r.complete_cycle - r.submit_cycle);
      if (r.accept_cycle > 0 && r.accept_cycle >= r.submit_cycle)
        f.service.record(r.complete_cycle - r.accept_cycle);
    };
    auto on_verify_done = [&](ClassState& st, const mh::JobResult& r, std::size_t record) {
      Scoped s(tr, kOnDone);
      --inflight;
      ++st.fig.decrypt_completed;
      st.fig.busy_rejections += r.rejections;
      if (opt.keep_jobs) {
        JobRecord& j = jobs[record];
        j.verify_done = true;
        j.verify_ok = r.auth_ok;
        j.verify_payload = r.payload;
      }
      if (!r.auth_ok) ++st.fig.auth_failures;
    };

    while (true) {
      mccp::sim::Cycle now = 0;
      {
        Scoped s(tr, kEngMaxCycle);
        now = engine.max_cycle();
      }

      for (ClassState& st : states) {
        mw::ClassJobStream& stream = *st.stream;
        if (!stream.next_time() || *stream.next_time() > static_cast<double>(now)) continue;

        std::vector<std::vector<mw::GeneratedJob>> batches(st.channels.size());
        std::vector<std::size_t> batch_order;
        std::size_t batched = 0;
        while (stream.next_time() && *stream.next_time() <= static_cast<double>(now)) {
          const mccp::qos::Decision qd = plan.decision(st.index, stream.generated());
          if (qd != mccp::qos::Decision::kAccept) {
            stream.skip();
            ++st.fig.offered;
            if (qd == mccp::qos::Decision::kThrottle)
              ++st.fig.throttled;
            else
              ++st.fig.shed;
            continue;
          }
          if (st.spec->tenant_id != 0) {
            const mccp::qos::TenantConfig& tc = engine.tenants().config(st.spec->tenant_id);
            if (tc.quota != 0 &&
                engine.tenants().runtime(st.spec->tenant_id).inflight + batched >= tc.quota)
              break;
          }
          if (plan.drop(st.index, stream.generated())) {
            stream.skip();
            ++st.fig.offered;
            ++st.fig.dropped;
            continue;
          }
          if (inflight >= spec.window) break;
          const std::size_t ch = st.next_channel;
          st.next_channel = (st.next_channel + 1) % st.channels.size();
          if (batches[ch].empty()) batch_order.push_back(ch);
          batches[ch].push_back(stream.take());
          ++batched;
          ++st.fig.offered;
          ++inflight;
        }
        peak_inflight = std::max(peak_inflight, inflight);

        for (std::size_t ch : batch_order) {
          std::vector<mh::JobSpec> specs;
          specs.reserve(batches[ch].size());
          const std::size_t first_record = jobs.size();
          for (mw::GeneratedJob& b : batches[ch]) {
            out.model.payload_bytes += b.job.payload.size();
            if (opt.keep_jobs) {
              JobRecord j;
              j.class_index = st.index;
              j.iv = b.job.iv_or_nonce;
              j.aad = b.job.aad;
              j.plaintext = b.job.payload;
              j.verify = b.verify;
              jobs.push_back(std::move(j));
            }
            specs.push_back(std::move(b.job));
          }
          std::vector<mh::Completion> done;
          {
            Scoped s(tr, kEngSubmit);
            done = engine.submit_batch(st.channels[ch], std::move(specs));
          }
          for (std::size_t i = 0; i < done.size(); ++i) {
            mw::GeneratedJob& b = batches[ch][i];
            const std::size_t record = opt.keep_jobs ? first_record + i : 0;
            if (!b.verify) {
              done[i].on_done(
                  [&st, &on_done, record](const mh::JobResult& r) { on_done(st, r, record); });
              continue;
            }
            done[i].on_done([&st, &on_done, &on_verify_done, &engine, &inflight, &peak_inflight,
                             tr, ch, record,
                             remac = st.spec->profile.mode == mccp::top::ChannelMode::kCbcMac,
                             priority = st.spec->profile.priority,
                             iv = std::move(b.verify_iv), aad = std::move(b.verify_aad),
                             msg = std::move(b.verify_msg)](const mh::JobResult& r) {
              on_done(st, r, record);
              if (!r.auth_ok) return;
              ++inflight;
              peak_inflight = std::max(peak_inflight, inflight);
              ++st.fig.decrypt_submitted;
              Scoped s(tr, kEngSubmit);
              engine.submit_decrypt(st.channels[ch], iv, aad, remac ? msg : r.payload, r.tag,
                                    priority)
                  .on_done([&st, &on_verify_done, record](const mh::JobResult& r2) {
                    on_verify_done(st, r2, record);
                  });
            });
          }
        }
      }

      if (inflight == 0) {
        std::optional<double> next;
        for (ClassState& st : states) {
          const std::optional<double>& t = st.stream->next_time();
          if (t && (!next || *t < *next)) next = t;
        }
        if (!next) break;
        Scoped s(tr, kEngAdvanceTo);
        engine.advance_to(static_cast<mccp::sim::Cycle>(std::ceil(*next)));
      } else {
        Scoped s(tr, kEngStep);
        engine.step();
      }
    }
    Scoped s(tr, kEngMaxCycle);
    out.model.makespan_cycles = engine.max_cycle() - start_cycle;
  }
  out.pass_ns = now_ns() - pass_start;

  out.model.reconfigurations = engine.reconfigurations();
  out.model.reconfig_stall_cycles = engine.reconfig_stall_cycles();
  out.model.peak_inflight = peak_inflight;
  for (ClassState& st : states) out.model.classes.push_back(std::move(st.fig));
  return out;
}

}  // namespace perfbench
