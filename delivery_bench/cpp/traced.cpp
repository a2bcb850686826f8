// Traced run: the per-layer metrics.
//
// Order: an untraced reference phase (for obs.trace_overhead_frac), then
// a traced phase on a fresh service with DeliveryConfig::tracing on,
// whose client spans are joined to the service's own spans, then direct
// probes that time each layer's public functions on the workload's own
// inputs: the codec (net::encode / net::decode), the simulator
// (IpArtifact::instantiate -> BlackBoxModel), and the artifact store.
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/artifact_store.h"
#include "core/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "rig.h"

namespace delivery_bench {

namespace core = jhdl::core;
namespace net = jhdl::net;
namespace obs = jhdl::obs;

namespace {

/// Enough traced ops that server.*_us.p99 has ten joined samples beyond
/// its rank even if a few spans are lost.
constexpr std::uint64_t kMinTracedOps = 1100;
/// Ops of the profiled simulator pass behind the per-op kernel counts.
constexpr std::size_t kCountedOps = 16;
/// Cap on the calls of one direct probe: enough for a steady median,
/// few enough that sub-microsecond calls do not swamp the Chrome trace.
constexpr std::size_t kMaxProbeCalls = 2000;

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// Every distinct span the service's tracer has retained, gathered over
/// several snapshots so ring overwrites between them lose less.
class ServerSpans {
 public:
  void collect(const obs::Tracer& tracer) {
    for (const obs::TraceEvent& e : tracer.snapshot()) {
      if (e.name == nullptr) continue;
      if (seen_.emplace(e.name, e.trace_id, e.start_us, e.dur_us, e.tid).second) {
        spans_.push_back(Span{e.name, e.trace_id,
                              static_cast<double>(e.start_us),
                              static_cast<double>(e.start_us + e.dur_us),
                              e.tid, true});
      }
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::set<std::tuple<const char*, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::uint32_t>>
      seen_;
  std::vector<Span> spans_;
};

/// Calls `fn(i)` until both `min_calls` calls and `min_seconds` have
/// passed, or `max_calls` calls.
template <typename Fn>
void repeat(std::size_t min_calls, double min_seconds, std::size_t max_calls,
            Fn&& fn) {
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0; i < max_calls; ++i) {
    if (i >= min_calls &&
        std::chrono::duration<double>(SteadyClock::now() - t0).count() >=
            min_seconds) {
      break;
    }
    fn(i);
  }
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.dur_us());
  }
  return out;
}

core::ParamMap to_param_map(const std::map<std::string, std::int64_t>& p) {
  core::ParamMap m;
  for (const auto& [k, v] : p) m.set(k, v);
  return m;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& all,
                        const std::vector<int>& parents,
                        const std::vector<double>& self,
                        const char* op_span, const char* req_span) {
  // Client op spans with no service span under them (their request's
  // span was overwritten in the service's rings) add nothing to the
  // picture and would dominate the file on fast workloads.
  std::vector<bool> has_child(all.size(), false);
  for (int p : parents) {
    if (p >= 0) has_child[static_cast<std::size_t>(p)] = true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const bool op = !s.server && (std::strcmp(s.name, op_span) == 0 ||
                                  std::strcmp(s.name, req_span) == 0);
    if (op && !has_child[i]) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%d,\"tid\":%u,\"args\":{\"trace\":\"%s\","
                 "\"self_us\":%.3f}}",
                 first ? "" : ",", s.name, s.start_us, s.dur_us(),
                 s.server ? 1 : 2, s.tid,
                 obs::TraceContext::hex(s.trace).c_str(), self[i]);
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

Report run_traced(const Workload& w, double seconds,
                  const std::string& trace_path) {
  Report rep;
  std::uint64_t violations = 0;
  const char* req_span = w.op_is_session() ? "client.eval" : w.op_span();

  // 1. Untraced reference for the tracing overhead.
  double untraced_ops_per_s = 0.0;
  {
    Rig rig = set_up(w, false);
    const Phase p = run_phase(rig, std::max(2.0, seconds / 3), 0, nullptr);
    untraced_ops_per_s = median(p.slice_ops_per_s);
    rep.attempted += p.ops;
    rep.failed += p.failed;
    violations += tear_down(rig);
  }

  // 2. Traced phase.
  Rig rig = set_up(w, true);
  ServerSpans server;
  server.collect(rig.service->tracer());
  std::vector<SpanLog> logs;
  for (std::size_t k = 0; k < kLanes; ++k) logs.emplace_back(1001 + k);
  const Phase phase = run_phase(rig, seconds, kMinTracedOps, &logs);
  server.collect(rig.service->tracer());
  rep.attempted += phase.ops + phase.opener_attempted;
  rep.failed += phase.failed + phase.opener_failed;
  const std::vector<Stamped>& opens = phase.open_us;
  const core::ArtifactStore::Stats store = rig.service->artifacts().stats();
  const std::uint64_t recorded = rig.service->tracer().recorded();
  const std::size_t sim_threads = rig.service->config().sim_threads;
  const auto sim_threads_gauge =
      rig.service->metrics().gauge("sim.threads").value();
  violations += tear_down(rig);
  server.collect(rig.service->tracer());

  // 3. Direct layer probes on the workload's own inputs.
  SpanLog probe(1003);
  const core::IpCatalog catalog = core::standard_catalog();
  const auto generator = catalog.find(w.module());
  std::uint64_t probe_failed = 0, probe_ops = 0;

  // net: the codec on this workload's request and reply messages.
  struct CodecKind {
    const char* encode_span;
    const char* decode_span;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<net::Message> messages;
  };
  CodecKind kinds[2] = {{"net.encode_req", "net.decode_req", {}, {}},
                        {"net.encode_reply", "net.decode_reply", {}, {}}};
  for (std::size_t i = 0; i < 8; ++i) {
    kinds[0].messages.push_back(w.request(i));
    kinds[1].messages.push_back(w.reply(i));
  }
  double codec_bytes[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    CodecKind& kind = kinds[k];
    std::vector<double> sizes;
    for (const net::Message& m : kind.messages) {
      kind.frames.push_back(net::encode(m));
      sizes.push_back(static_cast<double>(kind.frames.back().size()));
      // The codec round trip must reproduce the frame byte for byte.
      ++probe_ops;
      probe_failed += net::encode(net::decode(kind.frames.back())) !=
                      kind.frames.back();
    }
    codec_bytes[k] = median(sizes);
    const std::size_t n = kind.messages.size();
    repeat(200, 0.25, kMaxProbeCalls, [&](std::size_t i) {
      const auto t0 = SteadyClock::now();
      auto frame = net::encode(kind.messages[i % n]);
      finish_span(&probe, kind.encode_span, 0, t0);
    });
    repeat(200, 0.25, kMaxProbeCalls, [&](std::size_t i) {
      const auto t0 = SteadyClock::now();
      auto msg = net::decode(kind.frames[i % n]);
      finish_span(&probe, kind.decode_span, 0, t0);
    });
  }

  // core: cold and warm get_or_build on the workload's key sequence. A
  // workload with one key replays it in rounds from an empty store so
  // builds are sampled more than once.
  {
    core::ArtifactStore local(core::ArtifactStore::Config{
        service_config(false).artifact_budget_bytes});
    auto keys = w.key_sequence(w.op_is_session() ? 400 : 20);
    const std::size_t rounds = w.op_is_session() ? 1 : 5;
    for (std::size_t r = 0; r < rounds; ++r) {
      local.clear();
      for (const auto& key : keys) {
        bool hit = false;
        const auto t0 = SteadyClock::now();
        auto artifact =
            local.get_or_build(generator, to_param_map(key), &hit);
        finish_span(&probe, hit ? "core.store.hit" : "core.store.build", 0, t0);
      }
    }
  }

  // core + sim: instantiate, then run the inputs on the model directly,
  // with the service's kernel threads and with one.
  core::ArtifactStore store_for_sim;
  const auto artifact =
      store_for_sim.get_or_build(generator, to_param_map(w.model_params()));
  artifact->instantiate(sim_threads);  // compiles the shared program once
  repeat(10, 0.3, kMaxProbeCalls, [&](std::size_t) {
    const auto t0 = SteadyClock::now();
    auto model = artifact->instantiate(sim_threads);
    finish_span(&probe, "core.artifact.instantiate", 0, t0);
  });
  double model_threads = 0;
  for (int one_thread = 0; one_thread < 2; ++one_thread) {
    auto model = artifact->instantiate(one_thread ? 1 : sim_threads);
    if (!one_thread) model_threads = static_cast<double>(model->simulator().threads());
    auto runner = w.direct(*model);
    const char* name = one_thread ? "sim.exec_1t" : "sim.exec";
    repeat(20, 1.0, kMaxProbeCalls, [&](std::size_t i) {
      const auto t0 = SteadyClock::now();
      const bool ok = runner->op(i);
      finish_span(&probe, name, 0, t0);
      ++probe_ops;
      probe_failed += !ok;
    });
  }
  // Exact per-op kernel counts from a profiled pass (profiling slows the
  // kernel, so this pass is not timed).
  obs::MetricsRegistry sim_registry;
  {
    auto model = artifact->instantiate(sim_threads);
    model->simulator().enable_profiling();
    auto runner = w.direct(*model);
    for (std::size_t i = 0; i < kCountedOps; ++i) {
      ++probe_ops;
      probe_failed += !runner->op(i);
    }
    model->simulator().export_metrics(sim_registry);
  }
  auto per_op = [&](const char* gauge) {
    return static_cast<double>(sim_registry.gauge(gauge).value()) /
           static_cast<double>(kCountedOps);
  };

  // 4. Merge the service's spans with the benchmark's and analyse.
  std::vector<Span> all = server.spans();
  for (const SpanLog& log : logs) {
    all.insert(all.end(), log.spans().begin(), log.spans().end());
  }
  all.insert(all.end(), probe.spans().begin(), probe.spans().end());
  const std::vector<int> parents = build_parents(all);
  const std::vector<double> self = self_times_us(all, parents);
  const std::vector<JoinedOp> joined =
      join_on_trace(all, parents, req_span, "req.");
  std::vector<double> exec_us, path_us;
  for (const JoinedOp& j : joined) {
    exec_us.push_back(all[j.server].dur_us());
    path_us.push_back(j.path_us);
  }

  const double traced_ops_per_s = median(phase.slice_ops_per_s);
  const double op_p50 =
      require(percentile(values(phase.latency_us), 0.5), "op p50");
  const double path_p50 = require(percentile(path_us, 0.5), "path p50");
  const double sim_exec = median(durations(probe.spans(), "sim.exec"));
  const double open_p50 = require(percentile(values(opens), 0.5), "open p50");
  // The share of op time spent in the layer the workload was chosen for.
  double focus_share = 0.0;
  if (w.op_is_session()) {
    focus_share = open_p50 / op_p50;
  } else if (std::strcmp(w.name(), "cosim_eval") == 0) {
    focus_share = path_p50 / op_p50;
  } else {
    focus_share = sim_exec / op_p50;
  }

  // Short of 1000 joined requests (or ops, or opens) the p99s give way to
  // the highest rank with ten samples beyond it; the record names the
  // fraction.
  const auto exec_tail = tail_percentile(exec_us, 0.99);
  const auto path_tail = tail_percentile(path_us, 0.99);
  if (!exec_tail || !path_tail) throw std::runtime_error("too few joined requests");
  const auto op_tail = tail_percentile(values(phase.latency_us), 0.99);
  const auto open_tail = tail_percentile(values(opens), 0.99);
  if (!op_tail || !open_tail) throw std::runtime_error("too few ops or opens");
  // The end-to-end tails, unbounded here: they follow the box's
  // scheduling too closely to hold a bound (see README.md). Taken from the
  // traced phase; obs.trace_overhead_frac says what tracing costs.
  rep.add("latency_p99_us", op_tail->value, "us");
  rep.add("session_open_p99_us", open_tail->value, "us");
  rep.add("server.exec_us.p50", require(percentile(exec_us, 0.5), "exec p50"), "us");
  rep.add("server.exec_us.p99", exec_tail->value, "us");
  rep.add("server.path_us.p50", path_p50, "us");
  rep.add("server.path_us.p99", path_tail->value, "us");
  rep.add("server.csw_per_op", phase.csw_per_op, "count/op");
  rep.add("server.threads", phase.max_threads, "count");
  rep.add("server.handshake_us",
          median_or_zero(durations(server.spans(), "session.handshake")), "us");
  rep.add("server.license_us",
          median_or_zero(durations(server.spans(), "license.check")), "us");
  rep.add("server.elaborate_us",
          median_or_zero(durations(server.spans(), "session.elaborate")), "us");
  for (int k = 0; k < 2; ++k) {
    const std::string side = k == 0 ? "req" : "reply";
    rep.add("net.codec.encode_" + side + "_us",
            median(durations(probe.spans(), kinds[k].encode_span)), "us");
    rep.add("net.codec.decode_" + side + "_us",
            median(durations(probe.spans(), kinds[k].decode_span)), "us");
  }
  rep.add("net.codec.req_bytes", codec_bytes[0], "bytes");
  rep.add("net.codec.reply_bytes", codec_bytes[1], "bytes");
  rep.add("sim.exec_us", sim_exec, "us");
  rep.add("sim.exec_1t_us", median(durations(probe.spans(), "sim.exec_1t")), "us");
  rep.add("sim.threads", model_threads, "count");
  rep.add("sim.kernel.evals", per_op("sim.kernel.evals"), "count/op");
  rep.add("sim.kernel.settles_parallel", per_op("sim.kernel.settles_parallel"),
          "count/op");
  rep.add("sim.kernel.island_evals", per_op("sim.kernel.island_evals"),
          "count/op");
  rep.add("sim.mp.settles", per_op("sim.mp.settles"), "count/op");
  rep.add("sim.mp.words", per_op("sim.mp.words"), "count/op");
  rep.add("sim.mp.lane_evals", per_op("sim.mp.lane_evals"), "count/op");
  const double lookups = static_cast<double>(store.hits + store.misses);
  rep.add("core.store.hit_ratio",
          lookups > 0 ? static_cast<double>(store.hits) / lookups : 0.0, "frac");
  rep.add("core.store.misses", static_cast<double>(store.misses), "count");
  rep.add("core.store.evictions", static_cast<double>(store.evictions), "count");
  rep.add("core.store.resident_mb",
          static_cast<double>(store.resident_bytes) / (1024.0 * 1024.0), "MB");
  rep.add("core.store.build_us",
          median(durations(probe.spans(), "core.store.build")), "us");
  rep.add("core.store.hit_us",
          median_or_zero(durations(probe.spans(), "core.store.hit")), "us");
  rep.add("core.artifact.instantiate_us",
          median(durations(probe.spans(), "core.artifact.instantiate")), "us");
  rep.add("obs.trace_overhead_frac", 1.0 - traced_ops_per_s / untraced_ops_per_s,
          "frac");
  rep.add("obs.spans_lost",
          static_cast<double>(recorded) -
              static_cast<double>(server.spans().size()),
          "count");
  rep.add("focus_layer_share", focus_share, "frac");

  rep.attempted += probe_ops;
  rep.failed += probe_failed + violations;

  // Per span name: how many, median duration and median self time.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& entry = by_name[all[i].name];
    entry.first.push_back(all[i].dur_us());
    entry.second.push_back(self[i]);
  }
  jhdl::Json spans_table = jhdl::Json::object();
  for (const auto& [name, v] : by_name) {
    jhdl::Json row = jhdl::Json::object();
    row.set("count", static_cast<double>(v.first.size()));
    row.set("dur_us_p50", median(v.first));
    row.set("self_us_p50", median(v.second));
    spans_table.set(name, std::move(row));
  }
  jhdl::Json& d = rep.detail;
  d.set("delivery_config", describe_config(service_config(true)));
  d.set("sim_threads", static_cast<double>(sim_threads_gauge));
  d.set("untraced_ops_per_s", untraced_ops_per_s);
  d.set("traced_ops_per_s", traced_ops_per_s);
  d.set("traced_ops", static_cast<double>(phase.ops));
  d.set("joined_requests", static_cast<double>(joined.size()));
  d.set("server_p99_q", exec_tail->q);
  d.set("latency_p99_q", op_tail->q);
  d.set("session_open_p99_q", open_tail->q);
  d.set("drain_violations", static_cast<double>(violations));
  d.set("spans", std::move(spans_table));
  if (!trace_path.empty()) {
    write_chrome_trace(trace_path, all, parents, self, w.op_span(), req_span);
    d.set("chrome_trace", trace_path);
  }
  return rep;
}

}  // namespace delivery_bench
