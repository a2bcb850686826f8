#include "workloads.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "core/golden.h"
#include "net/sim_client.h"
#include "util/rng.h"

namespace delivery_bench {

using jhdl::BitVector;
using jhdl::Logic4;
using jhdl::Rng;
using jhdl::to_logic;
using core::BlackBoxModel;
namespace golden = jhdl::core::golden;
using net::Message;
using net::MsgType;
using net::SimClient;
using Params = std::map<std::string, std::int64_t>;
using Columns = std::map<std::string, std::vector<BitVector>>;

namespace {

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Reproducible, nonzero trace id of session `n` on connection `conn`.
std::uint64_t trace_id(std::uint64_t seed, std::size_t conn, std::uint64_t n) {
  return mix(mix(seed ^ 0x7261636531ULL) + conn * 0x10001ULL + n) | 1u;
}

/// Seed of one input stream, so each connection draws its own inputs.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix(seed * 31u + stream);
}

std::uint64_t mask(std::size_t width) {
  return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

net::ConnectSpec spec(const char* module, Params params, std::size_t conn,
                      std::uint64_t trace) {
  net::ConnectSpec s;
  s.customer = "tenant" + std::to_string(conn);
  s.module = module;
  s.params = std::move(params);
  s.trace_id = trace;
  return s;
}

Message eval_request(std::map<std::string, BitVector> values, std::size_t i,
                     std::uint64_t trace) {
  Message m;
  m.type = MsgType::Eval;
  m.values = std::move(values);
  m.count = 0;
  m.seq = i + 1;
  m.trace = trace;
  return m;
}

Message values_reply(std::map<std::string, BitVector> values, std::size_t i,
                     std::uint64_t trace) {
  Message m;
  m.type = MsgType::Values;
  m.values = std::move(values);
  m.seq = i + 1;
  m.trace = trace;
  return m;
}

Message batch_message(MsgType type, std::uint64_t count, Columns series,
                      std::size_t i, std::uint64_t trace) {
  Message m;
  m.type = type;
  m.count = count;
  m.series = std::move(series);
  m.seq = i + 1;
  m.trace = trace;
  return m;
}

/// Base of the lanes that hold one session open for the whole run and
/// send one request per op.
class SessionLane : public Lane {
 public:
  SessionLane(const Workload& w, Params params, std::size_t conn,
              std::uint64_t seed, std::size_t warmup)
      : w_(w), params_(std::move(params)), conn_(conn), seed_(seed),
        warmup_(warmup) {}

  void open(std::uint16_t port) override {
    client_ = std::make_unique<SimClient>(
        port, spec(w_.module(), params_, conn_, trace_id(seed_, conn_, 0)));
    for (std::size_t k = 0; k < warmup_; ++k) {
      if (!op(nullptr).ok) throw std::runtime_error("warm-up op failed");
    }
  }

  OpResult op(SpanLog* spans) override {
    const std::size_t i = next_++;
    const auto t0 = SteadyClock::now();
    call(*client_, i);
    OpResult r;
    r.latency_ns = finish_span(spans, w_.op_span(), client_->trace_id(), t0);
    r.ok = check(i);
    return r;
  }

  std::uint64_t open_close(std::uint16_t port, SpanLog* spans) override {
    const std::uint64_t trace = trace_id(seed_, conn_, ++extra_sessions_);
    const auto t0 = SteadyClock::now();
    SimClient client(port, spec(w_.module(), params_, conn_, trace));
    const std::uint64_t ns = finish_span(spans, "client.open", trace, t0);
    client.bye();
    return ns;
  }

  void close() override {
    if (client_ != nullptr) client_->bye();
    client_.reset();
  }

 protected:
  /// Sends op `i` and keeps its reply for check().
  virtual void call(SimClient& client, std::size_t i) = 0;
  /// Compares the kept reply of op `i` with the reference.
  virtual bool check(std::size_t i) = 0;

 private:
  const Workload& w_;
  Params params_;
  std::size_t conn_;
  std::uint64_t seed_;
  std::size_t warmup_;
  std::unique_ptr<SimClient> client_;
  std::size_t next_ = 0;
  std::uint64_t extra_sessions_ = 0;
};

// ------------------------------------------------------------ cosim_eval

constexpr std::size_t kAdderWidth = 16;
constexpr std::size_t kEvalPool = 4096;

struct EvalInput {
  std::map<std::string, BitVector> inputs;
  std::uint64_t sum = 0;
};

class CosimEval final : public Workload {
 public:
  explicit CosimEval(std::uint64_t seed) : seed_(seed) {
    for (std::size_t conn = 0; conn < kLanes; ++conn) {
      Rng rng(stream_seed(seed, conn));
      for (std::size_t i = 0; i < kEvalPool; ++i) {
        const std::uint64_t a = rng.next() & mask(kAdderWidth);
        const std::uint64_t b = rng.next() & mask(kAdderWidth);
        EvalInput in;
        in.inputs["a"] = BitVector::from_uint(kAdderWidth, a);
        in.inputs["b"] = BitVector::from_uint(kAdderWidth, b);
        in.sum = (a + b) & mask(kAdderWidth);
        pool_[conn].push_back(std::move(in));
      }
    }
  }
  const char* name() const override { return "cosim_eval"; }
  const char* module() const override { return "carry-adder"; }
  const char* op_span() const override { return "client.eval"; }
  Params model_params() const override {
    return {{"width", static_cast<std::int64_t>(kAdderWidth)}};
  }

  std::unique_ptr<Lane> make_lane(std::size_t conn) const override {
    class L final : public SessionLane {
     public:
      L(const CosimEval& w, std::size_t conn)
          : SessionLane(w, w.model_params(), conn, w.seed_, 64),
            pool_(w.pool_[conn]) {}

     protected:
      void call(SimClient& client, std::size_t i) override {
        out_ = client.eval(pool_[i % kEvalPool].inputs, 0);
      }
      bool check(std::size_t i) override {
        auto it = out_.find("s");
        return it != out_.end() &&
               it->second.to_uint() == pool_[i % kEvalPool].sum;
      }

     private:
      const std::vector<EvalInput>& pool_;
      std::map<std::string, BitVector> out_;
    };
    return std::make_unique<L>(*this, conn);
  }

  std::unique_ptr<DirectRunner> direct(BlackBoxModel& model) const override {
    class D final : public DirectRunner {
     public:
      D(BlackBoxModel& m, const std::vector<EvalInput>& pool)
          : m_(m), pool_(pool) {}
      bool op(std::size_t i) override {
        const EvalInput& in = pool_[i % kEvalPool];
        for (const auto& [name, value] : in.inputs) m_.set_input(name, value);
        return m_.get_output("s").to_uint() == in.sum;
      }

     private:
      BlackBoxModel& m_;
      const std::vector<EvalInput>& pool_;
    };
    return std::make_unique<D>(model, pool_[0]);
  }

  Message request(std::size_t i) const override {
    return eval_request(pool_[0][i % kEvalPool].inputs, i, 1);
  }
  Message reply(std::size_t i) const override {
    return values_reply(
        {{"s", BitVector::from_uint(kAdderWidth, pool_[0][i % kEvalPool].sum)}},
        i, 1);
  }
  std::vector<Params> key_sequence(std::size_t n) const override {
    return std::vector<Params>(n, model_params());
  }

 private:
  std::uint64_t seed_;
  std::vector<EvalInput> pool_[kLanes];
};

// ---------------------------------------------------------- cycle_stream

// The systolic-4x4x8 shape of the kernel ladder: 6080 primitives, above
// sim::kParallelMinOps, so the default sim_threads = 0 takes the
// island-threaded settle.
constexpr std::size_t kRows = 4, kCols = 4, kDataWidth = 8, kGuard = 4;
constexpr std::size_t kAccWidth = 2 * kDataWidth + kGuard;
constexpr std::size_t kStreamCycles = 64;
constexpr std::size_t kStreamPool = 32;

struct StreamBatch {
  Columns stimulus;
  std::vector<std::uint64_t> a, b;
  std::vector<bool> clr;
};

/// Steps `model` through `batch`; true when every acc column value
/// matches. `acc` may be null (only advances the reference).
bool check_stream(golden::SystolicModel& model, const StreamBatch& batch,
                  const std::vector<BitVector>* acc) {
  if (acc != nullptr && acc->size() != kStreamCycles) return false;
  bool ok = true;
  for (std::size_t t = 0; t < kStreamCycles; ++t) {
    model.step(batch.a[t], batch.b[t], batch.clr[t]);
    if (acc == nullptr) continue;
    const BitVector& v = (*acc)[t];
    for (std::size_t pe = 0; pe < kRows * kCols && ok; ++pe) {
      ok = v.slice(pe * kAccWidth, kAccWidth).to_uint() ==
           model.acc(pe / kCols, pe % kCols);
    }
  }
  return ok;
}

BitVector pack_acc(const golden::SystolicModel& model) {
  BitVector v(kRows * kCols * kAccWidth, Logic4::Zero);
  for (std::size_t pe = 0; pe < kRows * kCols; ++pe) {
    const std::uint64_t acc = model.acc(pe / kCols, pe % kCols);
    for (std::size_t bit = 0; bit < kAccWidth; ++bit) {
      v.set(pe * kAccWidth + bit, to_logic(((acc >> bit) & 1u) != 0));
    }
  }
  return v;
}

class CycleStream final : public Workload {
 public:
  explicit CycleStream(std::uint64_t seed) : seed_(seed) {
    for (std::size_t conn = 0; conn < kLanes; ++conn) {
      Rng rng(stream_seed(seed, conn));
      for (std::size_t i = 0; i < kStreamPool; ++i) {
        StreamBatch batch;
        auto& a = batch.stimulus["a"];
        auto& b = batch.stimulus["b"];
        auto& clr = batch.stimulus["clr"];
        for (std::size_t t = 0; t < kStreamCycles; ++t) {
          batch.a.push_back(rng.next() & mask(kRows * kDataWidth));
          batch.b.push_back(rng.next() & mask(kCols * kDataWidth));
          batch.clr.push_back(rng.below(8) == 0);
          a.push_back(BitVector::from_uint(kRows * kDataWidth, batch.a[t]));
          b.push_back(BitVector::from_uint(kCols * kDataWidth, batch.b[t]));
          clr.push_back(BitVector::from_uint(1, batch.clr[t] ? 1 : 0));
        }
        pool_[conn].push_back(std::move(batch));
      }
    }
  }
  const char* name() const override { return "cycle_stream"; }
  const char* module() const override { return "systolic-array"; }
  const char* op_span() const override { return "client.cycle_batch"; }
  Params model_params() const override {
    return {{"rows", kRows},
            {"cols", kCols},
            {"data_width", kDataWidth},
            {"guard_bits", kGuard}};
  }

  std::unique_ptr<Lane> make_lane(std::size_t conn) const override {
    class L final : public SessionLane {
     public:
      L(const CycleStream& w, std::size_t conn)
          : SessionLane(w, w.model_params(), conn, w.seed_, 4),
            pool_(w.pool_[conn]) {}

     protected:
      void call(SimClient& client, std::size_t i) override {
        out_ = client.cycle_batch(kStreamCycles,
                                  pool_[i % kStreamPool].stimulus);
      }
      bool check(std::size_t i) override {
        auto it = out_.find("acc");
        return check_stream(golden_, pool_[i % kStreamPool],
                            it != out_.end() ? &it->second : nullptr) &&
               it != out_.end();
      }

     private:
      const std::vector<StreamBatch>& pool_;
      golden::SystolicModel golden_{kRows, kCols, kDataWidth, kGuard};
      Columns out_;
    };
    return std::make_unique<L>(*this, conn);
  }

  std::unique_ptr<DirectRunner> direct(BlackBoxModel& model) const override {
    class D final : public DirectRunner {
     public:
      D(BlackBoxModel& m, const std::vector<StreamBatch>& pool)
          : m_(m), pool_(pool) {}
      bool op(std::size_t i) override {
        const StreamBatch& batch = pool_[i % kStreamPool];
        Columns out = m_.cycle_batch(kStreamCycles, batch.stimulus, {});
        return check_stream(golden_, batch, &out.at("acc"));
      }

     private:
      BlackBoxModel& m_;
      const std::vector<StreamBatch>& pool_;
      golden::SystolicModel golden_{kRows, kCols, kDataWidth, kGuard};
    };
    return std::make_unique<D>(model, pool_[0]);
  }

  Message request(std::size_t i) const override {
    return batch_message(MsgType::CycleBatch, kStreamCycles,
                         pool_[0][i % kStreamPool].stimulus, i, 1);
  }
  Message reply(std::size_t i) const override {
    // The reply to op i of a session that started at power-on.
    golden::SystolicModel model(kRows, kCols, kDataWidth, kGuard);
    for (std::size_t k = 0; k < i % kStreamPool; ++k) {
      check_stream(model, pool_[0][k], nullptr);
    }
    const StreamBatch& batch = pool_[0][i % kStreamPool];
    std::vector<BitVector> acc;
    for (std::size_t t = 0; t < kStreamCycles; ++t) {
      model.step(batch.a[t], batch.b[t], batch.clr[t]);
      acc.push_back(pack_acc(model));
    }
    return batch_message(MsgType::BatchValues, kStreamCycles,
                         {{"acc", std::move(acc)}}, i, 1);
  }
  std::vector<Params> key_sequence(std::size_t n) const override {
    return std::vector<Params>(n, model_params());
  }

 private:
  std::uint64_t seed_;
  std::vector<StreamBatch> pool_[kLanes];
};

// --------------------------------------------------------- pattern_sweep

// The cordic-16x12p shape cut to 10 stages: 1958 acyclic ops, below
// sim::kParallelMinOps, so the multi-pattern kernel runs on one thread.
// At 12 stages (2340 ops) it goes island-threaded, and its fork/join per
// settle made whole runs swing between ~130 and ~40 ops/s on a 4-thread
// virtual machine; cycle_stream keeps the threaded path under test.
// Pipelined, so the latency is the stage count and a PatternBatch of that
// many cycles shows every pattern's rotation.
constexpr std::size_t kCordicWidth = 16, kCordicStages = 10;
constexpr std::size_t kPatterns = 1024;
constexpr std::size_t kPatternPool = 8;

struct PatternBatch {
  Columns patterns;
  std::vector<std::uint64_t> xr, yr, zr;
};

bool check_patterns(const PatternBatch& batch, const Columns& out) {
  const char* names[3] = {"xr", "yr", "zr"};
  const std::vector<std::uint64_t>* want[3] = {&batch.xr, &batch.yr,
                                               &batch.zr};
  for (int k = 0; k < 3; ++k) {
    auto it = out.find(names[k]);
    if (it == out.end() || it->second.size() != kPatterns) return false;
    for (std::size_t p = 0; p < kPatterns; ++p) {
      if (it->second[p].to_uint() != (*want[k])[p]) return false;
    }
  }
  return true;
}

class PatternSweep final : public Workload {
 public:
  explicit PatternSweep(std::uint64_t seed) : seed_(seed) {
    const golden::CordicModel cordic(kCordicWidth, kCordicStages);
    for (std::size_t conn = 0; conn < kLanes; ++conn) {
      Rng rng(stream_seed(seed, conn));
      for (std::size_t i = 0; i < kPatternPool; ++i) {
        PatternBatch batch;
        auto& x = batch.patterns["x"];
        auto& y = batch.patterns["y"];
        auto& z = batch.patterns["z"];
        for (std::size_t p = 0; p < kPatterns; ++p) {
          const std::uint64_t xv = rng.next() & mask(kCordicWidth);
          const std::uint64_t yv = rng.next() & mask(kCordicWidth);
          const std::uint64_t zv = rng.next() & mask(kCordicWidth);
          x.push_back(BitVector::from_uint(kCordicWidth, xv));
          y.push_back(BitVector::from_uint(kCordicWidth, yv));
          z.push_back(BitVector::from_uint(kCordicWidth, zv));
          std::uint64_t xr = 0, yr = 0, zr = 0;
          cordic.rotate(xv, yv, zv, xr, yr, zr);
          batch.xr.push_back(xr);
          batch.yr.push_back(yr);
          batch.zr.push_back(zr);
        }
        pool_[conn].push_back(std::move(batch));
      }
    }
  }
  const char* name() const override { return "pattern_sweep"; }
  const char* module() const override { return "cordic-rotator"; }
  const char* op_span() const override { return "client.pattern_batch"; }
  Params model_params() const override {
    return {{"width", kCordicWidth},
            {"stages", kCordicStages},
            {"pipelined", 1}};
  }

  std::unique_ptr<Lane> make_lane(std::size_t conn) const override {
    class L final : public SessionLane {
     public:
      L(const PatternSweep& w, std::size_t conn)
          : SessionLane(w, w.model_params(), conn, w.seed_, 2),
            pool_(w.pool_[conn]) {}

     protected:
      void call(SimClient& client, std::size_t i) override {
        out_ = client.pattern_batch(pool_[i % kPatternPool].patterns,
                                    kCordicStages);
      }
      bool check(std::size_t i) override {
        return check_patterns(pool_[i % kPatternPool], out_);
      }

     private:
      const std::vector<PatternBatch>& pool_;
      Columns out_;
    };
    return std::make_unique<L>(*this, conn);
  }

  std::unique_ptr<DirectRunner> direct(BlackBoxModel& model) const override {
    class D final : public DirectRunner {
     public:
      D(BlackBoxModel& m, const std::vector<PatternBatch>& pool)
          : m_(m), pool_(pool) {}
      bool op(std::size_t i) override {
        const PatternBatch& batch = pool_[i % kPatternPool];
        return check_patterns(
            batch, m_.pattern_batch(batch.patterns, kCordicStages, {}));
      }

     private:
      BlackBoxModel& m_;
      const std::vector<PatternBatch>& pool_;
    };
    return std::make_unique<D>(model, pool_[0]);
  }

  Message request(std::size_t i) const override {
    return batch_message(MsgType::PatternBatch, kCordicStages,
                         pool_[0][i % kPatternPool].patterns, i, 1);
  }
  Message reply(std::size_t i) const override {
    const PatternBatch& batch = pool_[0][i % kPatternPool];
    Columns out;
    for (std::size_t p = 0; p < kPatterns; ++p) {
      out["xr"].push_back(BitVector::from_uint(kCordicWidth, batch.xr[p]));
      out["yr"].push_back(BitVector::from_uint(kCordicWidth, batch.yr[p]));
      out["zr"].push_back(BitVector::from_uint(kCordicWidth, batch.zr[p]));
    }
    return batch_message(MsgType::BatchValues, kCordicStages, std::move(out),
                         i, 1);
  }
  std::vector<Params> key_sequence(std::size_t n) const override {
    return std::vector<Params>(n, model_params());
  }

 private:
  std::uint64_t seed_;
  std::vector<PatternBatch> pool_[kLanes];
};

// --------------------------------------------------------- session_churn

constexpr std::size_t kKcmWidth = 16;
constexpr std::size_t kHotConstants = 8;
constexpr std::size_t kEvalsPerSession = 4;
// Constants are drawn from one range so cold builds cost the same
// whichever constant comes up.
constexpr std::int64_t kConstLo = 1 << 12, kConstHi = (1 << 20) - 1;

struct ChurnSession {
  std::int64_t constant = 0;
  bool cold = false;
  std::uint16_t m[kEvalsPerSession] = {};
};

Params kcm_params(std::int64_t constant) {
  return {{"input_width", static_cast<std::int64_t>(kKcmWidth)},
          {"constant", constant}};
}

bool check_product(const std::map<std::string, BitVector>& out,
                   std::int64_t constant, std::uint16_t m) {
  auto it = out.find("product");
  return it != out.end() &&
         it->second.to_uint() == static_cast<std::uint64_t>(constant) * m;
}

class SessionChurn final : public Workload {
 public:
  SessionChurn(std::uint64_t seed, std::size_t max_sessions) : seed_(seed) {
    Rng rng(stream_seed(seed, 7));
    std::set<std::int64_t> seen;
    auto fresh = [&] {
      for (;;) {
        const std::int64_t c = rng.range(kConstLo, kConstHi);
        if (seen.insert(c).second) return c;
      }
    };
    for (std::size_t k = 0; k < kHotConstants; ++k) hot_[k] = fresh();
    // One Hello in 8 asks for a never-seen constant (a cold artifact
    // build); the rest pick one of the hot constants. Every connection
    // draws from one stream so no cold constant repeats across them.
    for (std::size_t i = 0; i < max_sessions; ++i) {
      for (std::size_t conn = 0; conn < kConnections; ++conn) {
        ChurnSession s;
        s.cold = rng.below(8) == 0;
        s.constant = s.cold ? fresh() : hot_[rng.below(kHotConstants)];
        for (auto& m : s.m) m = static_cast<std::uint16_t>(rng.next());
        sessions_[conn].push_back(s);
      }
    }
  }
  const char* name() const override { return "session_churn"; }
  const char* module() const override { return "kcm-multiplier"; }
  const char* op_span() const override { return "client.session"; }
  bool op_is_session() const override { return true; }
  Params model_params() const override { return kcm_params(hot_[0]); }

  std::unique_ptr<Lane> make_lane(std::size_t conn) const override {
    class L final : public Lane {
     public:
      L(const SessionChurn& w, std::size_t conn) : w_(w), conn_(conn) {}

      // Set-up builds this connection's share of the hot constants, so
      // the timed phase starts with a warm store.
      void open(std::uint16_t port) override {
        port_ = port;
        for (std::size_t k = conn_; k < kHotConstants; k += kConnections) {
          ChurnSession s;
          s.constant = w_.hot_[k];
          s.m[0] = static_cast<std::uint16_t>(k);
          if (!run(s, nullptr).ok) throw std::runtime_error("warm-up failed");
        }
      }
      OpResult op(SpanLog* spans) override {
        const auto& pool = w_.sessions_[conn_];
        if (next_ >= pool.size()) {
          throw std::runtime_error("session_churn input pool exhausted");
        }
        return run(pool[next_++], spans);
      }
      std::uint64_t open_close(std::uint16_t, SpanLog*) override {
        throw std::logic_error("session_churn opens a session every op");
      }
      void close() override {}

     private:
      OpResult run(const ChurnSession& s, SpanLog* spans) {
        const std::uint64_t trace = trace_id(w_.seed_, conn_, ++sessions_);
        OpResult r;
        const auto t0 = SteadyClock::now();
        SimClient client(port_, spec(w_.module(), kcm_params(s.constant),
                                     conn_, trace));
        r.open_ns = finish_span(spans, "client.open", trace, t0);
        for (std::uint16_t m : s.m) {
          const auto te = SteadyClock::now();
          const auto out = client.eval(
              {{"multiplicand", BitVector::from_uint(kKcmWidth, m)}}, 0);
          finish_span(spans, "client.eval", trace, te);
          r.ok = r.ok && check_product(out, s.constant, m);
        }
        client.bye();
        r.latency_ns = finish_span(spans, "client.session", trace, t0);
        return r;
      }

      const SessionChurn& w_;
      std::size_t conn_;
      std::uint16_t port_ = 0;
      std::size_t next_ = 0;
      std::uint64_t sessions_ = 0;
    };
    return std::make_unique<L>(*this, conn);
  }

  std::unique_ptr<DirectRunner> direct(BlackBoxModel& model) const override {
    class D final : public DirectRunner {
     public:
      D(BlackBoxModel& m, const SessionChurn& w) : m_(m), w_(w) {}
      bool op(std::size_t i) override {
        const ChurnSession& s = w_.sessions_[0][i % w_.sessions_[0].size()];
        bool ok = true;
        for (std::uint16_t m : s.m) {
          m_.set_input("multiplicand", BitVector::from_uint(kKcmWidth, m));
          ok = ok && m_.get_output("product").to_uint() ==
                         static_cast<std::uint64_t>(w_.hot_[0]) * m;
        }
        return ok;
      }

     private:
      BlackBoxModel& m_;
      const SessionChurn& w_;
    };
    return std::make_unique<D>(model, *this);
  }

  Message request(std::size_t i) const override {
    const ChurnSession& s = sessions_[0][i % sessions_[0].size()];
    return eval_request(
        {{"multiplicand", BitVector::from_uint(kKcmWidth, s.m[0])}}, i, 1);
  }
  Message reply(std::size_t i) const override {
    const ChurnSession& s = sessions_[0][i % sessions_[0].size()];
    const std::uint64_t product = static_cast<std::uint64_t>(s.constant) * s.m[0];
    const std::size_t width =
        kKcmWidth + static_cast<std::size_t>(64 - __builtin_clzll(
                        static_cast<std::uint64_t>(s.constant)));
    return values_reply({{"product", BitVector::from_uint(width, product)}}, i,
                        1);
  }
  std::vector<Params> key_sequence(std::size_t n) const override {
    std::vector<Params> keys;
    for (std::size_t i = 0; i < n && i < sessions_[0].size(); ++i) {
      keys.push_back(kcm_params(sessions_[0][i].constant));
    }
    return keys;
  }

 private:
  std::uint64_t seed_;
  std::int64_t hot_[kHotConstants] = {};
  std::vector<ChurnSession> sessions_[kConnections];
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cosim_eval", "cycle_stream", "pattern_sweep", "session_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t max_ops_per_lane) {
  if (name == "cosim_eval") return std::make_unique<CosimEval>(seed);
  if (name == "cycle_stream") return std::make_unique<CycleStream>(seed);
  if (name == "pattern_sweep") return std::make_unique<PatternSweep>(seed);
  if (name == "session_churn") {
    return std::make_unique<SessionChurn>(seed, max_ops_per_lane);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace delivery_bench
