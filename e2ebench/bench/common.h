// Shared pieces of the end-to-end authorization benchmark: seeded input
// randomness, latency sample sets, the nanosecond layer tracer, and the
// workload interface every scenario implements.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "trust/trust_runtime.h"

namespace e2ebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the only source of randomness for generated inputs, so a
/// seed fixes every byte the benchmark sends.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// Zipf(s) over n keys; rank r maps to a seeded permutation so the hot keys
/// are not simply the lowest ids.
class Zipf {
 public:
  Zipf(size_t n, double s, Rng* rng) : cdf_(n), perm_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (size_t i = 0; i < n; ++i) perm_[i] = i;
    rng->Shuffle(&perm_);
  }
  size_t Sample(Rng* rng) const {
    double u = rng->Unit();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(rank, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> perm_;
};

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample set.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Highest of the candidate percentiles that leaves at least ten samples
/// above it (0 when there are too few samples for any).
inline double TailPercentileFor(size_t samples) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

/// Request classes. Reads add no state; writes add facts. Each workload
/// maps its own requests onto these (see README "Workloads").
enum class Op {
  kProbe,         ///< authz_mixed: fully bound access(u,f,m) probe
  kGrant,         ///< authz_mixed: single-fact grant commit
  kRevoke,        ///< authz_mixed: membership retraction (full rebuild)
  kImportRepeat,  ///< cred_import: re-presented base bundle + verdict
  kImportFresh,   ///< cred_import: never-seen bundle + verdict
  kDeliver,       ///< binder_exchange: one message alice -> bob
  kVerdict,       ///< binder_exchange: bob's probe of a message
  kCount
};

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kProbe: return "probe";
    case Op::kGrant: return "grant";
    case Op::kRevoke: return "revoke";
    case Op::kImportRepeat: return "import_repeat";
    case Op::kImportFresh: return "import_fresh";
    case Op::kDeliver: return "deliver";
    case Op::kVerdict: return "verdict";
    case Op::kCount: break;
  }
  return "?";
}

inline bool IsRead(Op op) {
  return op == Op::kProbe || op == Op::kImportRepeat || op == Op::kVerdict;
}
inline bool IsWrite(Op op) {
  return op == Op::kGrant || op == Op::kImportFresh || op == Op::kDeliver;
}

/// Per-request outcomes of the measured loop.
struct Recorder {
  std::vector<double> us[static_cast<size_t>(Op::kCount)];
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> first_errors;  ///< a few, for the report

  void Record(Op op, uint64_t ns, bool ok, const std::string& why = "") {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_errors.size() < 5) {
        first_errors.push_back(std::string(OpName(op)) + ": " + why);
      }
      return;
    }
    us[static_cast<size_t>(op)].push_back(static_cast<double>(ns) / 1000.0);
  }
  void Append(const Recorder& other) {
    for (size_t i = 0; i < static_cast<size_t>(Op::kCount); ++i) {
      us[i].insert(us[i].end(), other.us[i].begin(), other.us[i].end());
    }
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.first_errors) {
      if (first_errors.size() < 5) first_errors.push_back(e);
    }
  }
  const std::vector<double>& samples(Op op) const {
    return us[static_cast<size_t>(op)];
  }
};

/// Layers the traced run attributes time to. Request spans are roots; the
/// rest are the public calls the benchmark makes into each module.
enum class Layer : uint16_t {
  kRequest,  ///< root span: request glue not covered by a child span
  kFrameDecode,
  kParseBundle,
  kHash,
  kStage,
  kVerifyCold,
  kVerifyCached,
  kParse,
  kLint,
  kTxnStage,
  kTxnApply,
  kFixpoint,
  kPrepare,
  kExists,
  kClusterRun,
  kCount
};

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "bench.request";
    case Layer::kFrameDecode: return "net.frame_decode";
    case Layer::kParseBundle: return "cred.parse_bundle";
    case Layer::kHash: return "cred.hash";
    case Layer::kStage: return "cred.stage";
    case Layer::kVerifyCold: return "cred.verify_cold";
    case Layer::kVerifyCached: return "cred.verify_cached";
    case Layer::kParse: return "datalog.parse";
    case Layer::kLint: return "datalog.lint";
    case Layer::kTxnStage: return "datalog.txn_stage";
    case Layer::kTxnApply: return "datalog.txn_apply";
    case Layer::kFixpoint: return "datalog.fixpoint";
    case Layer::kPrepare: return "datalog.prepare";
    case Layer::kExists: return "datalog.exists";
    case Layer::kClusterRun: return "net.cluster_run";
    case Layer::kCount: break;
  }
  return "?";
}

/// In-memory span recorder with nanosecond timestamps. Spans nest (a
/// stack), so each span's self time is its duration minus its children's.
/// Aggregates cover every span; the first `kMaxKeptSpans` are also kept
/// verbatim for the Chrome trace-event file written at exit.
class LayerTrace {
 public:
  static constexpr size_t kMaxKeptSpans = 200000;
  static constexpr size_t kMaxCallSamples = 500000;  ///< per layer
  static constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t request;
  };
  struct Aggregate {
    size_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    std::vector<double> call_us;  ///< first per-call durations, for medians
  };

  LayerTrace() { spans_.reserve(kMaxKeptSpans); }

  /// Opens a span; `name` must outlive the trace (string literal).
  void Begin(Layer layer, const char* name = nullptr) {
    if (stack_.empty()) ++request_;
    Open open;
    open.layer = layer;
    open.name = name != nullptr ? name : LayerName(layer);
    open.start_ns = NowNs();
    stack_.push_back(open);
  }
  /// Closes the innermost span, optionally re-attributing it (a signature
  /// check is cold or cached only once it returns).
  void End(Layer as = Layer::kCount) {
    uint64_t end = NowNs();
    Open open = stack_.back();
    stack_.pop_back();
    Layer layer = as == Layer::kCount ? open.layer : as;
    uint64_t dur = end - open.start_ns;
    Aggregate& agg = agg_[static_cast<size_t>(layer)];
    ++agg.calls;
    agg.total_ns += dur;
    agg.self_ns += dur - std::min(dur, open.child_ns);
    if (agg.call_us.size() < kMaxCallSamples) {
      agg.call_us.push_back(static_cast<double>(dur) / 1000.0);
    }
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (spans_.size() < kMaxKeptSpans) {
      const char* name = as == Layer::kCount ? open.name : LayerName(as);
      spans_.push_back(Span{name, open.start_ns, end, request_});
    }
  }

  const Aggregate& agg(Layer layer) const {
    return agg_[static_cast<size_t>(layer)];
  }
  uint64_t requests() const { return request_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (`{"traceEvents":[...]}`, complete "X"
  /// events, µs timestamps rebased to the earliest span), the format
  /// obs::Tracer::ExportJson emits; each event carries its request id.
  std::string ExportJson() const;

 private:
  struct Open {
    Layer layer;
    const char* name;
    uint64_t start_ns;
    uint64_t child_ns = 0;
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  Aggregate agg_[kLayers];
  uint64_t request_ = 0;
};

/// RAII helper: a span when `trace` is set, nothing otherwise.
class Scoped {
 public:
  Scoped(LayerTrace* trace, Layer layer, const char* name = nullptr)
      : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(layer, name);
  }
  ~Scoped() { Close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void Close(Layer as = Layer::kCount) {
    if (trace_ != nullptr) trace_->End(as);
    trace_ = nullptr;
  }

 private:
  LayerTrace* trace_;
};

/// One named value of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Transaction::Commit. Traced, it is replayed as the public calls it
/// makes (src/datalog/workspace.cc; keep this in step with it):
/// CommitNoFixpoint, then Fixpoint, each inside its span, with the commit
/// latency observed into the workspace's histogram as Commit does.
inline lbtrust::util::Status Commit(lbtrust::datalog::Transaction* txn,
                                    lbtrust::datalog::Workspace* ws,
                                    LayerTrace* trace) {
  if (trace == nullptr) return txn->Commit();
  lbtrust::obs::Histogram* latency =
      ws->metrics() != nullptr
          ? ws->metrics()->GetHistogram("lbtrust_commit_latency_microseconds")
          : nullptr;
  const uint64_t start_us = latency != nullptr ? lbtrust::obs::Tracer::NowMicros() : 0;
  Scoped apply(trace, Layer::kTxnApply);
  lbtrust::util::Status st = txn->CommitNoFixpoint();
  apply.Close();
  if (st.ok()) {
    Scoped fixpoint(trace, Layer::kFixpoint);
    st = ws->Fixpoint();
  }
  if (latency != nullptr) latency->Observe(lbtrust::obs::Tracer::NowMicros() - start_us);
  return st;
}

/// The verdict for a fully bound pattern (Prepare + Exists): "" with
/// `*verdict` set, or the error.
inline std::string Probe(lbtrust::trust::TrustRuntime* rt,
                         const std::string& pattern, LayerTrace* trace,
                         bool* verdict) {
  *verdict = false;
  Scoped prepare(trace, Layer::kPrepare);
  auto q = rt->Prepare(pattern);
  prepare.Close();
  if (!q.ok()) return q.status().ToString();
  Scoped exists(trace, Layer::kExists);
  auto found = q->Exists();
  if (!found.ok()) return found.status().ToString();
  *verdict = *found;
  return "";
}

/// What one pass leaves behind, compared between the untraced and traced
/// replay of the same inputs.
struct PassState {
  std::string verdicts;  ///< one '1'/'0' per verdict-bearing request
  std::map<std::string, double> counters;
  bool operator==(const PassState& o) const {
    return verdicts == o.verdicts && counters == o.counters;
  }
};

/// One scenario: client-side inputs generated once from the seed, then
/// replayed pass after pass, each pass against a freshly set-up server.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Client side: builds every input from `seed` (untimed).
  virtual void Generate(uint64_t seed) = 0;
  /// Canonical serialization of the generated inputs (determinism check,
  /// input digest).
  virtual std::string InputBytes() const = 0;
  /// Measured properties of the inputs (repeat share, allowed share, ...).
  virtual std::map<std::string, double> InputProperties() const = 0;
  /// Server side: a fresh server with its base state (timed as setup_s).
  /// Returns an error message, or "" on success.
  virtual std::string Setup() = 0;
  /// Replays the generated requests against the server Setup() built.
  /// With `trace` set, composite library calls are driven as their
  /// sequence of public calls, each inside a span.
  virtual void RunPass(Recorder* rec, LayerTrace* trace, PassState* state) = 0;
  /// Requests that count toward throughput in one pass.
  virtual size_t ThroughputUnitsPerPass() const = 0;
  /// Per-layer counters of the last pass, keyed by the names in
  /// kCounterMetrics (main.cc); a name a workload leaves out reads 0.
  virtual std::map<std::string, double> LayerCounters() const = 0;
};

std::unique_ptr<Workload> MakeAuthzMixed();
std::unique_ptr<Workload> MakeCredImport();
std::unique_ptr<Workload> MakeBinderExchange();

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
