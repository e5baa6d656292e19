// End-to-end authorization benchmark: command line, pass loop, report.
//
//   e2e_bench --workload <authz_mixed|cred_import|binder_exchange>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--sha <git sha>] [--inputs-digest]
//
// Generates the workload's inputs from the seed (client side, untimed),
// then replays them in passes, each against a freshly set-up server, from
// one client thread in a closed loop until --seconds of passes have run.
// Every verdict is checked against the generator's expected answer. The
// last stdout line is one JSON object: {"correct","attempted","failed",
// "metrics"}; --trace 0 reports end-to-end metrics, --trace 1 the
// per-layer metrics of a run that alternates untraced and traced passes.
// Exit code 0 only when every request succeeded with the right verdict.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "crypto/sha256.h"
#include "obs/build_info.h"
#include "util/strings.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {

std::string LayerTrace::ExportJson() const {
  std::string out = "{\"traceEvents\":[";
  uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - epoch) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string sha = "unknown";
  bool inputs_digest = false;
};

/// Shortest round-trip decimal form of a double.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "authz_mixed") return MakeAuthzMixed();
  if (name == "cred_import") return MakeCredImport();
  if (name == "binder_exchange") return MakeBinderExchange();
  return nullptr;
}

/// Peak resident set of this process image (VmHWM; unlike getrusage's
/// ru_maxrss it does not carry over the pre-exec parent image).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--inputs-digest") {
      args->inputs_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = std::atoi(value.c_str());
    else if (flag == "--trace-out") args->trace_out = value;
    else if (flag == "--sha") args->sha = value;
    else return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Times Setup(); fails the run on a setup error.
double TimedSetup(Workload* wl) {
  uint64_t t0 = NowNs();
  std::string err = wl->Setup();
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  if (!err.empty()) {
    std::fprintf(stderr, "setup failed: %s\n", err.c_str());
    std::exit(2);
  }
  return secs;
}

std::vector<double> Merge(const Recorder& rec, bool (*pick)(Op)) {
  std::vector<double> out;
  for (size_t i = 0; i < static_cast<size_t>(Op::kCount); ++i) {
    if (pick(static_cast<Op>(i))) {
      out.insert(out.end(), rec.us[i].begin(), rec.us[i].end());
    }
  }
  return out;
}

std::string OpCountsJson(const Recorder& rec) {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < static_cast<size_t>(Op::kCount); ++i) {
    if (rec.us[i].empty()) continue;
    out += lbtrust::util::StrCat(first ? "" : ",", "\"",
                                 OpName(static_cast<Op>(i)), "\":",
                                 rec.us[i].size());
    first = false;
  }
  return out + "}";
}

void PrintOpTable(const Recorder& rec) {
  std::printf("%-14s %9s %11s %11s %7s %11s\n", "request", "samples",
              "p50_us", "mean_us", "tail", "tail_us");
  for (size_t i = 0; i < static_cast<size_t>(Op::kCount); ++i) {
    const std::vector<double>& v = rec.us[i];
    if (v.empty()) continue;
    double mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double p = TailPercentileFor(v.size());
    std::printf("%-14s %9zu %11.2f %11.2f %7s %11.2f\n",
                OpName(static_cast<Op>(i)), v.size(), Median(v), mean,
                p > 0 ? lbtrust::util::StrCat("p", Num(p)).c_str() : "-",
                p > 0 ? Percentile(v, p) : 0.0);
  }
}

/// The end-to-end metrics named in the README, printed for humans (n/a
/// where the workload issues no such request).
void PrintNamedMetrics(const Recorder& all, double throughput, double setup_s,
                       double rss) {
  auto pct = [&](Op op, double p, const char* name) {
    const std::vector<double>& v = all.samples(op);
    if (v.empty() || (p > 50 && TailPercentileFor(v.size()) < p)) {
      std::printf("metric %-22s n/a\n", name);
    } else {
      std::printf("metric %-22s %12.3f us\n", name, Percentile(v, p));
    }
  };
  std::printf("metric %-22s %12.6f s\n", "setup_s", setup_s);
  std::printf("metric %-22s %12.1f 1/s\n", "throughput_rps", throughput);
  std::printf("metric %-22s %12.6f ratio\n", "fail_ratio",
              all.attempted ? static_cast<double>(all.failed) / all.attempted : 0);
  std::printf("metric %-22s %12.1f MB\n", "peak_rss_mb", rss);
  pct(Op::kProbe, 50, "probe_p50_us");
  pct(Op::kProbe, 99, "probe_p99_us");
  pct(Op::kGrant, 50, "grant_p50_us");
  pct(Op::kGrant, 99, "grant_p99_us");
  pct(Op::kRevoke, 50, "revoke_p50_us");
  pct(Op::kImportRepeat, 50, "import_repeat_p50_us");
  pct(Op::kImportRepeat, 99, "import_repeat_p99_us");
  pct(Op::kImportFresh, 50, "import_fresh_p50_us");
  pct(Op::kImportFresh, 90, "import_fresh_p90_us");
  pct(Op::kDeliver, 50, "deliver_p50_us");
  pct(Op::kVerdict, 50, "verdict_p50_us");
}

void PrintProvenance(const Args& args, const std::string& digest,
                     const Recorder& rec, size_t passes, double gen_s,
                     const std::map<std::string, double>& props) {
  std::string props_json = "{";
  bool first = true;
  for (const auto& [k, v] : props) {
    props_json += lbtrust::util::StrCat(first ? "" : ",", "\"", k, "\":", Num(v));
    first = false;
  }
  props_json += "}";
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"sha\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"input_sha256\":\"%s\",\"passes\":%zu,"
      "\"input_gen_s\":%s,\"ops\":%s,\"inputs\":%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace, args.sha.c_str(),
      std::thread::hardware_concurrency(), E2EBENCH_BUILD_TYPE,
      lbtrust::obs::BuildCompiler(), digest.c_str(), passes,
      Num(gen_s).c_str(), OpCountsJson(rec).c_str(), props_json.c_str());
}

void PrintResult(bool correct, const Recorder& rec,
                 const std::vector<Metric>& metrics) {
  std::string out = lbtrust::util::StrCat(
      "{\"correct\": ", correct ? "true" : "false",
      ", \"attempted\": ", rec.attempted, ", \"failed\": ", rec.failed,
      ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += lbtrust::util::StrCat(i ? ", " : "", "\"", metrics[i].name,
                                 "\": {\"value\": ", Num(metrics[i].value),
                                 ", \"unit\": \"", metrics[i].unit, "\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintErrors(const Recorder& rec) {
  for (const std::string& e : rec.first_errors) {
    std::printf("error %s\n", e.c_str());
  }
}

/// One measured pass: a fresh server, then every generated request.
struct PassResult {
  Recorder rec;
  double setup_s = 0;
  double run_s = 0;
};

int RunUntraced(const Args& args, Workload* wl, const std::string& digest,
                double gen_s) {
  // Warm-up pass: first-touch allocation and lazy initialisation stay out
  // of the measured passes. The server's peak memory is read right after
  // it, before the per-request bookkeeping of the measured passes grows.
  {
    TimedSetup(wl);
    Recorder warm;
    PassState state;
    wl->RunPass(&warm, nullptr, &state);
    if (warm.failed > 0) {
      PrintErrors(warm);
      std::fprintf(stderr, "warm-up pass failed\n");
      return 1;
    }
  }
  const double rss = PeakRssMb();
  std::vector<PassResult> passes;
  uint64_t start = NowNs();
  while (passes.size() < 3 ||
         static_cast<double>(NowNs() - start) / 1e9 < args.seconds) {
    PassResult pass;
    pass.setup_s = TimedSetup(wl);
    PassState state;
    uint64_t t0 = NowNs();
    wl->RunPass(&pass.rec, nullptr, &state);
    pass.run_s = static_cast<double>(NowNs() - t0) / 1e9;
    std::printf("pass %zu setup_s=%.6f run_s=%.6f read_p50_us=%.3f "
                "write_p50_us=%.3f\n",
                passes.size(), pass.setup_s, pass.run_s,
                Median(Merge(pass.rec, IsRead)), Median(Merge(pass.rec, IsWrite)));
    passes.push_back(std::move(pass));
  }
  // Each metric is first taken per pass, then the median over the passes
  // is reported: every pass counts, and a slowdown (of the program or of
  // the host) moves the result once it covers half of the passes.
  Recorder all;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> read_p50s;
  std::vector<double> write_p50s;
  for (const PassResult& p : passes) {
    all.Append(p.rec);
    setups.push_back(p.setup_s);
    rates.push_back(static_cast<double>(wl->ThroughputUnitsPerPass()) / p.run_s);
    read_p50s.push_back(Median(Merge(p.rec, IsRead)));
    write_p50s.push_back(Median(Merge(p.rec, IsWrite)));
  }
  const double setup_s = Median(setups);
  const double throughput = Median(rates);
  const bool has_reads_and_writes =
      !Merge(all, IsRead).empty() && !Merge(all, IsWrite).empty();

  PrintProvenance(args, digest, all, passes.size(), gen_s, wl->InputProperties());
  std::printf("%zu passes; reported values are medians over the passes\n",
              passes.size());
  PrintOpTable(all);
  PrintNamedMetrics(all, throughput, setup_s, rss);
  PrintErrors(all);
  bool correct = all.failed == 0 && has_reads_and_writes;
  PrintResult(correct, all,
              {{"setup_s", setup_s, "s"},
               {"throughput_rps", throughput, "1/s"},
               {"read_p50_us", Median(read_p50s), "us"},
               {"write_p50_us", Median(write_p50s), "us"},
               {"peak_rss_mb", rss, "MB"}});
  return correct ? 0 : 1;
}

/// Layers whose per-call mean is reported in the per-layer JSON: each is
/// called on every workload, so the value is always a measurement.
constexpr Layer kTimedLayers[] = {Layer::kPrepare, Layer::kExists,
                                  Layer::kTxnApply, Layer::kFixpoint};

/// Per-layer counters every traced run reports (0 on a workload that does
/// not exercise the layer).
struct CounterMetric {
  const char* name;
  const char* unit;
};
constexpr CounterMetric kCounterMetrics[] = {
    {"datalog.fixpoint_delta_ratio", "ratio"},
    {"datalog.active_rows_start", "count"},
    {"datalog.active_rows_end", "count"},
    {"datalog.codegen_rounds", "count"},
    {"cred.verify_cache_hit_ratio", "ratio"},
    {"cred.rsa_verifies", "count"},
    {"trust.rsa_signs", "count"},
    {"trust.rsa_verifies", "count"},
    {"net.cluster_rounds", "count"},
    {"net.cluster_bytes_per_tuple", "B"},
};

int RunTraced(const Args& args, Workload* wl, const std::string& digest,
              double gen_s) {
  // Alternate untraced and traced passes over the same inputs: the pair
  // must agree on verdicts and counters, and their time difference is the
  // tracing overhead.
  Recorder plain;
  Recorder traced;
  LayerTrace trace;
  double plain_s = 0;
  double traced_s = 0;
  size_t passes = 0;
  size_t mismatches = 0;
  uint64_t start = NowNs();
  {
    TimedSetup(wl);
    Recorder warm;
    PassState state;
    wl->RunPass(&warm, nullptr, &state);
    if (warm.failed > 0) {
      PrintErrors(warm);
      std::fprintf(stderr, "warm-up pass failed\n");
      return 1;
    }
  }
  while (passes < 2 ||
         static_cast<double>(NowNs() - start) / 1e9 < args.seconds) {
    PassState a;
    PassState b;
    TimedSetup(wl);
    uint64_t t0 = NowNs();
    wl->RunPass(&plain, nullptr, &a);
    plain_s += static_cast<double>(NowNs() - t0) / 1e9;
    TimedSetup(wl);
    t0 = NowNs();
    wl->RunPass(&traced, &trace, &b);
    traced_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (!(a == b)) {
      ++mismatches;
      std::printf("error traced pass %zu differs from untraced pass%s\n", passes,
                  a.verdicts == b.verdicts ? "" : " (verdicts differ)");
      for (const auto& [k, v] : a.counters) {
        std::printf("  %s untraced=%s traced=%s\n", k.c_str(), Num(v).c_str(),
                    Num(b.counters[k]).c_str());
      }
    }
    ++passes;
  }
  double overhead = (traced_s - plain_s) / plain_s;

  uint64_t root_ns = trace.agg(Layer::kRequest).total_ns;
  std::printf("%-20s %9s %12s %8s %10s %10s\n", "layer", "calls",
              "self_ms", "share", "mean_us", "p50_us");
  std::vector<Metric> metrics;
  for (size_t i = 0; i < LayerTrace::kLayers; ++i) {
    Layer layer = static_cast<Layer>(i);
    const LayerTrace::Aggregate& agg = trace.agg(layer);
    double share = root_ns ? static_cast<double>(agg.self_ns) / root_ns : 0;
    double mean = agg.calls ? static_cast<double>(agg.total_ns) / agg.calls / 1000.0 : 0;
    if (agg.calls > 0) {
      std::printf("%-20s %9zu %12.3f %8.4f %10.3f %10.3f\n", LayerName(layer),
                  agg.calls, static_cast<double>(agg.self_ns) / 1e6, share,
                  mean, Median(agg.call_us));
    }
    metrics.push_back(
        {lbtrust::util::StrCat(LayerName(layer), ".share"), share, "ratio"});
  }
  // Per-call mean of every layer, for the report (n/a when not called).
  for (size_t i = 1; i < LayerTrace::kLayers; ++i) {
    Layer layer = static_cast<Layer>(i);
    const LayerTrace::Aggregate& agg = trace.agg(layer);
    if (agg.calls == 0) {
      std::printf("layer %-26s n/a\n", (std::string(LayerName(layer)) + "_us").c_str());
    } else {
      std::printf("layer %-26s %12.3f us\n",
                  (std::string(LayerName(layer)) + "_us").c_str(),
                  static_cast<double>(agg.total_ns) / agg.calls / 1000.0);
    }
  }
  for (Layer layer : kTimedLayers) {
    const LayerTrace::Aggregate& agg = trace.agg(layer);
    double mean = agg.calls ? static_cast<double>(agg.total_ns) / agg.calls / 1000.0 : 0;
    metrics.push_back({lbtrust::util::StrCat(LayerName(layer), "_us"), mean, "us"});
  }
  std::map<std::string, double> counters = wl->LayerCounters();
  for (const CounterMetric& c : kCounterMetrics) {
    double value = counters.count(c.name) ? counters[c.name] : 0;
    std::printf("layer %-26s %12s %s\n", c.name, Num(value).c_str(), c.unit);
    metrics.push_back({c.name, value, c.unit});
  }
  std::printf("layer %-26s %12s  (untraced %.3fs, traced %.3fs)\n",
              "trace.overhead_ratio", Num(overhead).c_str(), plain_s, traced_s);
  metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});

  Recorder all = plain;
  all.attempted += traced.attempted;
  all.failed += traced.failed + mismatches;
  for (const std::string& e : traced.first_errors) all.first_errors.push_back(e);
  PrintProvenance(args, digest, all, passes * 2, gen_s, wl->InputProperties());
  PrintErrors(all);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary);
    out << trace.ExportJson();
    std::printf("trace: first %zu spans (of %llu traced requests) written to %s\n",
                trace.spans().size(),
                static_cast<unsigned long long>(trace.requests()),
                args.trace_out.c_str());
  }
  bool correct = all.failed == 0;
  PrintResult(correct, all, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <authz_mixed|cred_import|"
                 "binder_exchange> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--sha <sha>] [--inputs-digest]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  uint64_t t0 = NowNs();
  wl->Generate(args.seed);
  double gen_s = static_cast<double>(NowNs() - t0) / 1e9;
  std::string digest = lbtrust::crypto::Sha256::HexDigest(wl->InputBytes());
  if (args.inputs_digest) {
    std::printf("%s\n", digest.c_str());
    return 0;
  }
  std::fflush(stdout);
  int rc = args.trace ? RunTraced(args, wl.get(), digest, gen_s)
                      : RunUntraced(args, wl.get(), digest, gen_s);
  std::fflush(stdout);
  return rc;
}
