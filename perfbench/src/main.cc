// perfbench: the repository benchmark. Runs one named workload against
// vaolib's public APIs for a fixed time, checks every answer, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// replay of the same operations (--trace 1). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload serve_storm --seed 7 --seconds 10 --trace 0
//   perfbench --probe-storm-demand
//
// See perfbench/README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-ups per run: one before the untraced pass, the rest spread over it,
// so setup_s samples the same machine conditions as the operations.
constexpr std::size_t kSetups = 5;
// End-to-end runs time at least this many operations, so p90 has ten
// samples beyond it.
constexpr std::size_t kMinTimedOps = 100;
// The end-to-end pass times one reference block (reference.h) after the
// first operation that ends this long after the previous block.
constexpr std::int64_t kReferenceIntervalNs = 100'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool probe = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe-storm-demand") {
      options->probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return options->probe ||
         (!options->workload.empty() && options->seconds > 0.0);
}

// Cumulative process-wide counters the layers publish (summed over labels).
struct GlobalCounters {
  std::uint64_t work[4] = {};  // exec, get_state, store_state, choose_iter
  std::uint64_t scheduler_steps = 0;
  std::uint64_t deadline_misses = 0;

  static GlobalCounters Read() {
    GlobalCounters g;
    const char* const kinds[] = {"exec", "get_state", "store_state",
                                 "choose_iter"};
    for (const auto& sample :
         vaolib::obs::MetricsRegistry::Global().Snapshot().counters) {
      if (sample.name == "vaolib_work_units_total") {
        const auto kind = sample.labels.find("kind");
        for (int k = 0; k < 4 && kind != sample.labels.end(); ++k) {
          if (kind->second == kinds[k]) g.work[k] += sample.value;
        }
      } else if (sample.name == "vaolib_scheduler_steps_total") {
        g.scheduler_steps += sample.value;
      } else if (sample.name == "vaolib_server_deadline_misses_total") {
        g.deadline_misses += sample.value;
      }
    }
    return g;
  }

  GlobalCounters Since(const GlobalCounters& before) const {
    GlobalCounters d;
    for (int k = 0; k < 4; ++k) d.work[k] = work[k] - before.work[k];
    d.scheduler_steps = scheduler_steps - before.scheduler_steps;
    d.deadline_misses = deadline_misses - before.deadline_misses;
    return d;
  }
};

// One closed-loop pass over operations 0, 1, ...
struct Pass {
  std::vector<OpResult> ops;
  std::vector<double> latency_ns;
  std::vector<double> reference_ns;  // reference blocks timed between ops
  GlobalCounters window_global;  // over the first window() operations
  VaoCounters window_vao;
  std::size_t failed = 0;
};

// Times Setup() on fresh instances of a workload.
struct SetupTimer {
  std::function<std::unique_ptr<Workload>(std::uint64_t)> make;
  std::uint64_t seed = 0;
  std::vector<double> seconds;

  // Returns the set-up instance, or null (with a message) on failure.
  std::unique_ptr<Workload> TimeOne() {
    std::unique_ptr<Workload> fresh = make(seed);
    std::string error;
    const std::int64_t start = NowNs();
    if (!fresh->Setup(Tracing{}, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return nullptr;
    }
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    return fresh;
  }
};

// Runs operations until \p seconds have passed and at least \p min_ops
// ran, or exactly \p fixed_ops when non-zero. With \p setups, the
// remaining set-ups are timed between operations at even intervals (after
// the digest window, whose counts they would disturb). With \p reference,
// reference blocks are timed between operations as well.
Pass RunPass(Workload* workload, const Tracing& tracing, double seconds,
             std::size_t min_ops, std::size_t fixed_ops,
             SetupTimer* setups = nullptr,
             ReferenceBlock* reference = nullptr) {
  Pass pass;
  std::int64_t last_reference = 0;
  const auto time_setup = [&] {
    if (setups->TimeOne() == nullptr) ++pass.failed;
  };
  const GlobalCounters before = GlobalCounters::Read();
  const std::int64_t start = NowNs();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    if (fixed_ops > 0 ? i == fixed_ops
                      : i >= min_ops && NowNs() - start >= limit) {
      break;
    }
    if (i == workload->capacity()) {
      std::fprintf(stderr, "note: stopped at the %zu generated operations\n",
                   i);
      break;
    }
    const std::int64_t op_start = NowNs();
    if (tracing.recorder != nullptr) tracing.recorder->BeginOp(i, op_start);
    OpResult result = workload->RunOp(i);
    if (tracing.recorder != nullptr) tracing.recorder->EndOp(result.end_ns);
    pass.latency_ns.push_back(static_cast<double>(result.end_ns - op_start));
    if (!result.ok) {
      if (pass.failed == 0) {
        std::fprintf(stderr, "op %zu failed: %s\n", i, result.failure.c_str());
      }
      ++pass.failed;
    }
    pass.ops.push_back(std::move(result));
    if (reference != nullptr &&
        NowNs() - last_reference >= kReferenceIntervalNs) {
      pass.reference_ns.push_back(static_cast<double>(reference->RunNs()));
      last_reference = NowNs();
    }
    if (i + 1 == workload->window()) {
      pass.window_global = GlobalCounters::Read().Since(before);
      if (tracing.vao != nullptr) pass.window_vao = *tracing.vao;
    }
    if (setups != nullptr && i + 1 >= workload->window() &&
        setups->seconds.size() < kSetups &&
        NowNs() - start >= static_cast<std::int64_t>(
                               setups->seconds.size()) *
                               limit / static_cast<std::int64_t>(kSetups)) {
      time_setup();
    }
  }
  while (setups != nullptr && setups->seconds.size() < kSetups &&
         pass.failed == 0) {
    time_setup();
  }
  return pass;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void PrintLines(const std::string& workload) const {
    for (const Entry& e : entries_) {
      std::printf("%s %s %.6g %s\n", workload.c_str(), e.name.c_str(),
                  e.value, e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i > 0 ? ", \"" : "\"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Prints the digest line: seed, work units by WorkKind and a hash of the
// answers over the first window() operations.
void PrintDigest(const Options& options, const Pass& pass,
                 std::size_t window) {
  Fnv1a digest;
  for (std::size_t i = 0; i < window && i < pass.ops.size(); ++i) {
    digest.AddU64(pass.ops[i].digest);
  }
  const GlobalCounters& g = pass.window_global;
  std::printf(
      "digest workload=%s seed=%llu ops=%zu exec=%llu get_state=%llu "
      "store_state=%llu choose_iter=%llu answers=%016llx\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      std::min(window, pass.ops.size()),
      static_cast<unsigned long long>(g.work[0]),
      static_cast<unsigned long long>(g.work[1]),
      static_cast<unsigned long long>(g.work[2]),
      static_cast<unsigned long long>(g.work[3]),
      static_cast<unsigned long long>(digest.value()));
}

void AddEndToEnd(bool serves, const Pass& pass, double nominal_reference_ms,
                 double setup_s, std::size_t verify_attempted,
                 std::size_t verify_failed, const std::string& name,
                 Metrics* metrics) {
  const Summary op = Summarize(pass.latency_ns);
  std::uint64_t results = 0;
  std::uint64_t converged = 0;
  std::vector<double> tick_ns;
  std::vector<double> churn_ns;
  for (std::size_t i = 0; i < pass.ops.size(); ++i) {
    results += pass.ops[i].counts.results;
    converged += pass.ops[i].counts.converged;
    tick_ns.push_back(pass.latency_ns[i] -
                      static_cast<double>(pass.ops[i].churn_ns));
    churn_ns.push_back(static_cast<double>(pass.ops[i].churn_ns));
  }
  const double ops_per_s = 1e9 / op.mean;
  const double converged_ratio =
      results > 0 ? static_cast<double>(converged) /
                        static_cast<double>(results)
                  : 0.0;

  // The host's speed over the pass: the mean reference block, a mean like
  // the operation time it scales.
  const double reference_ms = Summarize(pass.reference_ns).mean * 1e-6;

  // The gated set (BENCHMARK.json). On a host whose CPU speed shifts
  // between levels for seconds to minutes, every wall-clock figure of a
  // run moves with the level, so throughput is gated at a nominal speed;
  // the raw figures and the percentiles are printed below, not gated.
  metrics->Add("norm_ops_per_s",
               ops_per_s * reference_ms / nominal_reference_ms, "1/s");
  metrics->Add("converged_ratio", converged_ratio, "ratio");
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MiB");

  // The same numbers under the workload's own operation names.
  const auto line = [&](const char* metric, double value, const char* unit) {
    std::printf("%s %s %.6g %s\n", name.c_str(), metric, value, unit);
  };
  const double attempted =
      static_cast<double>(pass.ops.size() + verify_attempted);
  line("error_ratio",
       static_cast<double>(pass.failed + verify_failed) / attempted, "ratio");
  std::printf("%s samples=%zu\n", name.c_str(), op.count);
  double work = 0.0;
  for (const OpResult& result : pass.ops) {
    work += static_cast<double>(result.counts.work);
  }
  line("work_units_per_op", work / static_cast<double>(op.count), "count");
  line("ns_per_work_unit", op.mean * static_cast<double>(op.count) / work,
       "ns");
  line("ops_per_s", ops_per_s, "1/s");
  line("reference_ms", reference_ms, "ms");
  line("op_p50_ms", op.p50 * 1e-6, "ms");
  line("op_p90_ms", op.p90 * 1e-6, "ms");
  // The rule's tail: the highest percentile with ten samples beyond it.
  const auto tail = [&](const char* kind, const Summary& summary) {
    if (summary.tail_level <= 0.9) return;
    char metric[32];
    std::snprintf(metric, sizeof(metric), "%s_p%g_ms", kind,
                  summary.tail_level * 100.0);
    line(metric, summary.tail * 1e-6, "ms");
  };
  if (serves) {
    const Summary tick = Summarize(tick_ns);
    line("tick_p50_ms", tick.p50 * 1e-6, "ms");
    line("tick_p90_ms", tick.p90 * 1e-6, "ms");
    tail("tick", tick);
    line("ticks_per_s", ops_per_s, "1/s");
    if (name == "serve_fanout_churn") {
      const Summary churn = Summarize(churn_ns);
      line("churn_p50_ms", churn.p50 * 1e-6, "ms");
      line("churn_p90_ms", churn.p90 * 1e-6, "ms");
    }
  } else {
    line("query_p50_ms", op.p50 * 1e-6, "ms");
    line("query_p90_ms", op.p90 * 1e-6, "ms");
    tail("query", op);
    line("queries_per_s", ops_per_s, "1/s");
  }
}

void AddPerLayer(const Workload& workload, const Pass& plain,
                 const Pass& traced, const SpanRecorder& recorder,
                 const VaoCounters& vao_total, Metrics* metrics) {
  const std::size_t n = traced.ops.size();
  const double k = static_cast<double>(std::min(workload.window(), n));
  const bool serves = workload.serves();

  // Times: means over every traced operation.
  double op_ns = 0, vao_invoke_ns = 0, vao_iterate_ns = 0, dispatch_ns = 0;
  double churn_ns = 0, drain_ns = 0, server_self_ns = 0, engine_self_ns = 0;
  double choose_steps_all = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const OpSpans& spans = recorder.ops()[i];
    const auto total = [&](SpanName s) {
      return static_cast<double>(spans.total_ns[static_cast<int>(s)]);
    };
    const double op = total(SpanName::kOp);
    const double vao =
        total(SpanName::kVaoInvoke) + total(SpanName::kVaoIterate);
    const double dispatch = static_cast<double>(traced.ops[i].dispatch_ns);
    op_ns += op;
    vao_invoke_ns += total(SpanName::kVaoInvoke);
    vao_iterate_ns += total(SpanName::kVaoIterate);
    dispatch_ns += dispatch;
    churn_ns += total(SpanName::kServerChurn);
    drain_ns += total(SpanName::kServerDrain);
    if (serves) {
      server_self_ns += op - dispatch - total(SpanName::kServerChurn);
      engine_self_ns += dispatch - vao;
    } else {
      // The operation's own time: everything but the UDF calls inside it.
      engine_self_ns +=
          static_cast<double>(spans.self_ns[static_cast<int>(SpanName::kOp)]);
    }
    choose_steps_all +=
        static_cast<double>(traced.ops[i].counts.choose_steps);
  }

  // Counts: exact, over the first window() operations.
  OpCounts c;
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    const OpCounts& o = traced.ops[i].counts;
    c.frames += o.frames;
    c.payload_bytes += o.payload_bytes;
    c.results += o.results;
    c.converged += o.converged;
    c.choose_steps += o.choose_steps;
    c.iterations += o.iterations;
    c.rows_scanned += o.rows_scanned;
    c.approx_answers += o.approx_answers;
    c.approx_covered += o.approx_covered;
    c.sample_fraction_sum += o.sample_fraction_sum;
    c.budget_utilization += o.budget_utilization;
  }
  const GlobalCounters& g = traced.window_global;
  const VaoCounters& v = traced.window_vao;
  const double per_op = 1.0 / static_cast<double>(n);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  metrics->Add("server.self_ns_per_tick", server_self_ns * per_op, "ns");
  metrics->Add("server.drain_ns_per_tick", serves ? drain_ns * per_op : 0.0,
               "ns");
  metrics->Add("server.frames_per_tick", c.frames / k, "count");
  metrics->Add("server.bytes_per_tick", c.payload_bytes / k, "B");
  metrics->Add("server.churn_ns", churn_ns * per_op, "ns");
  metrics->Add("dispatch.tick_ns", dispatch_ns * per_op, "ns");
  metrics->Add("dispatch.unconverged_per_tick",
               serves ? static_cast<double>(c.results - c.converged) / k : 0.0,
               "count");
  metrics->Add("dispatch.deadline_misses",
               static_cast<double>(g.deadline_misses), "count");
  metrics->Add("engine.self_ns_per_op", engine_self_ns * per_op, "ns");
  metrics->Add("scheduler.budget_utilization", c.budget_utilization / k,
               "ratio");
  metrics->Add("scheduler.steps_per_tick",
               static_cast<double>(g.scheduler_steps) / k, "count");
  metrics->Add("sampling.sample_fraction",
               ratio(c.sample_fraction_sum, c.approx_answers), "ratio");
  metrics->Add("sampling.coverage",
               ratio(c.approx_covered, c.approx_answers), "ratio");
  metrics->Add("operators.choose_steps_per_op", c.choose_steps / k, "count");
  metrics->Add("operators.iterations_per_op", c.iterations / k, "count");
  metrics->Add("operators.rows_scanned_per_op", c.rows_scanned / k, "count");
  // Only where the counts cover every query (REPORT frames cover one
  // session of a serve workload).
  metrics->Add("operators.ns_per_choose_step",
               serves ? 0.0 : ratio(engine_self_ns, choose_steps_all), "ns");
  metrics->Add("work.choose_iter_units_per_op",
               static_cast<double>(g.work[3]) / k, "count");
  metrics->Add("vao.invokes_per_op", static_cast<double>(v.invokes) / k,
               "count");
  metrics->Add("vao.invoke_ns_per_op", vao_invoke_ns * per_op, "ns");
  metrics->Add("vao.iterates_per_op", static_cast<double>(v.iterates) / k,
               "count");
  metrics->Add("vao.iterate_ns_per_op", vao_iterate_ns * per_op, "ns");
  metrics->Add("vao.est_cost_rel_err",
               ratio(v.est_cost_rel_err_sum, static_cast<double>(v.iterates)),
               "ratio");
  metrics->Add("vao.nonshrinking_iterate_ratio",
               ratio(static_cast<double>(v.nonshrinking_iterates),
                     static_cast<double>(v.iterates)),
               "ratio");
  metrics->Add("numeric.work_units_per_op", static_cast<double>(g.work[0]) / k,
               "count");
  metrics->Add("numeric.ns_per_work_unit",
               ratio(vao_invoke_ns + vao_iterate_ns,
                     static_cast<double>(vao_total.invoke_units +
                                         vao_total.iterate_units)),
               "ns");
  metrics->Add("trace.overhead_ratio",
               ratio(op_ns * per_op, Summarize(plain.latency_ns).mean),
               "ratio");
}

int Run(const Options& options) {
  std::function<std::unique_ptr<Workload>(std::uint64_t)> make;
  if (options.workload == "serve_storm") {
    make = MakeServeStorm;
  } else if (options.workload == "serve_fanout_churn") {
    make = MakeServeFanoutChurn;
  } else if (options.workload == "aggregate_wide") {
    make = MakeAggregateWide;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // The first set-up serves the untraced pass; end-to-end runs time the
  // rest during it, and setup_s is the median.
  SetupTimer setups{make, options.seed, {}};
  std::unique_ptr<Workload> workload = setups.TimeOne();
  if (workload == nullptr) return 1;
  ReferenceBlock reference(workload->reference_shape());
  reference.RunNs();  // warm-up

  // Untraced pass: every end-to-end number comes from here.
  const std::size_t window = workload->window();
  const bool serves = workload->serves();
  const Pass plain =
      options.trace
          ? RunPass(workload.get(), Tracing{}, options.seconds / 2, window, 0)
          : RunPass(workload.get(), Tracing{}, options.seconds,
                    std::max(window, kMinTimedOps), 0, &setups, &reference);
  const double setup_s = Median(setups.seconds);
  std::size_t attempted = plain.ops.size();
  std::size_t failed = plain.failed;
  std::size_t verify_attempted = 0;
  std::size_t verify_failed = 0;
  if (!options.trace) workload->Verify(&verify_attempted, &verify_failed);
  workload.reset();
  attempted += verify_attempted;
  failed += verify_failed;
  PrintDigest(options, plain, window);

  Metrics metrics;
  if (!options.trace) {
    AddEndToEnd(serves, plain, reference.nominal_ms(), setup_s,
                verify_attempted, verify_failed, options.workload, &metrics);
  } else {
    // Traced replay of exactly the same operations on a fresh instance.
    SpanRecorder recorder(window);
    VaoCounters vao;
    std::unique_ptr<Workload> replay = make(options.seed);
    std::string error;
    if (!replay->Setup(Tracing{&recorder, &vao}, &error)) {
      std::fprintf(stderr, "traced set-up failed: %s\n", error.c_str());
      return 1;
    }
    vao = VaoCounters{};
    const Pass traced = RunPass(replay.get(), Tracing{&recorder, &vao}, 0.0,
                                0, plain.ops.size());
    attempted += traced.ops.size();
    failed += traced.failed;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < traced.ops.size(); ++i) {
      if (traced.ops[i].counts.work != plain.ops[i].counts.work ||
          traced.ops[i].digest != plain.ops[i].digest) {
        if (mismatched++ == 0) {
          std::fprintf(stderr,
                       "traced op %zu diverged from the untraced run "
                       "(work %llu vs %llu)\n",
                       i,
                       static_cast<unsigned long long>(
                           traced.ops[i].counts.work),
                       static_cast<unsigned long long>(
                           plain.ops[i].counts.work));
        }
      }
    }
    failed += mismatched;
    AddPerLayer(*replay, plain, traced, recorder, vao, &metrics);
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      recorder.WriteTsv(out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
        return 1;
      }
    }
  }
  metrics.PrintLines(options.workload);

  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_storm|serve_fanout_churn|"
                 "aggregate_wide> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n"
                 "       perfbench --probe-storm-demand\n");
    return 2;
  }
  if (options.probe) return perfbench::ProbeStormDemand();
  return perfbench::Run(options);
}
