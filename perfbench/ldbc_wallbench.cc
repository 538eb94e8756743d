// Wall-clock benchmark of the paper's six LDBC queries (see
// perfbench/README.md). One closed-loop client thread issues
// CypherEngine::Count calls back to back, telemetry off, against one
// in-process graph and one engine whose pool has a thread per host core;
// every query runs under both execution engines.
//
//   ldbc_wallbench --workload ldbc-sf1 --seed 42 --seconds 50 --trace 0
//
// A run measures several graphs generated from --seed, one after the
// other, and Q1-Q3 on a curated set of firstName parameters per graph:
// one graph and one name are too few to keep a latency steady from seed
// to seed.
//
// --trace 0 prints the end-to-end metrics: set-up time, per-query
// latency, peak RSS. --trace 1 runs every query once untraced and once
// traced per round and prints the per-layer roll-up instead: generation
// and layer set-up times, engine phases, operator self times, trace stages,
// cores busy, shuffle bytes, memory peaks and Q-errors. Either way the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the '#' lines before it are the human-readable report.
// --seconds bounds the whole run: generation, set-up and the correctness
// check of each graph count against that graph's share. --scale
// overrides the workload's scale factor (the self-test runs at sf 0.05).
//
// Exit codes: 0 ok, 1 a wrong or failed query, 2 bad usage or a build /
// environment whose timings would mislead.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/timer.h"
#include "dataflow/execution_context.h"
#include "epgm/indexed_logical_graph.h"
#include "epgm/logical_graph.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/graph_statistics.h"
#include "telemetry/query_profile.h"
#include "telemetry/tracer.h"

namespace {

using gradoop::Timer;
using gradoop::query::CypherEngine;
using gradoop::query::CypherMatchResult;
using gradoop::query::exec::PhysicalOperator;
using gradoop::query::exec::PhysOpKind;

// --- engines ----------------------------------------------------------
// The only place that knows there are two execution engines: retiring
// the row engine is deleting its entry here (its metrics go with it).

struct EngineDef {
  const char* name;
  gradoop::query::PlannerOptions::ExecutionEngine kind;
  bool converts;  // converts between rows and batches (convert_ms stage)
};
constexpr EngineDef kEngines[] = {
    {"row", gradoop::query::PlannerOptions::ExecutionEngine::kRow, false},
    {"batch", gradoop::query::PlannerOptions::ExecutionEngine::kBatch, true},
};
constexpr int kNumEngines = sizeof(kEngines) / sizeof(kEngines[0]);

void SelectEngine(CypherEngine& engine, const EngineDef& def) {
  engine.planner_options().engine = def.kind;
}

// --- workloads --------------------------------------------------------

constexpr int kNumQueries = 6;
constexpr int kNamedQueries = 3;  // Q1-Q3 take a firstName
constexpr int kSimulatedWorkers = 4;
constexpr uint64_t kPinnedSeed = 42;

struct Workload {
  const char* name;
  double scale;
  gradoop::ldbc::Selectivity selectivity;
  int graphs;  // input graphs per run
  int names;   // firstName parameters per graph (Q1-Q3 run once per name)
  // Match counts of Q1..Q6 at kPinnedSeed and this scale, for the name
  // ldbc::PickFirstName chooses.
  uint64_t pinned[kNumQueries];
};

// Q4-Q6 take no firstName, so on the high- and low-selectivity workloads
// they repeat ldbc-sf1's work; they still run there so that every
// workload reports the same metrics. The most common name has no peers,
// so the low-selectivity workload varies only the graph.
constexpr Workload kWorkloads[] = {
    {"ldbc-sf1", 1.0, gradoop::ldbc::Selectivity::kMedium, 8, 8,
     {302, 301, 55, 2812, 1232, 27693}},
    {"ldbc-sf1-highsel", 1.0, gradoop::ldbc::Selectivity::kHigh, 8, 8,
     {4, 4, 0, 2812, 1232, 27693}},
    {"ldbc-sf10", 10.0, gradoop::ldbc::Selectivity::kMedium, 1, 1,
     {1567, 1566, 242, 34068, 6042, 230811}},
    {"ldbc-sf1-lowsel", 1.0, gradoop::ldbc::Selectivity::kLow, 12, 1,
     {3010, 3010, 308, 2812, 1232, 27693}},
};

std::string QueryText(int q, const std::string& first_name) {
  switch (q) {
    case 0:
      return gradoop::ldbc::Query1(first_name);
    case 1:
      return gradoop::ldbc::Query2(first_name);
    case 2:
      return gradoop::ldbc::Query3(first_name);
    case 3:
      return gradoop::ldbc::Query4();
    case 4:
      return gradoop::ldbc::Query5();
    default:
      return gradoop::ldbc::Query6();
  }
}

// The firstName parameters of one graph, LDBC-style parameter curation:
// ldbc::PickFirstName's choice first, then the names whose Person counts
// are closest to it in log scale (same selectivity class).
std::vector<std::string> PickNames(const gradoop::ldbc::LdbcElements& elements,
                                   gradoop::ldbc::Selectivity level, int k) {
  const std::string first = gradoop::ldbc::PickFirstName(elements, level);
  std::map<std::string, int> freq;
  for (const gradoop::epgm::Vertex& v : elements.vertices) {
    if (v.label == "Person") {
      freq[v.properties.Get("firstName").string_value()]++;
    }
  }
  const double anchor = std::log(static_cast<double>(freq[first]));
  std::vector<std::pair<double, std::string>> by_distance;
  for (const auto& [name, count] : freq) {
    if (name == first) continue;
    by_distance.emplace_back(
        std::abs(std::log(static_cast<double>(count)) - anchor), name);
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<std::string> names = {first};
  for (size_t i = 0; i < by_distance.size() && names.size() < size_t(k); ++i) {
    names.push_back(by_distance[i].second);
  }
  return names;
}

// --- small helpers ----------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Process CPU time (all threads), seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// Lowers the process's resident-memory high-water mark to its current
// RSS (after handing freed heap back to the system), so PeakRssMb covers
// only what follows; a no-op where /proc does not allow it.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Resident-memory high-water mark, MiB: VmHWM, or getrusage's lifetime
// peak where /proc/self/status is unavailable.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Order-independent fingerprint of a result: the sorted byte encodings
// of all embeddings, hashed in order.
uint64_t CanonicalHash(const gradoop::query::EmbeddingSet& set) {
  std::vector<std::string> rows;
  for (const gradoop::query::Embedding& e : set.data.Collect()) {
    std::string bytes;
    e.EncodeTo(&bytes);
    rows.push_back(std::move(bytes));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    const uint64_t size = row.size();
    h = Fnv1a(&size, sizeof(size), h);
    h = Fnv1a(row.data(), row.size(), h);
  }
  return h;
}

// Seed of the g-th input graph of a run: the run's seed itself first
// (so the pinned counts apply to it), then splitmix64 derivations.
uint64_t GraphSeed(uint64_t seed, int g) {
  if (g == 0) return seed;
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(g);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The build flavour and environment must not distort the timings.
bool TimingsTrustworthy(std::string* why) {
#ifndef NDEBUG
  *why = "NDEBUG is not defined (debug-only plan verification is on)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  const std::string type = gradoop::kBuildType;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    *why = "build type '" + type + "' is not optimized";
    return false;
  }
  for (const char* audit :
       {"GRADOOP_AUDIT_MEMORY", "GRADOOP_AUDIT_CANCELLATION",
        "GRADOOP_AUDIT_PARTITIONING"}) {
    if (std::getenv(audit) != nullptr) {
      *why = std::string(audit) + " is set (runtime audits re-run queries)";
      return false;
    }
  }
  return true;
}

// --- metrics ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Mean of the middle half of `v` (the interquartile mean): nearly as
// steady as the mean on well-behaved samples, and as deaf as the median
// to a few far-off ones.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// Samples of every metric, grouped by input graph. A metric's value is
// the interquartile mean over graphs of its per-graph median: the median
// damps noise between calls on one graph, the mean over graphs how much
// a latency depends on the particular graph a seed generates, and the
// trimming the few graphs whose plan or intermediate results are far
// off the rest.
class MetricSamples {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    auto [it, inserted] = index_.emplace(name, entries_.size());
    if (inserted) entries_.push_back({name, unit, {}, {}, {}});
    entries_[it->second].current.push_back(value);
  }

  // Closes the current graph's samples.
  void EndGraph() {
    for (Entry& e : entries_) {
      if (e.current.empty()) continue;
      e.graph_medians.push_back(Median(e.current));
      e.pooled.insert(e.pooled.end(), e.current.begin(), e.current.end());
      e.current.clear();
    }
  }

  std::vector<Metric> Values() const {
    std::vector<Metric> out;
    for (const Entry& e : entries_) {
      out.push_back({e.name, InterquartileMean(e.graph_medians), e.unit});
    }
    return out;
  }

  // The last closed graph's medians.
  void PrintLastGraph(int g) const {
    std::printf("# graph %d medians:", g);
    for (const Entry& e : entries_) {
      if (!e.graph_medians.empty()) {
        std::printf(" %s=%.3f", e.name.c_str(), e.graph_medians.back());
      }
    }
    std::printf("\n");
  }

  // Every sample of `name` over all graphs, sorted.
  std::vector<double> Pooled(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) return {};
    std::vector<double> v = entries_[it->second].pooled;
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    std::vector<double> current;
    std::vector<double> pooled;
    std::vector<double> graph_medians;
  };
  std::map<std::string, size_t> index_;
  std::vector<Entry> entries_;
};

std::string QName(const EngineDef& e, int q, const char* rest) {
  return std::string(e.name) + ".q" + std::to_string(q + 1) + rest;
}

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// --- options ----------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = kPinnedSeed;
  double seconds = 50.0;
  bool trace = false;
  double scale = 0.0;  // 0 = the workload's own
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  std::string workload = "ldbc-sf1";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(value, "1") == 0;
      if (!opt->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--scale") {
      opt->scale = std::strtod(value, &end);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) opt->workload = &w;
  }
  return opt->workload != nullptr && opt->seconds > 0.0 && opt->scale >= 0.0;
}

// --- one input graph --------------------------------------------------

gradoop::ldbc::LdbcElements Generate(double scale, uint64_t seed) {
  gradoop::ldbc::LdbcConfig config;
  config.scale_factor = scale;
  config.seed = seed;
  return gradoop::ldbc::LdbcGenerator(config).GenerateElements();
}

gradoop::epgm::LogicalGraph Load(
    const gradoop::dataflow::ExecutionContextPtr& ctx,
    const gradoop::ldbc::LdbcElements& elements) {
  return gradoop::epgm::LogicalGraph::FromVectors(
      ctx, gradoop::epgm::GraphHead(0, "SocialNetwork"), elements.vertices,
      elements.edges);
}

// One query with its parameter bound; `q` is the paper's query index.
struct QueryInstance {
  int q;
  std::string text;
  uint64_t expected = 0;  // match count, set by CheckResults
};

// One input graph's engine and queries.
struct GraphRun {
  gradoop::dataflow::ExecutionContextPtr ctx;
  std::unique_ptr<CypherEngine> engine;
  // Q1-Q6 on the first name, then Q1-Q3 on each further name.
  std::vector<QueryInstance> queries;
};

struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const char* what, int q, const EngineDef& e,
            const std::string& detail) {
    std::fprintf(stderr, "error: %s q%d (%s): %s\n", what, q + 1, e.name,
                 detail.c_str());
    ++failed;
  }

  // Counts one execution; true when it succeeded with `expected` rows.
  template <typename R>
  bool Check(const R& result, uint64_t count, uint64_t expected, int q,
             const EngineDef& e) {
    ++attempted;
    if (!result.ok()) {
      Fail("query failed", q, e, result.status().ToString());
      return false;
    }
    if (count != expected) {
      Fail("wrong match count", q, e, std::to_string(count));
      return false;
    }
    return true;
  }
};

// One untimed Execute per query instance in [begin, end) and engine: the
// match count must equal the pinned one (first name at the pinned seed
// and scale only) and the canonical result hash must agree across
// engines. Stores each instance's expected count.
void CheckResults(GraphRun& run, size_t begin, size_t end,
                  const uint64_t* pinned, Checker* check) {
  for (size_t i = begin; i < end; ++i) {
    QueryInstance& query = run.queries[i];
    uint64_t first_hash = 0;
    for (int e = 0; e < kNumEngines; ++e) {
      SelectEngine(*run.engine, kEngines[e]);
      auto result = run.engine->Execute(query.text);
      const uint64_t count =
          result.ok() ? result.value().embeddings.data.Count() : 0;
      const uint64_t hash =
          result.ok() ? CanonicalHash(result.value().embeddings) : 0;
      if (e == 0) {
        query.expected = pinned != nullptr && i < kNumQueries ? pinned[i]
                                                              : count;
        first_hash = hash;
      }
      if (!check->Check(result, count, query.expected, query.q, kEngines[e]))
        continue;
      if (hash != first_hash) {
        check->Fail("result differs from the first engine's", query.q,
                    kEngines[e], "hash");
        continue;
      }
      if (i < kNumQueries) {
        std::printf("# check q%d %-5s matches=%llu hash=%016llx\n",
                    query.q + 1, kEngines[e].name,
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(hash));
      }
    }
  }
}

// Closed loop, telemetry off: rounds over every (query instance, engine)
// pair, alternating direction so neither engine always runs first, until
// `run_clock` reaches `deadline` (at least one round). Only correct calls
// contribute latency samples.
void TimedRounds(GraphRun& run, const Timer& run_clock, double deadline,
                 Checker* check, MetricSamples* samples) {
  const int pairs = static_cast<int>(run.queries.size()) * kNumEngines;
  for (int round = 0; round == 0 || run_clock.ElapsedSeconds() < deadline;
       ++round) {
    for (int i = 0; i < pairs; ++i) {
      const int k = round % 2 == 0 ? i : pairs - 1 - i;
      const QueryInstance& query = run.queries[k / kNumEngines];
      const EngineDef& e = kEngines[k % kNumEngines];
      SelectEngine(*run.engine, e);
      run.ctx->tracker().Reset();
      Timer timer;
      auto count = run.engine->Count(query.text);
      const double ms = timer.ElapsedMillis();
      if (check->Check(count, count.ok() ? count.value() : 0, query.expected,
                       query.q, e)) {
        samples->Add(QName(e, query.q, "_ms"), "ms", ms);
      }
    }
  }
}

// --- per-layer roll-up ------------------------------------------------

struct OpTimes {
  double scan_ms = 0.0;
  double join_ms = 0.0;
  double expand_ms = 0.0;
};

void SumOperatorTimes(const PhysicalOperator& op, OpTimes* out) {
  const double ms = op.stats().self_wall_sec * 1e3;
  switch (op.op_kind()) {
    case PhysOpKind::kVertexScan:
    case PhysOpKind::kEdgeScan:
      out->scan_ms += ms;
      break;
    case PhysOpKind::kJoin:
    case PhysOpKind::kValueJoin:
      out->join_ms += ms;
      break;
    case PhysOpKind::kExpand:
      out->expand_ms += ms;
      break;
    case PhysOpKind::kFilter:
      break;
  }
  for (const auto& child : op.children()) SumOperatorTimes(*child, out);
}

double MaxQError(const PhysicalOperator& op) {
  double worst = gradoop::telemetry::QError(
      op.estimated_cardinality(), static_cast<double>(op.stats().actual_rows));
  for (const auto& child : op.children()) {
    worst = std::max(worst, MaxQError(*child));
  }
  return worst;
}

// Span time in ms keyed by "<category>/<label suffix after the last
// '/'>", summed over threads.
using SpanRollup = std::map<std::string, double>;

struct SpanCounts {
  size_t task = 0;
  size_t stage = 0;
};

SpanRollup RollUpSpans(const std::vector<gradoop::telemetry::SpanRecord>& spans,
                       SpanCounts* counts) {
  SpanRollup rollup;
  for (const auto& span : spans) {
    const size_t slash = span.name.rfind('/');
    const std::string suffix =
        slash == std::string::npos ? span.name : span.name.substr(slash + 1);
    rollup[std::string(span.category) + "/" + suffix] +=
        span.DurationMicros() * 1e-3;
    if (std::strcmp(span.category, gradoop::telemetry::kCategoryTask) == 0) {
      ++counts->task;
    } else if (std::strcmp(span.category,
                           gradoop::telemetry::kCategoryStage) == 0) {
      ++counts->stage;
    }
  }
  return rollup;
}

double SpanMs(const SpanRollup& rollup, std::initializer_list<const char*> keys) {
  double ms = 0.0;
  for (const char* key : keys) {
    auto it = rollup.find(key);
    if (it != rollup.end()) ms += it->second;
  }
  return ms;
}

// Layer set-up times: the three calls the engine constructor makes,
// each timed on its own.
void SetupLayers(const gradoop::dataflow::ExecutionContextPtr& ctx,
                 const gradoop::ldbc::LdbcElements& elements, int reps,
                 MetricSamples* samples) {
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    gradoop::epgm::LogicalGraph graph = Load(ctx, elements);
    samples->Add("epgm.from_vectors_s", "s", timer.ElapsedSeconds());
    timer.Restart();
    gradoop::epgm::IndexedLogicalGraph indexed =
        gradoop::epgm::IndexedLogicalGraph::Build(graph);
    samples->Add("epgm.index_build_s", "s", timer.ElapsedSeconds());
    timer.Restart();
    gradoop::query::GraphStatistics stats =
        gradoop::query::GraphStatistics::Compute(graph);
    samples->Add("query.statistics_s", "s", timer.ElapsedSeconds());
  }
}

// One traced round: every (query instance, engine) pair runs once
// untraced (operator times, CPU use, shuffle bytes, memory, Q-error) and
// once traced (span roll-up); both are correctness-checked.
void TracedRound(GraphRun& run, Checker* check, MetricSamples* samples,
                 SpanCounts* counts, bool print) {
  static const char* const kPhases[] = {"parse", "analyze", "plan",
                                        "compile"};
  gradoop::dataflow::ExecutionContext& ctx = *run.ctx;
  double phase_ms[kNumEngines][4] = {};
  double untraced_ms[kNumEngines] = {};
  double traced_ms[kNumEngines] = {};
  for (const QueryInstance& query : run.queries) {
    const int q = query.q;
    for (int e = 0; e < kNumEngines; ++e) {
      const EngineDef& def = kEngines[e];
      SelectEngine(*run.engine, def);
      auto rows = [](const auto& result) {
        return result.ok() ? result.value().embeddings.data.Count() : 0;
      };

      ctx.tracker().Reset();
      const double cpu0 = CpuSeconds();
      Timer timer;
      auto plain = run.engine->Execute(query.text);
      const double wall = timer.ElapsedSeconds();
      const double cpu = CpuSeconds() - cpu0;
      if (!check->Check(plain, rows(plain), query.expected, q, def)) continue;
      const CypherMatchResult& r = plain.value();
      untraced_ms[e] += wall * 1e3;
      for (const auto& phase : r.phases) {
        for (int p = 0; p < 4; ++p) {
          if (phase.name == kPhases[p]) phase_ms[e][p] += phase.wall_sec * 1e3;
        }
      }
      OpTimes ops;
      SumOperatorTimes(*r.physical, &ops);
      samples->Add(QName(def, q, ".op.scan_ms"), "ms", ops.scan_ms);
      samples->Add(QName(def, q, ".op.join_ms"), "ms", ops.join_ms);
      if (q == 1 || q == 2) {
        samples->Add(QName(def, q, ".op.expand_ms"), "ms", ops.expand_ms);
      }
      samples->Add(QName(def, q, ".dataflow.cores_busy"), "cores", cpu / wall);
      samples->Add(QName(def, q, ".dataflow.shuffle_bytes"), "bytes",
                   static_cast<double>(ctx.tracker().NetworkBytes()));
      samples->Add(QName(def, q, ".memory.peak_bytes"), "bytes",
                   static_cast<double>(r.physical->stats().actual_peak_bytes));
      if (e == 0) {
        samples->Add("q" + std::to_string(q + 1) + ".planner.max_qerror",
                     "ratio", MaxQError(*r.physical));
      }

      ctx.tracker().Reset();
      ctx.EnableTelemetry();
      ctx.telemetry().ResetData();
      timer.Restart();
      auto traced = run.engine->Execute(query.text);
      const double traced_wall = timer.ElapsedSeconds();
      const auto spans = ctx.telemetry().tracer().CollectSpans();
      ctx.DisableTelemetry();
      if (!check->Check(traced, rows(traced), query.expected, q, def)) continue;
      traced_ms[e] += traced_wall * 1e3;
      const SpanRollup rollup = RollUpSpans(spans, counts);
      samples->Add(QName(def, q, ".stage.exchange_ms"), "ms",
                   SpanMs(rollup, {"stage/Shuffle", "stage/Broadcast"}));
      samples->Add(QName(def, q, ".stage.build_probe_ms"), "ms",
                   SpanMs(rollup, {"task/BuildProbe"}));
      if (q == 1 || q == 2) {
        samples->Add(QName(def, q, ".stage.expand_ms"), "ms",
                     SpanMs(rollup, {"task/ExpandInit", "task/ExpandEmit",
                                     "task/ExpandEmitZero"}));
      }
      if (def.converts) {
        samples->Add(QName(def, q, ".stage.convert_ms"), "ms",
                     SpanMs(rollup, {"task/BatchesToRows",
                                     "task/RowsToBatches"}));
      }
      if (print) {
        std::printf("# spans q%d %-5s", q + 1, def.name);
        for (const auto& [key, ms] : rollup) {
          if (ms >= 0.05) std::printf(" %s=%.2f", key.c_str(), ms);
        }
        std::printf("\n");
      }
    }
  }
  for (int e = 0; e < kNumEngines; ++e) {
    const std::string prefix = kEngines[e].name;
    samples->Add(prefix + ".cypher.parse_ms", "ms", phase_ms[e][0]);
    samples->Add(prefix + ".analysis.analyze_ms", "ms", phase_ms[e][1]);
    samples->Add(prefix + ".query.plan_ms", "ms", phase_ms[e][2]);
    samples->Add(prefix + ".query.exec.compile_ms", "ms", phase_ms[e][3]);
    samples->Add(prefix + ".telemetry.trace_overhead", "ratio",
                 untraced_ms[e] > 0.0 ? traced_ms[e] / untraced_ms[e] : 0.0);
  }
}

void TracedRounds(GraphRun& run, const Timer& run_clock, double deadline,
                  Checker* check, MetricSamples* samples, bool print) {
  SpanCounts counts;
  int rounds = 0;
  do {
    TracedRound(run, check, samples, &counts, print && rounds == 0);
    ++rounds;
  } while (run_clock.ElapsedSeconds() < deadline);
  std::printf("# traced rounds=%d task_spans=%zu stage_spans=%zu\n", rounds,
              counts.task, counts.stage);
}

// Per-query table: the gated value next to the pooled sample count,
// median, highest percentile with at least ten samples above it, and
// range.
void PrintLatencyTable(const MetricSamples& samples,
                       const std::vector<Metric>& values) {
  std::printf("# %-12s %10s %6s %10s %6s %10s %10s %10s\n", "metric", "value",
              "n", "median", "pct", "pct_ms", "min_ms", "max_ms");
  for (const Metric& m : values) {
    if (std::strcmp(m.unit, "ms") != 0) continue;
    const std::vector<double> v = samples.Pooled(m.name);
    const size_t n = v.size();
    char pct[16] = "-", pct_ms[32] = "-";
    if (n >= 20) {
      std::snprintf(pct, sizeof(pct), "p%zu", 100 * (n - 10) / n);
      std::snprintf(pct_ms, sizeof(pct_ms), "%.3f", v[n - 11]);
    }
    std::printf("# %-12s %10.3f %6zu %10.3f %6s %10s %10.3f %10.3f\n",
                m.name.c_str(), m.value, n, Median(v), pct, pct_ms,
                n ? v.front() : 0.0, n ? v.back() : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: ldbc_wallbench --workload ldbc-sf1|ldbc-sf1-highsel|"
                 "ldbc-sf10|ldbc-sf1-lowsel [--seed N] [--seconds S] "
                 "[--trace 0|1] "
                 "[--scale SF]\n");
    return 2;
  }
  std::string why;
  if (!TimingsTrustworthy(&why)) {
    std::fprintf(stderr, "refusing to measure: %s\n", why.c_str());
    return 2;
  }
  const Workload& workload = *opt.workload;
  const double scale = opt.scale > 0.0 ? opt.scale : workload.scale;
  const int graphs = workload.graphs;
  // Set-up is repeated for a steady median, except where one copy of
  // the graph costs gigabytes.
  const int setup_reps = scale > 2.0 ? 1 : 15;

  gradoop::dataflow::ClusterConfig cluster;
  cluster.num_workers = kSimulatedWorkers;
  cluster.host_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::printf(
      "# identity workload=%s seed=%llu graphs=%d names=%d scale=%g "
      "git_sha=%s build_type=%s nproc=%u pool_threads=%d "
      "simulated_workers=%d trace=%d\n",
      workload.name, static_cast<unsigned long long>(opt.seed), graphs,
      workload.names, scale, gradoop::kBuildGitSha, gradoop::kBuildType,
      std::thread::hardware_concurrency(), cluster.host_threads,
      cluster.num_workers, opt.trace ? 1 : 0);

  Checker check;
  MetricSamples samples;
  // Graph g's rounds end once the run has used g+1 shares of --seconds,
  // so its generation, set-up and check come out of its own share.
  const Timer run_clock;
  for (int g = 0; g < graphs; ++g) {
    const double deadline = opt.seconds * (g + 1) / graphs;
    ResetPeakRss();
    GraphRun run;
    run.ctx = gradoop::dataflow::MakeContext(cluster);
    const uint64_t seed = GraphSeed(opt.seed, g);
    Timer timer;
    const gradoop::ldbc::LdbcElements elements = Generate(scale, seed);
    // A per-layer metric rather than a gated one: single-threaded
    // generation slows by up to a third when the shared host is busy, more
    // than the queries do, so its spread from run to run sits near the
    // gate's largest bound.
    if (opt.trace) {
      samples.Add("ldbc.generate_s", "s", timer.ElapsedSeconds());
    }
    const std::vector<std::string> names =
        PickNames(elements, workload.selectivity, workload.names);
    for (size_t n = 0; n < names.size(); ++n) {
      for (int q = 0; q < (n == 0 ? kNumQueries : kNamedQueries); ++q) {
        run.queries.push_back({q, QueryText(q, names[n])});
      }
    }
    for (int r = 0; r < setup_reps; ++r) {
      run.engine.reset();
      timer.Restart();
      run.engine = std::make_unique<CypherEngine>(Load(run.ctx, elements));
      if (!opt.trace) samples.Add("setup_s", "s", timer.ElapsedSeconds());
    }
    std::printf("# graph %d seed=%llu vertices=%zu edges=%zu first_name=%s",
                g, static_cast<unsigned long long>(seed),
                elements.vertices.size(), elements.edges.size(),
                names[0].c_str());
    for (size_t n = 1; n < names.size(); ++n) {
      std::printf("%s%s", n == 1 ? " more_names=" : ",", names[n].c_str());
    }
    std::printf("\n");

    const bool pinned = seed == kPinnedSeed && scale == workload.scale;
    CheckResults(run, 0, kNumQueries, pinned ? workload.pinned : nullptr,
                 &check);
    // Peak memory of generation, set-up and the six paper queries on both
    // engines: the further names would make it the maximum over many
    // intermediate results, which swings from graph to graph. Per graph
    // where /proc allows it, else the process's peak so far.
    if (!opt.trace) samples.Add("peak_rss_mb", "MB", PeakRssMb());
    CheckResults(run, kNumQueries, run.queries.size(), nullptr, &check);
    if (opt.trace) {
      SetupLayers(run.ctx, elements, setup_reps, &samples);
      TracedRounds(run, run_clock, deadline, &check, &samples, g == 0);
    } else {
      TimedRounds(run, run_clock, deadline, &check, &samples);
    }
    samples.EndGraph();
    if (!opt.trace) samples.PrintLastGraph(g);
  }

  const std::vector<Metric> metrics = samples.Values();
  if (!opt.trace) PrintLatencyTable(samples, metrics);
  std::printf("# error_rate=%.6g (%llu of %llu executions failed or wrong)\n",
              check.attempted ? static_cast<double>(check.failed) /
                                    static_cast<double>(check.attempted)
                              : 0.0,
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.attempted));
  std::fflush(stdout);
  PrintResult(check.attempted, check.failed, metrics);
  return check.failed == 0 ? 0 : 1;
}
