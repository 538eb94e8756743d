#ifndef GRADOOP_BENCH_BENCH_COMMON_H_
#define GRADOOP_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks. Scale-factor
// mapping (see DESIGN.md): the paper's LDBC SF 10 corresponds to our
// miniature sf = 1.0 and SF 100 to sf = 10.0, preserving the 10x ratio.
// "Workers" is the simulated cluster size of the dataflow cost model
// (1..16, as in the paper); runtimes reported as `sim [s]` are simulated
// distributed execution times under that model, wall-clock is the real
// local multi-threaded execution.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/timer.h"
#include "dataflow/cluster_config.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"

namespace gradoop::bench {

// The miniature stand-ins for the paper's scale factors. A
// GRADOOP_BENCH_SF that is not wholly a finite number > 0 exits 2.
inline double MiniSf10() {
  const char* env = std::getenv("GRADOOP_BENCH_SF");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double sf = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(sf) || sf <= 0.0) {
    std::fprintf(stderr, "GRADOOP_BENCH_SF='%s' is not a finite number > 0\n",
                 env);
    std::exit(2);
  }
  return sf;
}
inline double MiniSf100() { return 10.0 * MiniSf10(); }

inline const char* SfLabel(double sf) {
  return sf >= MiniSf100() ? "SF100*" : "SF10*";
}

struct RunResult {
  uint64_t matches = 0;
  double simulated_sec = 0.0;
  double wall_sec = 0.0;
  uint64_t network_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t records = 0;
  // Shuffle accounting (telemetry counters; zero when the producing
  // benchmark runs without telemetry). `shuffle_bytes` counts every
  // serialized byte entering an exchange, local channels included;
  // elided figures record shuffles the partitioning analysis proved
  // unnecessary (docs/partitioning.md).
  uint64_t shuffle_count = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_elided_count = 0;
  uint64_t shuffle_elided_bytes = 0;
};

// Machine-readable counterpart of each benchmark's console table.
// Collects one record per measurement and writes BENCH_<name>.json into
// the working directory (override the directory with
// GRADOOP_BENCH_JSON_DIR) when flushed or destroyed. Schema (see
// docs/observability.md, "BENCH_*.json"):
//
//   {"bench": "selectivity",                    benchmark name
//    "git_sha": "cfb7e2b",                      commit (configure-time)
//    "build_type": "RelWithDebInfo",
//    "cluster": {"workers": 4,                  last simulated cluster
//                "worker_memory_bytes": 4194304,
//                "network_bytes_per_sec": 25000000.0,
//                "seconds_per_record": 0.00005},
//    "records": [{"params": {"query": "...", "workers": "4"},
//                 "matches": 35, "wall_ms": 1.201,
//                 "simulated_sec": 0.84, "network_bytes": 10284,
//                 "spilled_bytes": 0, "records": 1234}]}
//
// "cluster" is absent until set_cluster is called; per-record worker
// counts live in each record's params (benchmarks sweep them).
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}
  ~JsonReporter() { Flush(); }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  // One measurement; `params` are free-form benchmark coordinates
  // ("query", "workers", "sf", ...).
  void Record(std::map<std::string, std::string> params,
              const RunResult& result) {
    entries_.emplace_back(std::move(params), result);
  }

  // Simulated-cluster shape stamped into the artifact header (the last
  // call before Flush wins; BenchHarness calls this per engine build).
  void set_cluster(const dataflow::ClusterConfig& cluster) {
    cluster_ = cluster;
    has_cluster_ = true;
  }

  void Flush() {
    if (entries_.empty()) return;
    std::string dir = ".";
    if (const char* env = std::getenv("GRADOOP_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "JsonReporter: cannot write '%s'\n",
                   path.c_str());
      return;
    }
    out << "{\"bench\": \"" << Escape(name_) << "\", \"git_sha\": \""
        << Escape(kBuildGitSha) << "\", \"build_type\": \""
        << Escape(kBuildType) << "\", ";
    if (has_cluster_) {
      char rate[32], per_record[32];
      std::snprintf(rate, sizeof(rate), "%.1f",
                    cluster_.network_bytes_per_sec);
      std::snprintf(per_record, sizeof(per_record), "%.8f",
                    cluster_.seconds_per_record);
      out << "\"cluster\": {\"workers\": " << cluster_.num_workers
          << ", \"worker_memory_bytes\": " << cluster_.worker_memory_bytes
          << ", \"network_bytes_per_sec\": " << rate
          << ", \"seconds_per_record\": " << per_record << "}, ";
    }
    out << "\"records\": [";
    bool first_entry = true;
    for (const auto& [params, r] : entries_) {
      out << (first_entry ? "\n" : ",\n") << "  {\"params\": {";
      first_entry = false;
      bool first_param = true;
      for (const auto& [key, value] : params) {
        if (!first_param) out << ", ";
        first_param = false;
        out << "\"" << Escape(key) << "\": \"" << Escape(value) << "\"";
      }
      char wall_ms[32];
      std::snprintf(wall_ms, sizeof(wall_ms), "%.3f", r.wall_sec * 1e3);
      char sim_sec[32];
      std::snprintf(sim_sec, sizeof(sim_sec), "%.6f", r.simulated_sec);
      out << "}, \"matches\": " << r.matches << ", \"wall_ms\": " << wall_ms
          << ", \"simulated_sec\": " << sim_sec
          << ", \"network_bytes\": " << r.network_bytes
          << ", \"spilled_bytes\": " << r.spilled_bytes
          << ", \"records\": " << r.records
          << ", \"shuffle_count\": " << r.shuffle_count
          << ", \"shuffle_bytes\": " << r.shuffle_bytes
          << ", \"shuffle_elided_count\": " << r.shuffle_elided_count
          << ", \"shuffle_elided_bytes\": " << r.shuffle_elided_bytes
          << "}";
    }
    out << "\n]}\n";
    entries_.clear();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

 private:
  static std::string Escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::map<std::string, std::string>, RunResult>>
      entries_;
  dataflow::ClusterConfig cluster_;
  bool has_cluster_ = false;
};

// Engine cache for the current (scale factor, worker count). Only ONE
// engine is held at a time — a full engine at the larger scale factor is
// hundreds of MB (graph + label index + statistics), and the benchmark
// grids would otherwise accumulate ten of them. Benchmarks iterate with
// (sf, workers) as the OUTER loops so eviction stays cheap.
class BenchHarness {
 public:
  // Every Run() is mirrored into `reporter` (params: sf, workers, query)
  // in addition to the caller's console table. Not owned.
  void set_reporter(JsonReporter* reporter) { reporter_ = reporter; }

  query::CypherEngine& Engine(double sf, int workers) {
    const auto key = std::make_pair(sf, workers);
    if (engine_ == nullptr || engine_key_ != key) {
      engine_.reset();  // free the previous engine before building anew
      dataflow::ClusterConfig cluster;
      cluster.num_workers = workers;
      if (reporter_ != nullptr) reporter_->set_cluster(cluster);
      auto ctx = dataflow::MakeContext(cluster);
      const ldbc::LdbcElements& elements = Elements(sf);
      epgm::GraphHead head(0, "SocialNetwork");
      auto graph = epgm::LogicalGraph::FromVectors(
          std::move(ctx), head, elements.vertices, elements.edges);
      engine_ = std::make_unique<query::CypherEngine>(std::move(graph));
      engine_key_ = key;
    }
    return *engine_;
  }

  // Generated elements at scale factor `sf` (generated once, shared by
  // all worker configurations and selectivity lookups).
  const ldbc::LdbcElements& Elements(double sf) {
    auto it = elements_.find(sf);
    if (it == elements_.end()) {
      ldbc::LdbcConfig config;
      config.scale_factor = sf;
      it = elements_
               .emplace(sf, ldbc::LdbcGenerator(config).GenerateElements())
               .first;
    }
    return it->second;
  }

  // firstName realizing `level` at scale factor `sf`.
  const std::string& FirstName(double sf, ldbc::Selectivity level) {
    auto key = std::make_pair(sf, static_cast<int>(level));
    auto it = names_.find(key);
    if (it == names_.end()) {
      it = names_.emplace(key, ldbc::PickFirstName(Elements(sf), level))
               .first;
    }
    return it->second;
  }

  // Runs `query`, measuring the simulated distributed time of exactly
  // this query's dataflow (the engine's tracker is reset first).
  RunResult Run(double sf, int workers, const std::string& query) {
    query::CypherEngine& engine = Engine(sf, workers);
    auto& tracker = engine.graph().context()->tracker();
    tracker.Reset();
    Timer timer;
    auto count = engine.Count(query);
    RunResult result;
    result.wall_sec = timer.ElapsedSeconds();
    if (!count.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   count.status().ToString().c_str());
      std::exit(1);
    }
    result.matches = count.value();
    result.simulated_sec = tracker.SimulatedSeconds();
    result.network_bytes = tracker.NetworkBytes();
    result.spilled_bytes = tracker.SpilledBytes();
    result.records = tracker.TotalRecords();
    if (reporter_ != nullptr) {
      char sf_text[32];
      std::snprintf(sf_text, sizeof(sf_text), "%.2f", sf);
      reporter_->Record({{"sf", sf_text},
                         {"workers", std::to_string(workers)},
                         {"query", query}},
                        result);
    }
    return result;
  }

 private:
  std::unique_ptr<query::CypherEngine> engine_;
  std::pair<double, int> engine_key_{-1.0, -1};
  std::map<double, ldbc::LdbcElements> elements_;
  std::map<std::pair<double, int>, std::string> names_;
  JsonReporter* reporter_ = nullptr;
};

inline const char* QueryLabel(int index) {
  static const char* kLabels[] = {"Query 1", "Query 2", "Query 3",
                                  "Query 4", "Query 5", "Query 6"};
  return kLabels[index];
}

// Queries 1..6 with a given firstName parameter (ignored by Q4-Q6).
inline std::string PaperQuery(int index, const std::string& first_name) {
  switch (index) {
    case 0:
      return ldbc::Query1(first_name);
    case 1:
      return ldbc::Query2(first_name);
    case 2:
      return ldbc::Query3(first_name);
    case 3:
      return ldbc::Query4();
    case 4:
      return ldbc::Query5();
    default:
      return ldbc::Query6();
  }
}

}  // namespace gradoop::bench

#endif  // GRADOOP_BENCH_BENCH_COMMON_H_
