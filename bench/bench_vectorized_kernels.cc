// Row-vs-batch kernel micro-benchmark (docs/vectorized.md): the same
// query, executed by the row engine and by the columnar batch engine,
// isolating the two vectorized hot paths —
//
//   filter  a selective scan whose residual predicate runs in the
//           select-loop (per-row kernel dispatch vs one pass per batch)
//   probe   the triangle join (per-row key strings and hash probes vs
//           column-sliced key extraction and the u64 probe fast path)
//   mixed   Query 6, joins plus scan sharing-sized intermediates
//   scan    an unfiltered label-alternation scan (Comment|Post) with two
//           projected properties: the per-label datasets read in place,
//           the per-query fixed cost of LDBC Q1 and Q2's message scan
//
// Both engines must return identical match counts; the reported speedup
// is best-of-N *execute-phase* wall clock row/batch — parse, analyze,
// plan and compile are byte-for-byte the same work in both engines and
// would only dilute the kernel comparison. CI archives
// BENCH_vectorized_kernels.json.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

namespace {

using gradoop::bench::JsonReporter;
using gradoop::bench::MiniSf10;
using gradoop::bench::RunResult;

struct Sample {
  uint64_t matches = 0;
  double wall_sec = 0.0;
  double simulated_sec = 0.0;
  uint64_t records = 0;
};

Sample RunBest(gradoop::query::CypherEngine* engine,
               const std::string& query, int iterations) {
  Sample best;
  best.wall_sec = 1e30;
  for (int i = 0; i < iterations; ++i) {
    auto& tracker = engine->graph().context()->tracker();
    tracker.Reset();
    auto result = engine->Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    // The kernel under test is the execute phase; the front-end phases
    // (parse, analyze, plan, compile) are engine-independent.
    double wall = 0.0;
    for (const auto& phase : result.value().phases) {
      if (phase.name == "execute") wall = phase.wall_sec;
    }
    if (wall > 0.0 && wall < best.wall_sec) {
      best.wall_sec = wall;
      best.matches = result.value().embeddings.data.Count();
      best.simulated_sec = tracker.SimulatedSeconds();
      best.records = tracker.TotalRecords();
    }
  }
  return best;
}

}  // namespace

int main() {
  const double sf = MiniSf10();
  const int workers = 4;
  const int iterations = 9;
  JsonReporter reporter("vectorized_kernels");

  gradoop::ldbc::LdbcConfig config;
  config.scale_factor = sf;
  const gradoop::ldbc::LdbcElements elements =
      gradoop::ldbc::LdbcGenerator(config).GenerateElements();
  const std::string first_name = gradoop::ldbc::PickFirstName(
      elements, gradoop::ldbc::Selectivity::kMedium);

  gradoop::dataflow::ClusterConfig cluster;
  cluster.num_workers = workers;
  reporter.set_cluster(cluster);
  auto ctx = gradoop::dataflow::MakeContext(cluster);
  gradoop::epgm::GraphHead head(0, "SocialNetwork");
  auto graph = gradoop::epgm::LogicalGraph::FromVectors(
      ctx, head, elements.vertices, elements.edges);

  gradoop::query::PlannerOptions row_options;
  gradoop::query::PlannerOptions batch_options;
  batch_options.engine =
      gradoop::query::PlannerOptions::ExecutionEngine::kBatch;
  gradoop::query::CypherEngine row_engine(graph, row_options);
  gradoop::query::CypherEngine batch_engine(graph, batch_options);

  struct Kernel {
    const char* name;
    std::string query;
  };
  const Kernel kernels[] = {
      {"filter",
       "MATCH (m:Comment|Post)-[:hasCreator]->(p:Person) "
       "WHERE p.firstName = '" + first_name + "' "
       "RETURN m.creationDate"},
      {"probe", gradoop::ldbc::Query5()},
      {"mixed", gradoop::ldbc::Query6()},
      {"scan", "MATCH (m:Comment|Post) RETURN m.creationDate, m.content"},
  };

  std::printf("%-8s %9s %12s %12s %8s\n", "kernel", "matches", "row [ms]",
              "batch [ms]", "speedup");
  for (const Kernel& kernel : kernels) {
    const Sample row = RunBest(&row_engine, kernel.query, iterations);
    const Sample batch = RunBest(&batch_engine, kernel.query, iterations);
    if (row.matches != batch.matches) {
      std::fprintf(stderr,
                   "%s: engines disagree (row %llu vs batch %llu)\n",
                   kernel.name,
                   static_cast<unsigned long long>(row.matches),
                   static_cast<unsigned long long>(batch.matches));
      return 1;
    }
    const double speedup =
        batch.wall_sec > 0.0 ? row.wall_sec / batch.wall_sec : 0.0;
    std::printf("%-8s %9llu %12.3f %12.3f %7.2fx\n", kernel.name,
                static_cast<unsigned long long>(row.matches),
                row.wall_sec * 1e3, batch.wall_sec * 1e3, speedup);
    char sf_text[32];
    std::snprintf(sf_text, sizeof(sf_text), "%.2f", sf);
    for (const auto& [engine_name, sample] :
         {std::pair<const char*, const Sample&>{"row", row},
          std::pair<const char*, const Sample&>{"batch", batch}}) {
      RunResult result;
      result.matches = sample.matches;
      result.wall_sec = sample.wall_sec;
      result.simulated_sec = sample.simulated_sec;
      result.records = sample.records;
      reporter.Record({{"sf", sf_text},
                       {"workers", std::to_string(workers)},
                       {"kernel", kernel.name},
                       {"engine", engine_name}},
                      result);
    }
  }
  return 0;
}
