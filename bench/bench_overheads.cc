// What each opt-in instrument costs, so every one can be shown to stay
// off the measured path. Two tables drive it:
//
//   query toggles, median wall ms at MiniSf10() and 4 workers (LDBC Q1
//   on the row engine unless noted):
//     telemetry          off | on  (+ spans, flight-recorder entries,
//                                     bytes and evictions)
//     memory_accounting  off | on  (+ accountant peak_bytes)
//     root_finish        execute | count  (LDBC Q6 on the batch engine:
//                                          Execute and counting its rows,
//                                          or Count, which counts the
//                                          root batches in place)
//   micro-loops, median ns per call:
//     cancellation  raw_load | disabled | armed  (CheckCancelled)
//     lock_rank     raw | ranked | checker       (common::Mutex)
//     pool_dispatch trivial | task_10us          (RunAndWait(4, ...) on
//                                                 the engine's pool)
//     join_build_probe  per_build_row | per_probe_row
//     batches_to_rows   per_row
//     value_join_key    per_probe_row
//     expand_hop        per_hop | per_record
//     leaf_scan         comment_post | has_creator | person_filtered
//     load_pass         index_build | statistics
//
// The last five time batch engine kernels per row, record, hop or
// scanned element, not per call. The join and conversion rows run on a one-worker context
// with both join sides adopted, so no exchange runs: a join whose probe
// side is empty prices the build, a join with a small build side prices
// the probe and its merged output, and the value join probes string keys
// that mostly miss, so the keys are what it prices. expand_hop times
// ExpandBatches: per_hop on the engine's worker count with a 4-record
// frontier (a hop's fixed cost: its pool pass and charges), per_record
// on the one-worker context with one hop over 65,536 wide base rows
// (a record's walk, route and emission). leaf_scan times the batch scans
// of LDBC Q1 on the engine's graph and pool, per element of the scanned
// labels: the unfiltered Comment|Post scan projecting two properties,
// the hasCreator edge scan and the Person scan filtered on firstName.
// load_pass times engine set-up's two passes over the engine's graph on
// its pool, per vertex and edge: IndexedLogicalGraph::Build's label split
// and GraphStatistics::Compute.
//
// Modes alternate inside one loop and every round reverses their order,
// so no mode always runs first (cold). Each mode after an overhead's
// first carries `<mode>_ratio` (on_ratio, disabled_ratio, ...) against
// the first. Ratios are reported, never gated; the structural pins live
// in ctest. BENCH_overheads.json holds one record per (overhead, mode):
// wall_ms is the median run (toggles) or median round's loop of
// `records` calls (micro-loops, plus ns_per_op).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>  // raw-baseline only; engine code must use common::Mutex
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/cancellation.h"
#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "cypher/expression.h"
#include "cypher/query_graph.h"
#include "dataflow/execution_context.h"
#include "dataflow/thread_pool.h"
#include "epgm/adjacency_index.h"
#include "epgm/indexed_logical_graph.h"
#include "query/batch_operators.h"
#include "query/graph_statistics.h"

namespace {

using gradoop::bench::JsonReporter;
using gradoop::bench::RunResult;
using gradoop::common::LockRank;
using Params = std::map<std::string, std::string>;
using Figures = std::map<std::string, uint64_t>;

constexpr int kWarmupRounds = 3;
constexpr int kRounds = 15;
constexpr int kWorkers = 4;

// Keeps micro-loop bodies from being optimized away, at no measurable cost.
volatile uint64_t g_sink = 0;

// A per-query switch between two modes, `modes[0]` (off) and `modes[1]`
// (on): `set` flips it before every run, `run` runs `query` once, and
// `observe` folds the finished run's figures into its mode's record.
struct QueryToggle {
  const char* overhead;
  std::array<const char*, 2> modes;
  const std::string& query;
  bool default_on;  // restored once the rounds are done
  std::function<void(bool on)> set;
  std::function<RunResult(bool on)> run;
  std::function<void(Figures*)> observe;
};

// A per-call fast path timed in a tight loop. Each mode runs `iters`
// calls and returns ns/op; the first mode is the baseline.
struct MicroLoop {
  const char* overhead;
  uint64_t iters;
  std::vector<std::pair<std::string, std::function<double(uint64_t)>>> modes;
  Params params = {};  // extra params on every mode's record
};

// One micro-loop mode: times `iters` calls of `op`, returns ns/op.
template <typename Fn>
std::function<double(uint64_t)> NsPerOp(Fn op) {
  return [op](uint64_t iters) {
    gradoop::Timer timer;
    for (uint64_t i = 0; i < iters; ++i) op();
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
  };
}

// One micro-loop mode over a kernel that handles `rows_per_call` rows per
// call: runs enough calls for `iters` rows, returns ns/row.
template <typename Fn>
std::function<double(uint64_t)> NsPerRow(uint64_t rows_per_call, Fn call) {
  return [rows_per_call, call](uint64_t iters) {
    const uint64_t calls = std::max<uint64_t>(1, iters / rows_per_call);
    gradoop::Timer timer;
    for (uint64_t i = 0; i < calls; ++i) call();
    return timer.ElapsedSeconds() * 1e9 /
           static_cast<double>(calls * rows_per_call);
  };
}

// `count` rows of `id_columns` ids and `properties` string properties;
// id column 0 holds key (i % distinct_keys), the rest unique ids.
gradoop::query::BatchSet KernelInput(
    const gradoop::dataflow::ExecutionContextPtr& ctx, const char* prefix,
    uint64_t count, uint64_t distinct_keys, int id_columns, int properties) {
  using gradoop::query::Embedding;
  gradoop::query::EmbeddingMetaData meta;
  for (int c = 0; c < id_columns; ++c) {
    meta.AddIdColumn(c == 0 ? "key" : prefix + std::to_string(c),
                     gradoop::query::EntryType::kVertex);
  }
  for (int c = 0; c < properties; ++c) {
    meta.AddPropertyColumn(prefix + std::string("1"), "p" + std::to_string(c));
  }
  std::vector<Embedding> rows(count);
  for (uint64_t i = 0; i < count; ++i) {
    rows[i].AppendId(i % distinct_keys);
    for (int c = 1; c < id_columns; ++c) rows[i].AppendId(i * 16 + c);
    for (int c = 0; c < properties; ++c) {
      rows[i].AppendProperty(gradoop::epgm::PropertyValue(
          "value " + std::to_string(i % 977)));
    }
  }
  return gradoop::query::RowsToBatches(
      {gradoop::dataflow::Dataset<Embedding>::FromVector(ctx, std::move(rows)),
       meta},
      gradoop::query::exec::kDefaultBatchSize);
}

std::string Fixed(double value, int digits) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return text;
}

// Samples every mode once per round, reversing the order on odd rounds;
// returns each mode's median over the rounds after the warm-up.
template <typename Sample>
std::vector<double> InterleavedMedians(size_t num_modes, Sample&& sample) {
  std::vector<std::vector<double>> samples(num_modes);
  for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
    for (size_t i = 0; i < num_modes; ++i) {
      const size_t mode = round % 2 == 0 ? i : num_modes - 1 - i;
      const double value = sample(mode);
      if (round >= kWarmupRounds) samples[mode].push_back(value);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& values : samples) {
    std::sort(values.begin(), values.end());
    medians.push_back(values[values.size() / 2]);
  }
  return medians;
}

// Records mode `index` of one overhead's `medians` and prints it; every
// mode after the first carries `<mode>_ratio` against the first.
void Report(JsonReporter* reporter, const char* overhead,
            const std::string& mode, size_t index,
            const std::vector<double>& medians, const char* unit,
            Params params, const RunResult& result) {
  std::string ratio = "-";
  if (index > 0) {
    ratio = Fixed(medians[0] > 0.0 ? medians[index] / medians[0] : 0.0, 3);
    params[mode + "_ratio"] = ratio;
  }
  params["overhead"] = overhead;
  params["mode"] = mode;
  reporter->Record(std::move(params), result);
  std::printf("%-18s %-9s %10.3f %-5s %8s\n", overhead, mode.c_str(),
              medians[index], unit, ratio.c_str());
}

}  // namespace

int main() {
  const double sf = gradoop::bench::MiniSf10();
  JsonReporter reporter("overheads");
  gradoop::bench::BenchHarness harness;
  const std::string query = gradoop::ldbc::Query1(
      harness.FirstName(sf, gradoop::ldbc::Selectivity::kMedium));
  const std::string q6 = gradoop::ldbc::Query6();
  gradoop::query::CypherEngine& engine = harness.Engine(sf, kWorkers);
  auto ctx = engine.graph().context();
  const auto run_q1 = [&](bool) { return harness.Run(sf, kWorkers, query); };
  // Q6 on the batch engine, finished as Execute and counting its rows
  // (what Count did before it counted the batch root in place) or as
  // Count. Both charge the tracker the same.
  const auto finish_q6 = [&](bool count) {
    engine.planner_options().engine =
        gradoop::query::PlannerOptions::ExecutionEngine::kBatch;
    ctx->tracker().Reset();
    gradoop::Timer timer;
    RunResult result;
    gradoop::Status status;
    if (count) {
      auto counted = engine.Count(q6);
      status = counted.status();
      if (counted.ok()) result.matches = counted.value();
    } else {
      auto executed = engine.Execute(q6);
      status = executed.status();
      if (executed.ok()) {
        result.matches = executed.value().embeddings.data.Count();
      }
    }
    result.wall_sec = timer.ElapsedSeconds();
    engine.planner_options().engine =
        gradoop::query::PlannerOptions::ExecutionEngine::kRow;
    if (!status.ok()) {
      std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    result.simulated_sec = ctx->tracker().SimulatedSeconds();
    result.network_bytes = ctx->tracker().NetworkBytes();
    result.records = ctx->tracker().TotalRecords();
    return result;
  };
  reporter.set_cluster({.num_workers = kWorkers});

  std::printf("overheads, LDBC at sf %.2f, %d workers, %d rounds + %d "
              "warm-up\n%-18s %-9s %10s %-5s %8s\n", sf, kWorkers, kRounds,
              kWarmupRounds, "overhead", "mode", "median", "", "ratio");

  const QueryToggle toggles[] = {
      {"telemetry", {"off", "on"}, query, false,
       [&](bool on) {
         on ? ctx->EnableTelemetry() : ctx->DisableTelemetry();
         ctx->telemetry().ResetData();
       },
       run_q1,
       // Spans are this run's (set() resets them); the recorder persists,
       // so its change across a run is what that run's mode added.
       [&, seen = Figures{}](Figures* figures) mutable {
         const auto& recorder = ctx->flight_recorder();
         (*figures)["spans"] = ctx->telemetry().tracer().NumSpans();
         const Figures now = {{"recorder_entries", recorder.size()},
                              {"recorder_bytes", recorder.retained_bytes()},
                              {"recorder_evictions", recorder.dropped()}};
         for (const auto& [name, value] : now) {
           (*figures)[name] += value - seen[name];
         }
         seen = now;
       }},
      {"memory_accounting", {"off", "on"}, query, true,
       [&](bool on) { engine.set_account_memory(on); }, run_q1,
       [&](Figures* figures) {
         (*figures)["peak_bytes"] = ctx->accountant().peak_bytes();
       }},
      {"root_finish", {"execute", "count"}, q6, false, [](bool) {},
       finish_q6, [](Figures*) {}},
  };
  for (const QueryToggle& toggle : toggles) {
    Figures figures[2];
    RunResult last[2];
    const std::vector<double> medians = InterleavedMedians(2, [&](size_t on) {
      toggle.set(on == 1);
      last[on] = toggle.run(on == 1);
      toggle.observe(&figures[on]);
      return last[on].wall_sec * 1e3;
    });
    toggle.set(toggle.default_on);
    for (size_t on = 0; on < 2; ++on) {
      Params params = {{"sf", Fixed(sf, 2)},
                       {"workers", std::to_string(kWorkers)},
                       {"query", toggle.query}};
      for (const auto& [name, value] : figures[on]) {
        params[name] = std::to_string(value);
      }
      last[on].wall_sec = medians[on] / 1e3;
      Report(&reporter, toggle.overhead, toggle.modes[on], on, medians, "ms",
             std::move(params), last[on]);
    }
  }

  // ordering: relaxed — bench-local flag, the one load a disabled token
  // is specified to cost (common/cancellation.h).
  std::atomic<bool> raw_flag{false};
  gradoop::common::CancellationToken disabled;
  gradoop::common::CancellationToken armed;  // far deadline, never trips
  armed.SetDeadline(std::chrono::steady_clock::now() + std::chrono::hours(24));
  std::mutex raw_mutex;
  gradoop::common::Mutex ranked(LockRank::kDataflow, "bench.lock_rank");
  int checker_tag = 0;
  // One stage's fork-join round trip on the engine's own pool: four
  // tasks, the worker count the toggles above run with.
  gradoop::dataflow::ThreadPool& pool = ctx->pool();
  const std::function<void(int)> trivial_task = [](int) {};
  const std::function<void(int)> ten_us_task = [](int) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(10);
    while (std::chrono::steady_clock::now() < until) {
    }
  };

  // Batch kernels on their own one-worker context. The join inputs are
  // duplicate-heavy u64 keys: the build-priced join inserts 65,536 rows
  // over 4,096 keys (16 each) and probes with none; the probe-priced join
  // builds 4,096 rows over 1,024 keys (4 each) and probes 65,536 rows over
  // 2,048 keys, half of them hits that merge 4 rows each.
  gradoop::dataflow::ClusterConfig kernel_config;
  kernel_config.num_workers = 1;
  const auto kernel_ctx = gradoop::dataflow::MakeContext(kernel_config);
  constexpr uint64_t kKernelRows = 65'536;
  const gradoop::query::BatchSet big_build =
      KernelInput(kernel_ctx, "r", kKernelRows, 4'096, 2, 0);
  const gradoop::query::BatchSet small_build =
      KernelInput(kernel_ctx, "r", 4'096, 1'024, 2, 0);
  const gradoop::query::BatchSet no_probe =
      KernelInput(kernel_ctx, "l", 0, 1, 2, 0);
  const gradoop::query::BatchSet big_probe =
      KernelInput(kernel_ctx, "l", kKernelRows, 2'048, 2, 0);
  const auto join = [](const gradoop::query::BatchSet& left,
                       const gradoop::query::BatchSet& right) {
    const gradoop::query::BatchSet joined = gradoop::query::JoinBatches(
        left, right, {0}, {0},
        gradoop::query::EmbeddingMetaData::Merge(left.meta, right.meta),
        gradoop::query::MorphismSetting::Neo4j(),
        gradoop::dataflow::JoinStrategy::kRepartition, {},
        {.left_prepartitioned = true, .right_prepartitioned = true},
        gradoop::query::exec::kDefaultBatchSize);
    g_sink = g_sink + joined.data.partition(0).size();
  };
  // The root conversion's shape: 9 id columns, 3 properties.
  const gradoop::query::BatchSet wide =
      KernelInput(kernel_ctx, "v", kKernelRows, kKernelRows, 9, 3);

  // Value-join keys: 65,536 probe rows over 65,536 distinct strings,
  // 1,024 of which the build side holds.
  const auto string_keys = [&](const char* var, uint64_t count,
                               uint64_t stride) {
    gradoop::query::EmbeddingMetaData meta;
    meta.AddIdColumn(var, gradoop::query::EntryType::kVertex);
    meta.AddPropertyColumn(var, "key");
    std::vector<gradoop::query::Embedding> rows(count);
    for (uint64_t i = 0; i < count; ++i) {
      rows[i].AppendId(i);
      rows[i].AppendProperty(gradoop::epgm::PropertyValue(
          "key " + std::to_string(i * stride)));
    }
    return gradoop::query::RowsToBatches(
        {gradoop::dataflow::Dataset<gradoop::query::Embedding>::FromVector(
             kernel_ctx, std::move(rows)),
         meta},
        gradoop::query::exec::kDefaultBatchSize);
  };
  const gradoop::query::BatchSet key_probe = string_keys("l", kKernelRows, 1);
  const gradoop::query::BatchSet key_build = string_keys("r", 1'024, 64);
  const gradoop::query::EmbeddingMetaData key_merged =
      gradoop::query::EmbeddingMetaData::Merge(key_probe.meta,
                                               key_build.meta);
  const auto value_join = [&] {
    const gradoop::query::BatchSet joined = gradoop::query::ValueJoinBatches(
        key_probe, key_build, {0}, {0}, key_merged,
        gradoop::query::MorphismSetting::Neo4j(),
        gradoop::dataflow::JoinStrategy::kRepartition, {},
        {.left_prepartitioned = true, .right_prepartitioned = true},
        gradoop::query::exec::kDefaultBatchSize);
    g_sink = g_sink + joined.data.partition(0).size();
  };

  // Expand over a ring, each vertex with one out-edge, so every hop keeps
  // the frontier's size: 4 records starting at vertices 0..3 (per_hop),
  // or the wide rows above, one per ring vertex (per_record).
  constexpr int kExpandHops = 10;
  const auto ring = [](const gradoop::dataflow::ExecutionContextPtr& on,
                       uint64_t vertices) {
    std::vector<gradoop::epgm::Edge> edges;
    for (uint64_t v = 0; v < vertices; ++v) {
      edges.emplace_back(1'000'000 + v, "next", v, (v + 1) % vertices);
    }
    return gradoop::epgm::AdjacencyIndex::Build(
        gradoop::dataflow::Dataset<gradoop::epgm::Edge>::FromVector(
            on, std::move(edges)),
        /*reverse=*/false);
  };
  gradoop::dataflow::ClusterConfig hop_config;
  hop_config.num_workers = kWorkers;
  const auto hop_ctx = gradoop::dataflow::MakeContext(hop_config);
  const gradoop::epgm::AdjacencyIndex hop_ring = ring(hop_ctx, 1'024);
  const gradoop::query::BatchSet hop_start =
      KernelInput(hop_ctx, "s", 4, 4, 1, 0);
  const gradoop::epgm::AdjacencyIndex wide_ring = ring(kernel_ctx, kKernelRows);
  const auto expand = [](const gradoop::query::BatchSet& input,
                         const gradoop::epgm::AdjacencyIndex& adjacency,
                         int hops) {
    gradoop::query::EmbeddingMetaData meta = input.meta;
    meta.AddIdColumn("path", gradoop::query::EntryType::kPath);
    meta.AddIdColumn("end", gradoop::query::EntryType::kVertex);
    const gradoop::query::BatchSet out = gradoop::query::ExpandBatches(
        input, adjacency, 0, -1, meta, hops, hops,
        gradoop::query::MorphismSetting::Neo4j(), {},
        gradoop::query::exec::kDefaultBatchSize);
    for (int p = 0; p < out.data.num_partitions(); ++p) {
      g_sink = g_sink + out.data.partition(p).size();
    }
  };

  // Q1's leaf scans, read from the engine's label-partitioned store.
  const gradoop::epgm::IndexedLogicalGraph& indexed = engine.indexed_graph();
  const auto elements_in = [](const auto& list) {
    uint64_t n = 0;
    for (int p = 0; p < list.num_partitions(); ++p) {
      n += list.partition(p).size();
    }
    return n;
  };
  gradoop::cypher::QueryVertex message;
  message.variable = "message";
  message.labels = {"Comment", "Post"};
  gradoop::query::EmbeddingMetaData message_meta;
  message_meta.AddIdColumn("message", gradoop::query::EntryType::kVertex);
  message_meta.AddPropertyColumn("message", "creationDate");
  message_meta.AddPropertyColumn("message", "content");
  gradoop::cypher::QueryEdge has_creator;
  has_creator.variable = "e";
  has_creator.types = {"hasCreator"};
  gradoop::query::EmbeddingMetaData has_creator_meta;
  has_creator_meta.AddIdColumn("message", gradoop::query::EntryType::kVertex);
  has_creator_meta.AddIdColumn("e", gradoop::query::EntryType::kEdge);
  has_creator_meta.AddIdColumn("person", gradoop::query::EntryType::kVertex);
  gradoop::cypher::QueryVertex person;
  person.variable = "person";
  person.labels = {"Person"};
  gradoop::query::EmbeddingMetaData person_meta;
  person_meta.AddIdColumn("person", gradoop::query::EntryType::kVertex);
  const std::vector<gradoop::cypher::CnfClause> first_name = {
      {{gradoop::cypher::Expression::Comparison(
          gradoop::cypher::ComparisonOp::kEq,
          gradoop::cypher::Expression::PropertyAccess("person", "firstName"),
          gradoop::cypher::Expression::Literal(harness.FirstName(
              sf, gradoop::ldbc::Selectivity::kMedium)))}}};
  const auto messages = indexed.VerticesOfLabels(message.labels);
  const auto has_creator_edges = indexed.EdgesOfTypes(has_creator.types);
  const auto persons = indexed.VerticesOfLabels(person.labels);
  const uint64_t message_count = elements_in(messages);
  const uint64_t has_creator_count = elements_in(has_creator_edges);
  const uint64_t person_count = elements_in(persons);
  const auto sink_batches = [](const gradoop::query::BatchSet& out) {
    for (int p = 0; p < out.data.num_partitions(); ++p) {
      g_sink = g_sink + out.data.partition(p).size();
    }
  };

  // Set-up's passes over the engine's graph.
  const gradoop::epgm::LogicalGraph& graph = engine.graph();
  const uint64_t graph_elements =
      elements_in(graph.vertices()) + elements_in(graph.edges());

  const MicroLoop loops[] = {
      {"cancellation",
       5'000'000,
       {{"raw_load", NsPerOp([&] {
           if (raw_flag.load(std::memory_order_relaxed)) g_sink = g_sink + 1;
         })},
        {"disabled", NsPerOp([&] {
           if (disabled.CheckCancelled()) g_sink = g_sink + 1;
         })},
        {"armed", NsPerOp([&] {
           if (armed.CheckCancelled()) g_sink = g_sink + 1;
         })}}},
      {"lock_rank",
       500'000,
       {{"raw", NsPerOp([&] {
           raw_mutex.lock();
           g_sink = g_sink + 1;
           raw_mutex.unlock();
         })},
        {"ranked", NsPerOp([&] {
           ranked.lock();
           g_sink = g_sink + 1;
           ranked.unlock();
         })},
        // The checker round trip Debug-tree acquisitions pay on top of
        // "raw", called directly so every build type measures it.
        {"checker", NsPerOp([&] {
           gradoop::common::RankCheckAcquire(LockRank::kDataflow,
                                             "bench.checker", &checker_tag);
           g_sink = g_sink + 1;
           gradoop::common::RankCheckRelease(LockRank::kDataflow,
                                             &checker_tag);
         })}},
       {{"rank_checks_compiled",
         gradoop::common::LockRankCheckingEnabled() ? "1" : "0"}}},
      {"pool_dispatch",
       2'000,
       {{"trivial", NsPerOp([&] { pool.RunAndWait(kWorkers, trivial_task); })},
        {"task_10us",
         NsPerOp([&] { pool.RunAndWait(kWorkers, ten_us_task); })}},
       {{"tasks", std::to_string(kWorkers)},
        {"threads", std::to_string(pool.num_threads())}}},
      {"join_build_probe",
       4 * kKernelRows,
       {{"per_build_row",
         NsPerRow(kKernelRows, [&] { join(no_probe, big_build); })},
        {"per_probe_row",
         NsPerRow(kKernelRows, [&] { join(big_probe, small_build); })}},
       {{"key", "u64"}, {"rows", std::to_string(kKernelRows)}}},
      {"batches_to_rows",
       4 * kKernelRows,
       {{"per_row", NsPerRow(kKernelRows, [&] {
           g_sink = g_sink +
                    gradoop::query::BatchesToRows(wide).data.partition(0)
                        .size();
         })}},
       {{"id_columns", "9"}, {"properties", "3"},
        {"rows", std::to_string(kKernelRows)}}},
      {"value_join_key",
       4 * kKernelRows,
       {{"per_probe_row", NsPerRow(kKernelRows, value_join)}},
       {{"key", "string"}, {"rows", std::to_string(kKernelRows)}}},
      {"expand_hop",
       2'000,
       {{"per_hop", NsPerRow(kExpandHops, [&] {
           expand(hop_start, hop_ring, kExpandHops);
         })}},
       {{"frontier", "4"}, {"hops", std::to_string(kExpandHops)},
        {"workers", std::to_string(kWorkers)}}},
      {"expand_hop",
       4 * kKernelRows,
       {{"per_record", NsPerRow(kKernelRows, [&] {
           expand(wide, wide_ring, 1);
         })}},
       {{"id_columns", "9"}, {"properties", "3"},
        {"rows", std::to_string(kKernelRows)}}},
      {"leaf_scan",
       4 * std::max({message_count, has_creator_count, person_count}),
       {{"comment_post", NsPerRow(message_count, [&] {
           sink_batches(gradoop::query::ScanVerticesBatch(
               messages, message, {}, message_meta, {},
               gradoop::query::exec::kDefaultBatchSize));
         })},
        {"has_creator", NsPerRow(has_creator_count, [&] {
           sink_batches(gradoop::query::ScanEdgesBatch(
               has_creator_edges, has_creator, {},
               gradoop::query::MorphismSetting::Neo4j(), false,
               has_creator_meta, {},
               gradoop::query::exec::kDefaultBatchSize));
         })},
        {"person_filtered", NsPerRow(person_count, [&] {
           sink_batches(gradoop::query::ScanVerticesBatch(
               persons, person, first_name, person_meta, {},
               gradoop::query::exec::kDefaultBatchSize));
         })}},
       {{"sf", Fixed(sf, 2)},
        {"workers", std::to_string(kWorkers)},
        {"comment_post_elements", std::to_string(message_count)},
        {"has_creator_elements", std::to_string(has_creator_count)},
        {"person_elements", std::to_string(person_count)}}},
      {"load_pass",
       4 * graph_elements,
       {{"index_build", NsPerRow(graph_elements, [&] {
           const auto split = gradoop::epgm::IndexedLogicalGraph::Build(graph);
           g_sink = g_sink + split.EdgeLabels().size();
         })},
        {"statistics", NsPerRow(graph_elements, [&] {
           const auto stats = gradoop::query::GraphStatistics::Compute(graph);
           g_sink = g_sink + stats.distinct_source_count();
         })}},
       {{"sf", Fixed(sf, 2)},
        {"workers", std::to_string(kWorkers)},
        {"elements", std::to_string(graph_elements)},
        {"threads", std::to_string(pool.num_threads())}}},
  };
  for (const MicroLoop& loop : loops) {
    const std::vector<double> medians = InterleavedMedians(
        loop.modes.size(),
        [&](size_t mode) { return loop.modes[mode].second(loop.iters); });
    for (size_t mode = 0; mode < loop.modes.size(); ++mode) {
      Params params = loop.params;
      params["ns_per_op"] = Fixed(medians[mode], 2);
      const RunResult result{
          .wall_sec = medians[mode] * 1e-9 * static_cast<double>(loop.iters),
          .records = loop.iters};
      Report(&reporter, loop.overhead, loop.modes[mode].first, mode, medians,
             "ns/op", std::move(params), result);
    }
  }
  return 0;
}
