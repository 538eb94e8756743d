// Observability-layer tests: Q-error unit behavior, flight-recorder
// retention (byte budget, capacity, newest-kept) and export validity,
// query-log JSONL shape and slow-query flagging, validator rejection of
// malformed artifacts, concurrent recording from parallel threads, the
// match count Count logs on both engines, and the cypher_stats
// aggregation/baseline-diff layer over the six LDBC queries.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/planner.h"
#include "query/query_profile.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/query_log.h"
#include "telemetry/stats_report.h"
#include "telemetry/validate.h"

namespace gradoop {
namespace {

using query::CypherEngine;
using telemetry::BaselineDiffOptions;
using telemetry::BenchRecord;
using telemetry::FlightRecorder;
using telemetry::QueryLog;
using telemetry::QueryLogEntry;
using telemetry::QueryProfile;
using telemetry::StatsInput;

epgm::LogicalGraph LdbcGraph(dataflow::ExecutionContextPtr ctx) {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(std::move(ctx));
}

// A synthetic profile whose retained size is easy to steer: the query
// string dominates ApproxProfileBytes.
QueryProfile PaddedProfile(const std::string& name, size_t pad_bytes) {
  QueryProfile profile;
  profile.name = name;
  profile.query = std::string(pad_bytes, 'q');
  profile.phases.push_back({"execute", 0.001});
  return profile;
}

// --- Q-error units -----------------------------------------------------

TEST(QErrorTest, ExactEstimateIsOne) {
  EXPECT_DOUBLE_EQ(telemetry::QError(35.0, 35.0), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::QError(1.0, 1.0), 1.0);
}

TEST(QErrorTest, SymmetricOverAndUnderestimate) {
  EXPECT_DOUBLE_EQ(telemetry::QError(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(telemetry::QError(100.0, 10.0), 10.0);
}

TEST(QErrorTest, ZeroSafeOnBothSides) {
  // Zero actual rows (an empty operator) and zero/fractional estimates
  // both clamp to 1, so the ratio stays finite and >= 1.
  EXPECT_DOUBLE_EQ(telemetry::QError(50.0, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(telemetry::QError(0.0, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(telemetry::QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::QError(0.25, 0.5), 1.0);
}

// --- flight recorder retention ----------------------------------------

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder recorder;
  recorder.Record(PaddedProfile("q_a", 16));
  recorder.Record(PaddedProfile("q_b", 16));
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<QueryProfile> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "q_a");
  EXPECT_EQ(snapshot[1].name, "q_b");
  EXPECT_GT(recorder.retained_bytes(), 0u);
}

TEST(FlightRecorderTest, EvictsOldestUnderByteBudget) {
  FlightRecorder recorder;
  // Each padded profile costs ~sizeof(QueryProfile) + 4 KiB; a budget of
  // three profiles' worth must evict oldest-first as more arrive.
  const uint64_t one = telemetry::ApproxProfileBytes(PaddedProfile("q", 4096));
  recorder.set_byte_budget(3 * one + one / 2);
  for (int i = 0; i < 8; ++i) {
    recorder.Record(PaddedProfile("q_" + std::to_string(i), 4096));
  }
  EXPECT_LE(recorder.retained_bytes(), recorder.byte_budget());
  EXPECT_GT(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.size() + recorder.dropped(), 8u);
  // The survivors are the newest, still oldest-first.
  const std::vector<QueryProfile> snapshot = recorder.Snapshot();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.back().name, "q_7");
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  }
}

TEST(FlightRecorderTest, NewestEntryIsNeverEvicted) {
  FlightRecorder recorder;
  recorder.set_byte_budget(1);  // below any single profile's size
  recorder.Record(PaddedProfile("q_small", 64));
  recorder.Record(PaddedProfile("q_big", 1 << 16));
  // The big profile alone blows the budget but must survive; only the
  // older entry is evicted.
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.Snapshot()[0].name, "q_big");
  EXPECT_EQ(recorder.dropped(), 1u);
}

TEST(FlightRecorderTest, CapacityBoundsEntryCount) {
  FlightRecorder recorder;
  recorder.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(PaddedProfile("q_" + std::to_string(i), 16));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_EQ(recorder.Snapshot().back().name, "q_9");
}

TEST(FlightRecorderTest, ClearResetsEverything) {
  FlightRecorder recorder;
  recorder.set_capacity(1);
  recorder.Record(PaddedProfile("q_a", 16));
  recorder.Record(PaddedProfile("q_b", 16));
  EXPECT_EQ(recorder.dropped(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.retained_bytes(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, ConcurrentRecordingIsConsistent) {
  FlightRecorder recorder;
  recorder.set_capacity(64);
  QueryLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryProfile profile =
            PaddedProfile("q_" + std::to_string(t), 128 + i);
        log.Record(profile);
        recorder.Record(std::move(profile));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every record landed exactly once: retained + evicted covers all.
  EXPECT_EQ(recorder.size() + recorder.dropped(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(recorder.size(), 64u);
  EXPECT_LE(log.size(), QueryLog::kMaxRetainedLines);
  std::string error;
  for (const std::string& line : log.Lines()) {
    EXPECT_TRUE(telemetry::ValidateQueryLogLine(line, &error)) << error;
  }
}

// --- query log ---------------------------------------------------------

TEST(QueryLogTest, HashIsDeterministicSixteenHex) {
  const std::string hash = telemetry::QueryTextHash("MATCH (n) RETURN n");
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(hash, telemetry::QueryTextHash("MATCH (n) RETURN n"));
  EXPECT_NE(hash, telemetry::QueryTextHash("MATCH (m) RETURN m"));
}

TEST(QueryLogTest, LinesValidateAndSlowFlagFollowsThreshold) {
  QueryProfile profile = PaddedProfile("q_slow", 8);
  profile.total_wall_sec = 0.250;
  profile.max_qerror = 2.5;
  QueryLog log;
  log.Record(profile);  // default threshold 0: never slow
  log.set_slow_threshold_sec(0.100);
  log.Record(profile);  // 250ms >= 100ms: slow
  log.set_slow_threshold_sec(1.0);
  log.Record(profile);  // under threshold again
  const std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 3u);
  std::string error;
  for (const std::string& line : lines) {
    EXPECT_TRUE(telemetry::ValidateQueryLogLine(line, &error)) << error;
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"slow\": false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"slow\": true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"slow\": false"), std::string::npos);
}

TEST(QueryLogTest, SinkFileReceivesLines) {
  const std::string path = ::testing::TempDir() + "query_log_test.jsonl";
  std::remove(path.c_str());
  QueryLog log;
  ASSERT_TRUE(log.SetPath(path).ok());
  log.Record(PaddedProfile("q_a", 8));
  log.Record(PaddedProfile("q_b", 8));
  ASSERT_TRUE(log.SetPath("").ok());  // close the sink
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t count = 0;
  std::string error;
  while (std::getline(in, line)) {
    EXPECT_TRUE(telemetry::ValidateQueryLogLine(line, &error)) << error;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  std::remove(path.c_str());
}

// --- validators reject malformed artifacts -----------------------------

TEST(ValidateTest, RejectsMalformedFlightRecorderExports) {
  std::string error;
  EXPECT_FALSE(telemetry::ValidateFlightRecorderExport("not json", &error));
  EXPECT_FALSE(telemetry::ValidateFlightRecorderExport("[]", &error));
  // Wrong schema version.
  EXPECT_FALSE(telemetry::ValidateFlightRecorderExport(
      R"({"schema_version": 2, "byte_budget": 1, "retained_bytes": 0,)"
      R"( "dropped": 0, "queries": []})",
      &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  // Missing queries array.
  EXPECT_FALSE(telemetry::ValidateFlightRecorderExport(
      R"({"schema_version": 1, "byte_budget": 1, "retained_bytes": 0,)"
      R"( "dropped": 0})",
      &error));
  // A queries element that is not a valid profile.
  EXPECT_FALSE(telemetry::ValidateFlightRecorderExport(
      R"({"schema_version": 1, "byte_budget": 1, "retained_bytes": 0,)"
      R"( "dropped": 0, "queries": [{"name": "q"}]})",
      &error));
  EXPECT_NE(error.find("queries[0]"), std::string::npos);
}

TEST(ValidateTest, RejectsMalformedQueryLogLines) {
  // A valid line to mutate from.
  QueryProfile profile = PaddedProfile("q_ok", 8);
  const std::string good =
      telemetry::QueryLogLine(telemetry::MakeQueryLogEntry(profile, 0.0));
  std::string error;
  ASSERT_TRUE(telemetry::ValidateQueryLogLine(good, &error)) << error;

  EXPECT_FALSE(telemetry::ValidateQueryLogLine("{}", &error));
  EXPECT_FALSE(telemetry::ValidateQueryLogLine("not json", &error));

  // Malformed hash: wrong length / uppercase.
  std::string bad = good;
  const size_t hash_pos = bad.find("\"query_hash\": \"");
  ASSERT_NE(hash_pos, std::string::npos);
  bad.replace(hash_pos + 15, 16, "XYZ");
  EXPECT_FALSE(telemetry::ValidateQueryLogLine(bad, &error));
  EXPECT_NE(error.find("query_hash"), std::string::npos);

  // Unknown engine.
  bad = good;
  const size_t engine_pos = bad.find("\"engine\": \"row\"");
  ASSERT_NE(engine_pos, std::string::npos);
  bad.replace(engine_pos, 15, "\"engine\": \"gpu\"");
  EXPECT_FALSE(telemetry::ValidateQueryLogLine(bad, &error));
  EXPECT_NE(error.find("engine"), std::string::npos);

  // Empty phases.
  bad = good;
  const size_t phases_pos = bad.find("\"phases\": [");
  ASSERT_NE(phases_pos, std::string::npos);
  bad = bad.substr(0, phases_pos) + "\"phases\": []}";
  EXPECT_FALSE(telemetry::ValidateQueryLogLine(bad, &error));
  EXPECT_NE(error.find("phases"), std::string::npos);
}

// --- engine integration ------------------------------------------------

TEST(FlightRecorderEngineTest, RecordsBothEnginesAndExportValidates) {
  auto ctx = dataflow::MakeContext();
  CypherEngine engine(LdbcGraph(ctx));
  ctx->EnableTelemetry();

  ctx->tracker().Reset();
  ctx->telemetry().ResetData();
  auto row = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_TRUE(row.ok()) << row.status();

  engine.planner_options().engine = query::PlannerOptions::ExecutionEngine::kBatch;
  ctx->tracker().Reset();
  ctx->telemetry().ResetData();
  auto batch = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_TRUE(batch.ok()) << batch.status();
  ctx->DisableTelemetry();

  ASSERT_EQ(ctx->flight_recorder().size(), 2u);
  const std::vector<QueryProfile> snapshot = ctx->flight_recorder().Snapshot();
  EXPECT_EQ(snapshot[0].engine, "row");
  EXPECT_EQ(snapshot[1].engine, "batch");
  EXPECT_EQ(snapshot[0].matches, snapshot[1].matches);
  for (const QueryProfile& profile : snapshot) {
    EXPECT_GE(profile.max_qerror, 1.0);
    ASSERT_FALSE(profile.operators.empty());
    for (const telemetry::OperatorProfile& op : profile.operators) {
      EXPECT_GE(op.qerror, 1.0) << op.describe;
    }
    // Plan-quality metrics landed in the profile's own snapshot.
    EXPECT_TRUE(profile.metrics.histograms.count("plan.qerror") > 0);
    EXPECT_TRUE(profile.metrics.gauges.count("plan.qerror.max") > 0);
  }

  std::string error;
  EXPECT_TRUE(telemetry::ValidateFlightRecorderExport(
      ctx->flight_recorder().ExportJson(), &error))
      << error;
  ASSERT_EQ(ctx->query_log().size(), 2u);
  for (const std::string& line : ctx->query_log().Lines()) {
    EXPECT_TRUE(telemetry::ValidateQueryLogLine(line, &error)) << error;
  }
  EXPECT_NE(ctx->query_log().Lines()[1].find("\"engine\": \"batch\""),
            std::string::npos);
}

TEST(FlightRecorderEngineTest, CountLogsTheMatchesExecuteLogs) {
  // Count on the batch engine never builds result rows, so the query log
  // must read the match count the engine carries, not the (empty) rows.
  auto ctx = dataflow::MakeContext();
  CypherEngine engine(LdbcGraph(ctx));
  ctx->EnableTelemetry();
  auto matches_of = [](const std::string& line) {
    const std::string key = "\"matches\": ";
    const size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << line;
    return at == std::string::npos
               ? ~0ull
               : std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
  };
  for (const auto mode : {query::PlannerOptions::ExecutionEngine::kRow,
                          query::PlannerOptions::ExecutionEngine::kBatch}) {
    engine.planner_options().engine = mode;
    auto executed = engine.Execute(ldbc::Query6());
    ASSERT_TRUE(executed.ok()) << executed.status();
    const std::string execute_line = ctx->query_log().Lines().back();
    auto counted = engine.Count(ldbc::Query6());
    ASSERT_TRUE(counted.ok()) << counted.status();
    const std::string count_line = ctx->query_log().Lines().back();
    EXPECT_GT(counted.value(), 0u);
    EXPECT_EQ(matches_of(execute_line),
              executed.value().embeddings.data.Count());
    EXPECT_EQ(matches_of(count_line), matches_of(execute_line));
    EXPECT_EQ(matches_of(count_line), counted.value());
  }
  ctx->DisableTelemetry();
}

TEST(FlightRecorderEngineTest, DisabledTelemetryRecordsNothing) {
  auto ctx = dataflow::MakeContext();
  CypherEngine engine(LdbcGraph(ctx));
  auto result = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx->flight_recorder().size(), 0u);
  EXPECT_EQ(ctx->query_log().size(), 0u);
}

// --- stats report / baseline diff --------------------------------------

TEST(StatsReportTest, PercentileNearestRank) {
  const std::vector<double> values = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(telemetry::Percentile(values, 50), 30.0);
  EXPECT_DOUBLE_EQ(telemetry::Percentile(values, 95), 50.0);
  EXPECT_DOUBLE_EQ(telemetry::Percentile(values, 0), 10.0);
  EXPECT_DOUBLE_EQ(telemetry::Percentile(values, 100), 50.0);
  EXPECT_DOUBLE_EQ(telemetry::Percentile({}, 50), 0.0);
}

TEST(StatsReportTest, ReportOverSixLdbcQueriesFromRecorderExport) {
  auto ctx = dataflow::MakeContext();
  CypherEngine engine(LdbcGraph(ctx));
  ctx->EnableTelemetry();
  const std::string queries[] = {ldbc::Query1("Alice"),
                                 ldbc::Query2("Alice"),
                                 ldbc::Query3("Alice"),
                                 ldbc::Query4(),
                                 ldbc::Query5(),
                                 ldbc::Query6()};
  for (const std::string& query : queries) {
    ctx->tracker().Reset();
    ctx->telemetry().ResetData();
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << query << " -> " << result.status();
  }
  ctx->DisableTelemetry();
  ASSERT_EQ(ctx->flight_recorder().size(), 6u);

  StatsInput input;
  std::string error;
  ASSERT_TRUE(telemetry::IngestStatsArtifact(
      ctx->flight_recorder().ExportJson(), &input, &error))
      << error;
  ASSERT_EQ(input.profiles.size(), 6u);

  const std::string report = telemetry::RenderStatsReport(input, 3);
  EXPECT_NE(report.find("profiles: 6 (row 6, batch 0)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("phase latency [ms]"), std::string::npos);
  EXPECT_NE(report.find("  execute"), std::string::npos);
  EXPECT_NE(report.find("operator self time [ms]"), std::string::npos);
  EXPECT_NE(report.find("operator Q-error"), std::string::npos);
  EXPECT_NE(report.find("worst misestimates"), std::string::npos);
  EXPECT_NE(report.find("qerror="), std::string::npos);
  // --worst 3 caps the misestimate list.
  size_t count = 0, pos = 0;
  while ((pos = report.find("\n  qerror=", pos)) != std::string::npos) {
    ++count;
    pos += 10;
  }
  EXPECT_EQ(count, 3u);
}

BenchRecord MakeBenchRecord(const std::string& mode, const std::string& query,
                            uint64_t matches, double wall_ms,
                            double simulated_sec, uint64_t shuffle_bytes) {
  BenchRecord record;
  record.bench = "ldbc_queries";
  record.params = {{"mode", mode}, {"query", query}, {"sf", "1.00"}};
  record.matches = matches;
  record.wall_ms = wall_ms;
  record.simulated_sec = simulated_sec;
  record.shuffle_bytes = shuffle_bytes;
  return record;
}

TEST(StatsReportTest, RowVsBatchPairingFromBenchRecords) {
  StatsInput input;
  input.bench_records.push_back(
      MakeBenchRecord("default", "Q1", 35, 10.0, 0.5, 1000));
  input.bench_records.push_back(
      MakeBenchRecord("batch", "Q1", 35, 2.0, 0.5, 1000));
  const std::string report = telemetry::RenderStatsReport(input);
  EXPECT_NE(report.find("row vs batch (bench modes)"), std::string::npos);
  EXPECT_NE(report.find("speedup  5.00x"), std::string::npos) << report;
  EXPECT_EQ(report.find("MATCHES DIFFER"), std::string::npos);
}

TEST(StatsReportTest, BaselineDiffGatesRegressions) {
  StatsInput baseline;
  baseline.bench_records.push_back(
      MakeBenchRecord("default", "Q1", 35, 10.0, 0.5, 1000));
  baseline.bench_records.push_back(
      MakeBenchRecord("default", "Q2", 68, 12.0, 0.6, 2000));

  // Identical run: gate passes even with wall-clock noise.
  StatsInput same = baseline;
  same.bench_records[0].wall_ms = 99.0;  // noise, never gates
  std::string report;
  EXPECT_EQ(telemetry::DiffBenchBaseline(baseline, same, {}, &report), 0);
  EXPECT_NE(report.find("baseline diff OK (2 records compared)"),
            std::string::npos)
      << report;

  // Match-count drift is always a failure.
  StatsInput wrong_matches = baseline;
  wrong_matches.bench_records[0].matches = 36;
  report.clear();
  EXPECT_EQ(
      telemetry::DiffBenchBaseline(baseline, wrong_matches, {}, &report), 1);
  EXPECT_NE(report.find("must be identical"), std::string::npos);

  // simulated_sec past tolerance fails; within tolerance passes.
  StatsInput slower = baseline;
  slower.bench_records[1].simulated_sec = 0.6 * 1.25;  // +25% > 10%
  report.clear();
  EXPECT_EQ(telemetry::DiffBenchBaseline(baseline, slower, {}, &report), 1);
  EXPECT_NE(report.find("simulated_sec"), std::string::npos);
  BaselineDiffOptions loose;
  loose.tolerance = 0.50;
  report.clear();
  EXPECT_EQ(telemetry::DiffBenchBaseline(baseline, slower, loose, &report),
            0);

  // Improvements never fail, but suggest refreshing the baseline.
  StatsInput faster = baseline;
  faster.bench_records[0].shuffle_bytes = 100;  // -90%
  report.clear();
  EXPECT_EQ(telemetry::DiffBenchBaseline(baseline, faster, {}, &report), 0);
  EXPECT_NE(report.find("consider refreshing the baseline"),
            std::string::npos);

  // A record missing from the current run is a regression.
  StatsInput missing;
  missing.bench_records.push_back(baseline.bench_records[0]);
  report.clear();
  EXPECT_EQ(telemetry::DiffBenchBaseline(baseline, missing, {}, &report), 1);
  EXPECT_NE(report.find("record missing from current run"),
            std::string::npos);
}

}  // namespace
}  // namespace gradoop
