// Pins the simulated cost model of the variable-length LDBC queries: the
// paper's figures are computed from these charges, so a change to how
// Expand runs on the host must leave every one of them bit-identical.
// Q2 (replyOf*0..10) and Q3 (replyOf*1..10) run at scale factor 0.05
// (generator seed 42) under both engines with telemetry and memory
// accounting on; the test compares simulated seconds (exactly, as a hex
// float), network bytes, records, each operator's measured peak and the
// shuffle counters against the values below. The wall-clock baseline
// gate tolerates 10% and would let a drift through. Re-capture with
//
//   GRADOOP_PRINT_PARITY=1 ./cost_parity_test
//
// only when a change is meant to alter the cost model.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"

namespace gradoop::query {
namespace {

struct CostFigures {
  double simulated_sec = 0.0;
  uint64_t network_bytes = 0;
  uint64_t records = 0;
  uint64_t shuffle_count = 0;
  uint64_t shuffle_bytes = 0;
  std::vector<uint64_t> operator_peaks;  // pre-order over the plan

  bool operator==(const CostFigures&) const = default;
};

struct ParityCase {
  const char* label;
  std::string query;
  PlannerOptions::ExecutionEngine engine;
  CostFigures expected;
};

void CollectPeaks(const exec::PhysicalOperator& op, std::vector<uint64_t>* out) {
  out->push_back(op.stats().actual_peak_bytes);
  for (const exec::PhysicalOperatorPtr& child : op.children()) {
    CollectPeaks(*child, out);
  }
}

CostFigures Measure(CypherEngine& engine, dataflow::ExecutionContext& ctx,
                    const ParityCase& c) {
  engine.planner_options().engine = c.engine;
  ctx.tracker().Reset();
  ctx.telemetry().ResetData();
  auto result = engine.Execute(c.query);
  EXPECT_TRUE(result.ok()) << c.label << ": " << result.status();
  CostFigures f;
  if (!result.ok() || result.value().physical == nullptr) return f;
  f.simulated_sec = ctx.tracker().SimulatedSeconds();
  f.network_bytes = ctx.tracker().NetworkBytes();
  f.records = ctx.tracker().TotalRecords();
  const telemetry::MetricsSnapshot metrics =
      ctx.telemetry().metrics().Snapshot();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  f.shuffle_count = counter("shuffle.count");
  f.shuffle_bytes = counter("shuffle.bytes");
  CollectPeaks(*result.value().physical, &f.operator_peaks);
  return f;
}

std::string Render(const CostFigures& f) {
  char head[256];
  std::snprintf(head, sizeof(head), "{%a, %llu, %llu, %llu, %llu, {",
                f.simulated_sec,
                static_cast<unsigned long long>(f.network_bytes),
                static_cast<unsigned long long>(f.records),
                static_cast<unsigned long long>(f.shuffle_count),
                static_cast<unsigned long long>(f.shuffle_bytes));
  std::string out = head;
  for (size_t i = 0; i < f.operator_peaks.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(f.operator_peaks[i]);
  }
  return out + "}}";
}

std::vector<ParityCase> Cases() {
  using Engine = PlannerOptions::ExecutionEngine;
  return {
      {"q2_row", ldbc::Query2("Alice"), Engine::kRow,
       {0x1.a460fd9bcca4cp-1, 122699, 9375, 13, 144779,
        {169062, 95251, 95251, 36680, 58571, 27300, 231, 15190}}},
      {"q2_batch", ldbc::Query2("Alice"), Engine::kBatch,
       {0x1.a168512231834p-1, 123938, 6232, 13, 146018,
        {173678, 92656, 92656, 38848, 37348, 16876, 156, 16158}}},
      {"q3_row", ldbc::Query3("Alice"), Engine::kRow,
       {0x1.71c8a6f851e0ap+0, 1036511, 29177, 18, 1211317,
        {558292, 11290, 547002, 547002, 27300, 519702, 8400, 105602, 27300,
         34798, 4922, 27557, 10998, 549}}},
      {"q3_batch", ldbc::Query3("Alice"), Engine::kBatch,
       {0x1.59fa043d7c623p+0, 1073396, 19363, 18, 1248202,
        {567972, 9858, 558114, 558114, 16876, 541238, 3268, 102207, 16876,
         35934, 5290, 19754, 6844, 650}}},
  };
}

TEST(CostParityTest, VariableLengthQueriesChargeThePinnedCosts) {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  auto ctx = dataflow::MakeContext();
  CypherEngine engine(ldbc::LdbcGenerator(cfg).Generate(ctx));
  ctx->EnableTelemetry();
  const bool print = std::getenv("GRADOOP_PRINT_PARITY") != nullptr;
  for (const ParityCase& c : Cases()) {
    const CostFigures actual = Measure(engine, *ctx, c);
    if (print) {
      std::printf("%s %s\n", c.label, Render(actual).c_str());
      continue;
    }
    EXPECT_EQ(actual, c.expected)
        << c.label << "\n  actual:   " << Render(actual)
        << "\n  expected: " << Render(c.expected);
  }
  ctx->DisableTelemetry();
}

}  // namespace
}  // namespace gradoop::query
