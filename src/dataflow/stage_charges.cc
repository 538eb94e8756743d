#include "dataflow/stage_charges.h"

#include <algorithm>

namespace gradoop::dataflow {

void ChargeExchange(ExecutionContext& ctx, const std::string& label,
                    const ExchangeTally& tally, double span_begin_us) {
  const auto& cfg = ctx.config();
  StageCost cost;
  cost.label = label + "/Shuffle";
  double worst = 0.0;
  for (const uint64_t n : tally.in_counts) {
    worst = std::max(worst, static_cast<double>(n) * cfg.seconds_per_record);
  }
  cost.compute_sec = worst;
  cost.network_sec = ShuffleSeconds(tally.out_bytes, tally.in_bytes, cfg);
  cost.latency_sec = cfg.stage_latency_sec;
  ctx.tracker().AddStage(cost);
  ctx.tracker().AddNetworkBytes(tally.moved);
  uint64_t total = 0;
  for (const uint64_t n : tally.in_counts) total += n;
  ctx.tracker().AddRecords(total);
  if (ctx.telemetry().enabled()) {
    telemetry::Telemetry& tel = ctx.telemetry();
    tel.tracer().AddSpan(
        cost.label, telemetry::kCategoryStage, span_begin_us,
        tel.tracer().NowMicros(), /*worker=*/-1,
        {{"bytes", static_cast<double>(tally.exchanged)},
         {"remote_bytes", static_cast<double>(tally.moved)},
         {"records", static_cast<double>(total)}});
    tel.metrics().AddCounter("shuffle.count", 1);
    tel.metrics().AddCounter("shuffle.bytes", tally.exchanged);
    tel.metrics().AddCounter("shuffle.bytes.remote", tally.moved);
  }
}

void ChargeBuildProbe(ExecutionContext& ctx, const std::string& stage_label,
                      const BuildProbeTally& tally, uint64_t staged_bytes) {
  const auto& cfg = ctx.config();
  StageCost cost;
  cost.label = stage_label;
  uint64_t total_in = 0, total_out = 0;
  double worst = 0.0;
  for (size_t i = 0; i < tally.work.size(); ++i) {
    worst = std::max(
        worst, static_cast<double>(tally.work[i] + tally.out_counts[i]) *
                   cfg.seconds_per_record);
    total_in += tally.work[i];
    total_out += tally.out_counts[i];
  }
  cost.compute_sec = worst;
  uint64_t spilled = 0;
  cost.spill_sec =
      SpillSeconds(tally.state_bytes, tally.state_records, cfg, &spilled);
  cost.latency_sec = cfg.stage_latency_sec;
  ctx.tracker().AddStage(cost);
  ctx.tracker().AddRecords(total_in + total_out);
  ctx.tracker().AddSpilledBytes(spilled);
  MemoryAccountant& accountant = ctx.accountant();
  if (accountant.enabled()) {
    // The per-worker tables held one entry per build row; charging after
    // the stage still registers the momentary high in the peak.
    uint64_t table_entries = 0;
    for (const uint64_t n : tally.state_records) table_entries += n;
    const uint64_t table_bytes = table_entries * kHashTableEntryBytes;
    accountant.Charge(table_bytes);
    accountant.Release(staged_bytes + table_bytes);
  }
  if (ctx.telemetry().enabled()) {
    auto& metrics = ctx.telemetry().metrics();
    metrics.AddCounter("stage.count", 1);
    metrics.AddCounter("stage.records_in", total_in);
    if (spilled > 0) metrics.AddCounter("spill.bytes", spilled);
    for (const uint64_t n : tally.work) {
      metrics.Observe("stage.partition_records", static_cast<double>(n));
    }
  }
}

}  // namespace gradoop::dataflow
