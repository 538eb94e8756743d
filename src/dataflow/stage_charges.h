#ifndef GRADOOP_DATAFLOW_STAGE_CHARGES_H_
#define GRADOOP_DATAFLOW_STAGE_CHARGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/execution_context.h"

namespace gradoop::dataflow {

// The cost-model, accountant and telemetry charges of a narrow stage and
// of the two halves of a repartition join: the key-directed exchange and
// the per-worker build+probe. Dataset's transformations charge through
// these, and so do DatasetList's multi-input scans, the adjacency-walk
// Expand hop (query/operators.cc), which prices the join it replaces from
// the same per-worker tallies, and the batch root's count
// (query/batch_operators.cc), which prices the conversion it skips.

// Charges the narrow stage `label` from known per-partition record counts:
// compute = slowest worker over (in + out) records, capturing skew, and
// one record per input. With telemetry on, also the stage.* counters and
// the per-partition input-size distribution.
void ChargeNarrow(ExecutionContext& ctx, const char* label,
                  const std::vector<uint64_t>& in_counts,
                  const std::vector<uint64_t>& out_counts);

// Charges the narrow stage `label` where every worker processed an equal
// share of `in_records` (used when per-partition counts are unknown or
// were never materialized, as for a count): compute = (in + out) records
// over the worker count, and one record per input. With telemetry on,
// also the stage.count and stage.records_in counters.
void ChargeUniformNarrow(ExecutionContext& ctx, const char* label,
                         uint64_t in_records, uint64_t out_records);

// Per-worker tallies of one key-directed exchange.
struct ExchangeTally {
  explicit ExchangeTally(int p = 0)
      : out_bytes(p, 0), in_bytes(p, 0), in_counts(p, 0) {}

  // Adds `other`'s tallies (same worker count) to these: the parallel
  // exchange tallies each source task separately and sums them here.
  void Add(const ExchangeTally& other);

  std::vector<uint64_t> out_bytes;  // bytes worker w sends to other workers
  std::vector<uint64_t> in_bytes;   // bytes worker w receives from others
  std::vector<uint64_t> in_counts;  // records entering from worker w
  uint64_t moved = 0;      // bytes that changed workers (network)
  uint64_t exchanged = 0;  // all bytes entering the exchange, local included
};

// Charges the stage `label + "/Shuffle"`: compute (slowest sender),
// network time and bytes, and one record per input. With telemetry on,
// also records the stage span from `span_begin_us` and the shuffle.*
// counters (shuffle.bytes counts `exchanged`, Flink's numBytesOut).
void ChargeExchange(ExecutionContext& ctx, const std::string& label,
                    const ExchangeTally& tally, double span_begin_us);

// Per-worker tallies of one build+probe stage.
struct BuildProbeTally {
  explicit BuildProbeTally(int p = 0)
      : work(p, 0), out_counts(p, 0), state_bytes(p, 0), state_records(p, 0) {}

  std::vector<uint64_t> work;           // probe + build records read
  std::vector<uint64_t> out_counts;     // records emitted
  std::vector<uint64_t> state_bytes;    // build-side bytes held
  std::vector<uint64_t> state_records;  // build-side rows (table entries)
};

// Charges the stage `stage_label` (compute = slowest worker, spill model
// over the build state, records in + out), then the build tables'
// kHashTableEntryBytes per entry to the accountant, and releases those
// together with `staged_bytes` — the staged inputs the caller charged
// before the stage ran.
void ChargeBuildProbe(ExecutionContext& ctx, const std::string& stage_label,
                      const BuildProbeTally& tally, uint64_t staged_bytes);

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_STAGE_CHARGES_H_
