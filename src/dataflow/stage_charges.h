#ifndef GRADOOP_DATAFLOW_STAGE_CHARGES_H_
#define GRADOOP_DATAFLOW_STAGE_CHARGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/execution_context.h"

namespace gradoop::dataflow {

// The cost-model, accountant and telemetry charges of the two halves of a
// repartition join: the key-directed exchange and the per-worker
// build+probe. Dataset's exchanges and joins charge through these, and so
// does the adjacency-walk Expand hop (query/operators.cc), which prices
// the join it replaces from the same per-worker tallies.

// Per-worker tallies of one key-directed exchange.
struct ExchangeTally {
  explicit ExchangeTally(int p = 0)
      : out_bytes(p, 0), in_bytes(p, 0), in_counts(p, 0) {}

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
