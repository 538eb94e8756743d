#ifndef GRADOOP_TELEMETRY_FLIGHT_RECORDER_H_
#define GRADOOP_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/query_profile.h"

namespace gradoop::telemetry {

// Approximate resident size of one retained profile: the struct itself
// plus every heap payload (strings, phase/operator/worker vectors and
// the metrics snapshot maps). The same byte currency the memory
// accountant uses — an estimate, not malloc truth, but stable enough to
// budget the recorder's footprint against.
uint64_t ApproxProfileBytes(const QueryProfile& profile);

// Bounded in-memory history of executed queries — the engine's "flight
// recorder". The CypherEngine records a QueryProfile here after every
// execution while telemetry is enabled; with telemetry off the engine
// never calls in, so the disabled cost stays the telemetry layer's usual
// single relaxed load (FlightRecorderEngineTest pins that nothing is
// recorded; bench_overheads reports the on/off cost with telemetry).
//
// Retention is a ring: profiles are kept newest-last and evicted
// oldest-first whenever the retained-byte estimate exceeds the byte
// budget or the entry count exceeds the capacity. The newest profile is
// never evicted, so the last query is always inspectable even if it
// alone blows the budget.
//
// Thread safety: all methods lock the recorder's own telemetry-ranked
// mutex, so concurrent queries (ROADMAP, "A reentrant engine") can
// record in parallel. The mutex is a leaf — Record/Snapshot never call
// back into the engine.
class FlightRecorder {
 public:
  static constexpr uint64_t kDefaultByteBudget = 4ull << 20;  // 4 MiB
  static constexpr size_t kDefaultCapacity = 256;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one profile, then evicts oldest-first down to the budgets.
  void Record(QueryProfile profile);

  // Copies of the retained profiles, oldest first.
  std::vector<QueryProfile> Snapshot() const;

  size_t size() const;
  uint64_t retained_bytes() const;
  // Profiles evicted (budget) since construction or the last Clear().
  uint64_t dropped() const;

  void Clear();

  uint64_t byte_budget() const;
  void set_byte_budget(uint64_t bytes);
  size_t capacity() const;
  void set_capacity(size_t entries);

  // Whole-recorder export: {"schema_version": 1, "byte_budget": ...,
  // "retained_bytes": ..., "dropped": ..., "queries": [<profile>, ...]}
  // with each query element a full QueryProfile::ToJson() document.
  // Checked by ValidateFlightRecorderExport (telemetry/validate.h).
  std::string ExportJson() const;

 private:
  struct Entry {
    QueryProfile profile;
    uint64_t bytes = 0;
  };

  void EvictLocked() REQUIRES(mu_);

  mutable common::Mutex mu_{common::LockRank::kTelemetry,
                            "telemetry.flight_recorder"};
  std::deque<Entry> entries_ GUARDED_BY(mu_);
  uint64_t retained_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t byte_budget_ GUARDED_BY(mu_) = kDefaultByteBudget;
  size_t capacity_ GUARDED_BY(mu_) = kDefaultCapacity;
};

// Writes recorder.ExportJson() to `path`; false + *error on I/O failure.
bool WriteFlightRecorderExport(const std::string& path,
                               const FlightRecorder& recorder,
                               std::string* error);

}  // namespace gradoop::telemetry

#endif  // GRADOOP_TELEMETRY_FLIGHT_RECORDER_H_
