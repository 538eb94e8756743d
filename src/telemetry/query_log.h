#ifndef GRADOOP_TELEMETRY_QUERY_LOG_H_
#define GRADOOP_TELEMETRY_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "telemetry/query_profile.h"

namespace gradoop::telemetry {

// FNV-1a 64-bit hash of the query text, as 16 lowercase hex digits. The
// log records the hash instead of the text so near-identical production
// traffic (ROADMAP, "Network query service") groups by shape without
// shipping user data.
std::string QueryTextHash(const std::string& query);

// One structured query-log record — the line-sized digest of a
// QueryProfile: identity (hash + artifact name), engine, result size,
// wall time per phase and in total, peak memory, shuffle bytes, the
// plan's worst cardinality Q-error, and whether the query crossed the
// slow-query threshold.
struct QueryLogEntry {
  std::string query_hash;
  std::string name;
  std::string engine = "row";
  uint64_t matches = 0;
  double total_wall_sec = 0.0;
  double max_qerror = 0.0;
  uint64_t peak_memory_bytes = 0;
  uint64_t shuffle_bytes = 0;
  bool slow = false;
  // Cancellation attribution: the engine phase during which the query's
  // token was observed tripped and why ("cancelled" | "deadline" |
  // "injected"); both empty for queries that ran to completion, and the
  // JSON fields are omitted so completed-query lines are byte-stable.
  std::string cancelled_phase;
  std::string cancel_reason;
  std::vector<PhaseProfile> phases;
};

// Builds the digest from a profile. `slow_threshold_sec` <= 0 disables
// the slow flag. Peak memory comes from the profile's
// "memory.bytes.peak" gauge (0 when accounting/telemetry was off).
QueryLogEntry MakeQueryLogEntry(const QueryProfile& profile,
                                double slow_threshold_sec);

// Serializes one entry as a single-line JSON object (no trailing
// newline) — the JSONL record format ValidateQueryLogLine checks.
std::string QueryLogLine(const QueryLogEntry& entry);

// Structured JSONL query log. The engine appends one entry per executed
// query while telemetry is enabled; entries are retained in memory
// (bounded, newest-last) and, when a path is set, appended to that file
// one JSON object per line.
//
// Thread safety: one telemetry-ranked leaf mutex, same discipline as the
// flight recorder.
class QueryLog {
 public:
  static constexpr size_t kMaxRetainedLines = 1024;

  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  // Digests `profile` under the current slow threshold and appends it.
  void Record(const QueryProfile& profile);
  void Append(const QueryLogEntry& entry);

  // Retained lines, oldest first.
  std::vector<std::string> Lines() const;
  size_t size() const;
  void Clear();  // drops retained lines; the sink file is untouched

  // Slow-query knob: entries whose total wall time is >= the threshold
  // get "slow": true. <= 0 (the default) never flags.
  double slow_threshold_sec() const;
  void set_slow_threshold_sec(double seconds);

  // JSONL sink file, opened for append; empty path closes the sink.
  // A non-OK status names the path that could not be opened.
  Status SetPath(const std::string& path);

 private:
  mutable common::Mutex mu_{common::LockRank::kTelemetry,
                            "telemetry.query_log"};
  std::deque<std::string> lines_ GUARDED_BY(mu_);
  std::ofstream sink_ GUARDED_BY(mu_);
  double slow_threshold_sec_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace gradoop::telemetry

#endif  // GRADOOP_TELEMETRY_QUERY_LOG_H_
