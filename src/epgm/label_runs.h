#ifndef GRADOOP_EPGM_LABEL_RUNS_H_
#define GRADOOP_EPGM_LABEL_RUNS_H_

#include <map>
#include <string>
#include <vector>

namespace gradoop::epgm {

// Calls visit(slot, rec) for every element of `records`, in order, where
// `slot` is (*by_label)[rec.label]. std::map nodes never move, so the slot
// of the label seen last stays valid and the map is searched only where a
// run of equal labels ends, not once per element. The load-time passes
// (IndexedLogicalGraph::Build, GraphStatistics::Compute) run it once per
// partition, each on its own map.
template <typename Rec, typename Value, typename Visit>
void ForEachByLabel(const std::vector<Rec>& records,
                    std::map<std::string, Value>* by_label, Visit visit) {
  const std::string* label = nullptr;
  Value* slot = nullptr;
  // cancellation: one-time pass at graph load, before any query (and its
  // token) exists.
  for (const Rec& rec : records) {
    if (label == nullptr || rec.label != *label) {
      auto it = by_label->try_emplace(rec.label).first;
      label = &it->first;
      slot = &it->second;
    }
    visit(*slot, rec);
  }
}

}  // namespace gradoop::epgm

#endif  // GRADOOP_EPGM_LABEL_RUNS_H_
