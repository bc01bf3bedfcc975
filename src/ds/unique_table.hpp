#pragma once
// Open-addressed, power-of-two, linear-probing hash map from 64-bit keys
// to 32-bit ids — the unique-table / dedup kernel under all three diagram
// managers and the Friedman–Supowit COMPACT primitive.
//
// Layout is two parallel flat arrays (keys, values); a slot is empty iff
// its value is kEmptySlot, so values must stay below 0xffffffff (node ids
// are dense arena indices, far below that).  There is no per-entry
// deletion — managers clear whole level tables (adjacent-level swap) or
// rebuild them (garbage collection), both of which map to clear()/insert.
//
// The *active* slot count (capacity(), the probe mask + 1) may be smaller
// than the allocated arrays: reset() restarts a table at the size a fresh
// UniqueTable(expected) would have while keeping the larger allocation,
// so a caller running many short-lived dedups (COMPACT) reuses one table.
// Slots past the active count are always empty.
//
// Always-on counters (lookups, hits, probe-length histogram, resizes) are
// cheap relative to the probe itself and are surfaced through each
// manager's Stats; see docs/INTERNALS.md.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "ds/hash.hpp"
#include "obs/metrics.hpp"
#include "rt/fault.hpp"
#include "util/check.hpp"

namespace ovo::ds {

/// Always-on instrumentation for one table (mergeable across tables).
/// A view over the obs registry's ds.unique.* metrics: the fields keep
/// their zero-cost hot-path increments, and merging follows the
/// registry's per-metric policy (all kSum, so a field-wise sum).
struct TableStats {
  std::uint64_t lookups = 0;  ///< find + find_or_insert calls
  std::uint64_t hits = 0;     ///< lookups that found the key
  std::uint64_t inserts = 0;  ///< new entries created
  std::uint64_t resizes = 0;  ///< growth rehashes
  std::uint64_t probes = 0;   ///< total slots inspected by lookups
  /// Probe-length histogram: 1, 2, 3, 4, 5-8, 9-16, 17-32, >32 slots.
  std::uint64_t probe_hist[8] = {};

  /// Accumulates this struct into `l` under the ds.unique.* metric IDs.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kDsUniqueLookups, lookups);
    l.record(obs::Metric::kDsUniqueHits, hits);
    l.record(obs::Metric::kDsUniqueInserts, inserts);
    l.record(obs::Metric::kDsUniqueResizes, resizes);
    l.record(obs::Metric::kDsUniqueProbes, probes);
    for (int i = 0; i < 8; ++i)  // ds.unique.probe_hist.* are contiguous
      l.record(static_cast<obs::Metric>(
                   static_cast<int>(obs::Metric::kDsUniqueProbeHist0) + i),
               probe_hist[i]);
  }
  /// Overwrites this struct from `l`'s ds.unique.* slots.
  void from_ledger(const obs::Ledger& l) {
    lookups = l.get(obs::Metric::kDsUniqueLookups);
    hits = l.get(obs::Metric::kDsUniqueHits);
    inserts = l.get(obs::Metric::kDsUniqueInserts);
    resizes = l.get(obs::Metric::kDsUniqueResizes);
    probes = l.get(obs::Metric::kDsUniqueProbes);
    for (int i = 0; i < 8; ++i)
      probe_hist[i] = l.get(static_cast<obs::Metric>(
          static_cast<int>(obs::Metric::kDsUniqueProbeHist0) + i));
  }

  /// Shard merge.  Every ds.unique.* metric is kSum (asserted below), so
  /// the registry's merge is a field-wise sum; folding directly keeps the
  /// per-compaction merge off the ledger round trip.
  TableStats& operator+=(const TableStats& o) {
    lookups += o.lookups;
    hits += o.hits;
    inserts += o.inserts;
    resizes += o.resizes;
    probes += o.probes;
    for (int i = 0; i < 8; ++i) probe_hist[i] += o.probe_hist[i];
    return *this;
  }

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  double avg_probe_length() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(probes) /
                              static_cast<double>(lookups);
  }
};

/// True iff every registry metric named ds.unique.* merges as kSum —
/// the premise of TableStats::operator+='s field-wise fold.
constexpr bool ds_unique_metrics_are_sums() {
  constexpr std::string_view kPrefix = "ds.unique.";
  for (const obs::MetricInfo& m : obs::kMetricInfo)
    if (std::string_view(m.name).starts_with(kPrefix) &&
        m.agg != obs::Agg::kSum)
      return false;
  return true;
}
static_assert(ds_unique_metrics_are_sums(),
              "TableStats::operator+= sums field-wise: every ds.unique.* "
              "metric must aggregate as kSum");

class UniqueTable {
 public:
  /// Reserved value marking an empty slot; never store it.
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  UniqueTable() = default;
  explicit UniqueTable(std::size_t expected_entries) {
    reserve(expected_entries);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_; }
  const TableStats& stats() const { return stats_; }

  /// Grows capacity so `expected_entries` fit without rehashing.
  void reserve(std::size_t expected_entries) {
    const std::size_t wanted = slots_for(expected_entries);
    if (wanted > slots_) rehash(wanted);
  }

  /// Drops all entries, keeping capacity (and counters).
  void clear() {
    std::fill_n(vals_.begin(), slots_, kEmptySlot);
    size_ = 0;
  }

  /// Restarts the table as a fresh UniqueTable(expected_entries): no
  /// entries, zeroed counters, and the same active slot count — hence the
  /// same probe sequence and ds.unique.* counts for any key sequence.
  /// Clearing touches only the slots active before the call (none when
  /// the table is empty); the arrays are kept, so this allocates only
  /// when more slots are needed than were ever allocated.
  ///
  /// Every reset is one kAlloc fault event, allocating or not — exactly
  /// the one event the fresh table's construction would be — so a fault
  /// sweep sees the same event sequence however a parallel run spreads
  /// its work over per-thread tables.  An injected fault throws before
  /// any state changes.
  void reset(std::size_t expected_entries) {
    rt::fault_alloc_hook();
    if (size_ != 0) clear();
    stats_ = TableStats{};
    const std::size_t wanted = slots_for(expected_entries);
    if (wanted > vals_.size()) relocate(wanted);
    slots_ = wanted;
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  const std::uint32_t* find(std::uint64_t key) const {
    ++stats_.lookups;
    if (slots_ == 0) {
      record_probes(1);
      return nullptr;
    }
    const std::size_t mask = slots_ - 1;
    std::size_t i = mix64(key) & mask;
    std::uint64_t probes = 1;
    while (vals_[i] != kEmptySlot) {
      if (keys_[i] == key) {
        ++stats_.hits;
        record_probes(probes);
        return &vals_[i];
      }
      i = (i + 1) & mask;
      ++probes;
    }
    record_probes(probes);
    return nullptr;
  }

  /// Returns the existing value for `key`, or inserts `value` and returns
  /// it; the bool is true iff the entry was inserted.
  std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t key,
                                                std::uint32_t value) {
    OVO_DCHECK(value != kEmptySlot);
    if (slots_ == 0 || (size_ + 1) * 10 > slots_ * 7)
      rehash(slots_ == 0 ? kMinSlots : slots_ * 2);
    ++stats_.lookups;
    const std::size_t mask = slots_ - 1;
    std::size_t i = mix64(key) & mask;
    std::uint64_t probes = 1;
    while (vals_[i] != kEmptySlot) {
      if (keys_[i] == key) {
        ++stats_.hits;
        record_probes(probes);
        return {vals_[i], false};
      }
      i = (i + 1) & mask;
      ++probes;
    }
    record_probes(probes);
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    ++stats_.inserts;
    return {value, true};
  }

  /// Inserts a key the caller guarantees absent (e.g. re-registering
  /// canonical nodes after a level swap or GC rebuild).
  void insert(std::uint64_t key, std::uint32_t value) {
    const auto [stored, inserted] = find_or_insert(key, value);
    OVO_DCHECK(inserted && stored == value);
    (void)stored;
    (void)inserted;
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  /// Smallest power-of-two slot count keeping load factor under 0.7.
  static std::size_t slots_for(std::size_t entries) {
    std::size_t slots = kMinSlots;
    while (entries * 10 > slots * 7) slots *= 2;
    return slots;
  }

  void record_probes(std::uint64_t probes) const {
    stats_.probes += probes;
    const int bucket = probes <= 4    ? static_cast<int>(probes) - 1
                       : probes <= 8  ? 4
                       : probes <= 16 ? 5
                       : probes <= 32 ? 6
                                      : 7;
    ++stats_.probe_hist[bucket];
  }

  void rehash(std::size_t new_slots) {
    // Fault-injection point: growth is the only allocation this table
    // performs besides reset(), and the hook throws before any state
    // changes, so a simulated allocation failure leaves the table
    // untouched.
    rt::fault_alloc_hook();
    relocate(new_slots);
  }

  /// Moves the entries into fresh arrays with `new_slots` active slots;
  /// the allocation never shrinks below what reset() kept.
  void relocate(std::size_t new_slots) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    const std::size_t old_slots = slots_;
    const std::size_t alloc = std::max(new_slots, old_vals.size());
    keys_.assign(alloc, 0);
    vals_.assign(alloc, kEmptySlot);
    slots_ = new_slots;
    if (size_ != 0) ++stats_.resizes;
    const std::size_t mask = new_slots - 1;
    for (std::size_t j = 0; j < old_slots; ++j) {
      if (old_vals[j] == kEmptySlot) continue;
      std::size_t i = mix64(old_keys[j]) & mask;
      while (vals_[i] != kEmptySlot) i = (i + 1) & mask;
      keys_[i] = old_keys[j];
      vals_[i] = old_vals[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t slots_ = 0;  ///< active slot count (power of two, or 0)
  std::size_t size_ = 0;
  mutable TableStats stats_;
};

}  // namespace ovo::ds
