#ifndef CDI_SERVE_SINGLE_FLIGHT_H_
#define CDI_SERVE_SINGLE_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cdi::serve {

/// What SingleFlightCache::Find saw for a key.
enum class FlightState { kAbsent, kPending, kDone };

/// Compute-once cache. The first caller for a key claims it pending and
/// computes; callers arriving meanwhile attach opaque waiters, handed back
/// when the leader ends the claim; later callers read the done value.
///  - A failure is never retained: Abandon returns the waiters and forgets
///    the key, so the next caller leads afresh.
///  - A claim may be tagged with the (scope, epoch) it answers for. Each
///    scope keeps its latest epoch and an index of its keys: Advance to a
///    newer epoch evicts only that scope's done entries of older epochs,
///    and a claim completing after its epoch was superseded answers its
///    waiters but is not retained.
///  - Pending claims are never evicted. TakeWaiters detaches their waiters
///    so the owner can fail them without waiting for the leaders.
/// Not synchronised: the owner's mutex guards every call, so a claim and
/// what the owner does with it (enqueueing the leader) stay atomic.
/// Waiters are returned, never invoked, so the owner answers them after
/// releasing that mutex.
template <typename Key, typename Value, typename Waiter>
class SingleFlightCache {
 public:
  /// On kDone, `*done` (when non-null) points at the retained value until
  /// the next mutating call.
  FlightState Find(const Key& key, const Value** done = nullptr) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return FlightState::kAbsent;
    if (!it->second.done) return FlightState::kPending;
    if (done != nullptr) *done = &it->second.value;
    return FlightState::kDone;
  }

  /// Follows the pending claim on `key` (requires Find == kPending).
  void Attach(const Key& key, Waiter waiter) {
    entries_.at(key).waiters.push_back(std::move(waiter));
  }

  /// Claims `key` (requires Find == kAbsent); the caller leads and ends
  /// the claim with Complete or Abandon. Untagged claims never go stale.
  void Claim(const Key& key) { entries_.emplace(key, Entry()); }
  void Claim(const Key& key, const std::string& scope, std::uint64_t epoch) {
    Scope& s = scopes_[scope];
    s.keys.insert(key);
    entries_.emplace(key, Entry{false, Value(), {}, &s, epoch});
  }

  /// Ends the claim on `key` with `value`, retained unless the claim's
  /// scope advanced past its epoch meanwhile (`*retained` says which).
  std::vector<Waiter> Complete(const Key& key, Value value,
                               bool* retained = nullptr) {
    if (retained != nullptr) *retained = false;
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) return {};
    Entry& entry = it->second;
    std::vector<Waiter> waiters = std::exchange(entry.waiters, {});
    if (entry.scope != nullptr && entry.scope->latest_epoch > entry.epoch) {
      Erase(it);
      return waiters;
    }
    entry.done = true;
    entry.value = std::move(value);
    if (retained != nullptr) *retained = true;
    return waiters;
  }

  /// Ends the claim on `key` retaining nothing: a failure, a leader that
  /// will never run, or a tier whose values live elsewhere.
  std::vector<Waiter> Abandon(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.done) return {};
    std::vector<Waiter> waiters = std::move(it->second.waiters);
    Erase(it);
    return waiters;
  }

  /// Detaches every pending claim's waiters; the claims stay.
  std::vector<Waiter> TakeWaiters() {
    std::vector<Waiter> taken;
    for (auto& [key, entry] : entries_) {
      for (Waiter& w : entry.waiters) taken.push_back(std::move(w));
      entry.waiters.clear();
    }
    return taken;
  }

  /// Records `epoch` as `scope`'s latest; on a bump, evicts the scope's
  /// done entries of older epochs and returns how many.
  std::size_t Advance(const std::string& scope, std::uint64_t epoch) {
    Scope& s = scopes_[scope];
    if (s.latest_epoch >= epoch) return 0;
    s.latest_epoch = epoch;
    return std::erase_if(s.keys, [&](const Key& key) {
      auto it = entries_.find(key);
      if (!it->second.done || it->second.epoch >= epoch) return false;
      entries_.erase(it);
      return true;
    });
  }

  /// Drops every done entry; returns how many.
  std::size_t EvictDone() {
    return std::erase_if(entries_, [](const auto& kv) {
      const Entry& e = kv.second;
      if (e.done && e.scope != nullptr) e.scope->keys.erase(kv.first);
      return e.done;
    });
  }

  /// Entries held, pending claims included.
  std::size_t size() const { return entries_.size(); }

  /// Sum of `weigh(value)` over the done entries.
  template <typename Weigh>
  std::uint64_t SumDone(Weigh weigh) const {
    std::uint64_t sum = 0;
    for (const auto& [key, entry] : entries_) {
      if (entry.done) sum += weigh(entry.value);
    }
    return sum;
  }

 private:
  struct Scope {
    std::uint64_t latest_epoch = 0;
    std::unordered_set<Key> keys;
  };

  struct Entry {
    bool done = false;
    Value value;
    std::vector<Waiter> waiters;  // while pending
    Scope* scope = nullptr;       // null when untagged
    std::uint64_t epoch = 0;
  };

  void Erase(typename std::unordered_map<Key, Entry>::iterator it) {
    if (it->second.scope != nullptr) it->second.scope->keys.erase(it->first);
    entries_.erase(it);
  }

  std::unordered_map<Key, Entry> entries_;
  /// Never erased, so a late completion under a superseded epoch is still
  /// refused; node-based, so entries' Scope* stay valid.
  std::unordered_map<std::string, Scope> scopes_;
};

}  // namespace cdi::serve

#endif  // CDI_SERVE_SINGLE_FLIGHT_H_
