// Shared cross-client result cache with in-flight coalescing.
//
// The cache maps a planner cache key (the content-addressed digest of a
// query's root node, src/query/planner.hpp) onto the SERIALIZED result:
// the CUBEBIN2 body bytes and the CUBEMET1 metadata blob bytes that a
// Result frame carries.  Caching the wire bytes rather than Experiment
// objects makes a hit a pure frame write once the query is planned — no
// analysis, no operand reload, no re-serialization — and lets every
// session share one immutable copy through shared_ptr.  Keys are content
// digests, valid forever: nothing ever needs to clear the cache.
//
// Identical concurrent misses COALESCE: the first acquirer of a key
// becomes the owner and computes; later acquirers block on the slot and
// receive the owner's published result (Outcome::Coalesced).  If the
// owner fails, the slot is removed and every waiter throws a fresh copy
// of the owner's error; the next acquirer starts a fresh computation.
//
// Ready entries live in two queues under one byte budget (the 2Q scheme of
// Johnson & Shasha): a new result enters a PROBATION queue, and its first
// hit promotes it to the MAIN least-recently-used queue.  Probation holds
// at most kProbationEntries results and evicts first-in first-out, so a
// stream of one-off queries (every text distinct, as under continuous
// ingest) cycles through it instead of filling the whole budget with
// results nobody asks for again, while an immediate repeat still hits.
// A key evicted from probation is remembered without its result (the
// GHOST list); when it is published again it enters main directly.  The
// ghost list keeps as many keys as the byte budget left over by ready
// entries would have held results, so a query that plain LRU would still
// have cached costs at most one extra miss, then hits again.  Over the
// byte budget the least recently used entry of either queue goes first.
// In-flight slots are never evicted.  All methods are thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_safety.hpp"

namespace cube::server {

/// An immutable, fully serialized query result shared across sessions.
struct CachedResult {
  std::string canonical;              ///< canonical root expression
  std::uint64_t meta_digest = 0;      ///< digest of the metadata blob
  std::shared_ptr<const std::string> meta_blob;  ///< CUBEMET1 bytes
  std::shared_ptr<const std::string> body;       ///< CUBEBIN2 bytes

  [[nodiscard]] std::size_t bytes() const noexcept {
    return canonical.size() + (meta_blob ? meta_blob->size() : 0) +
           (body ? body->size() : 0);
  }
};

class ResultCache {
 public:
  /// How an acquire() resolved — mirrors protocol Served so the service
  /// can report the sharing mode to the client verbatim.
  enum class Outcome {
    Owner,      ///< miss: the caller must compute, then publish() or fail()
    Hit,        ///< a ready entry was served
    Coalesced,  ///< blocked on another caller's in-flight computation
  };

  struct Lookup {
    Outcome outcome = Outcome::Owner;
    /// Set for Hit and Coalesced; null for Owner.
    std::shared_ptr<const CachedResult> result;
  };

  /// Never-hit results retained at most.
  static constexpr std::size_t kProbationEntries = 1024;

  explicit ResultCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks the key up, blocking while another thread owns an in-flight
  /// computation for it.  An Owner outcome OBLIGES the caller to call
  /// publish(key, ...) or fail(key, ...) exactly once — otherwise every
  /// later acquirer of the key blocks forever.  Rethrows the owner's
  /// exception if the computation this call coalesced onto fails.
  /// (The wait loop re-acquires mutex_ through the condition variable,
  /// which the thread-safety analysis cannot follow.)
  [[nodiscard]] Lookup acquire(std::uint64_t key)
      CUBE_NO_THREAD_SAFETY_ANALYSIS;

  /// Completes an owned computation: stores the result, wakes waiters,
  /// and evicts least-recently-used ready entries over the byte budget.
  /// Returns the shared immutable result so the owner can serve it
  /// without a second lookup.
  std::shared_ptr<const CachedResult> publish(std::uint64_t key,
                                              CachedResult result);

  /// Aborts an owned computation: removes the slot and wakes every waiter
  /// currently coalesced onto it; each waiter invokes `rethrow`, which
  /// must throw a FRESHLY CONSTRUCTED exception on every call.  A fresh
  /// object per waiter — rather than one shared exception_ptr — keeps
  /// concurrent what() reads off a shared buffer (std::runtime_error's
  /// internal string is reference-counted regardless of the string ABI,
  /// so sharing one exception across catching threads races its
  /// destruction).
  void fail(std::uint64_t key, std::function<void()> rethrow);

  [[nodiscard]] std::size_t size_bytes() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Slot {
    enum class State { InFlight, Ready, Failed };
    State state = State::InFlight;
    std::shared_ptr<const CachedResult> result;  // Ready
    std::function<void()> rethrow;               // Failed; throws when called
    std::list<std::uint64_t>::iterator lru;      // Ready only
    bool probation = false;  ///< Ready: `lru` points into probation_
    std::uint64_t used = 0;  ///< Ready: tick of the last publish or hit
  };

  /// A key evicted from probation, with the bytes its result held.
  struct Ghost {
    std::list<std::uint64_t>::iterator order;  ///< into ghost_order_
    std::size_t bytes = 0;
  };

  /// Evicts probationary entries beyond kProbationEntries into the ghost
  /// list, then the least recently used ready entries until within
  /// budget, then the oldest ghosts beyond the budget ready entries
  /// leave.
  void evict_locked() CUBE_REQUIRES(mutex_);
  /// Last-use tick of the oldest entry of `queue` (which is non-empty).
  [[nodiscard]] std::uint64_t oldest_use_locked(
      const std::list<std::uint64_t>& queue) const CUBE_REQUIRES(mutex_);
  /// Drops the oldest entry of `queue`; returns its result's bytes.
  std::size_t evict_back_locked(std::list<std::uint64_t>& queue)
      CUBE_REQUIRES(mutex_);
  /// Drops one ghost.
  void forget_locked(
      std::unordered_map<std::uint64_t, Ghost>::iterator ghost)
      CUBE_REQUIRES(mutex_);

  const std::size_t capacity_bytes_;
  mutable ts::Mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> slots_
      CUBE_GUARDED_BY(mutex_);
  /// Most-recently-used first; ready keys hit at least once.
  std::list<std::uint64_t> lru_ CUBE_GUARDED_BY(mutex_);
  /// Newest first; ready keys never hit since publish.
  std::list<std::uint64_t> probation_ CUBE_GUARDED_BY(mutex_);
  /// Keys evicted from probation, newest first, and their ghosts.
  std::list<std::uint64_t> ghost_order_ CUBE_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Ghost> ghosts_ CUBE_GUARDED_BY(mutex_);
  std::size_t ready_bytes_ CUBE_GUARDED_BY(mutex_) = 0;
  std::size_t ghost_bytes_ CUBE_GUARDED_BY(mutex_) = 0;
  std::uint64_t tick_ CUBE_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ CUBE_GUARDED_BY(mutex_) = 0;
};

}  // namespace cube::server
