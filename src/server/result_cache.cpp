#include "server/result_cache.hpp"

#include <stdexcept>
#include <utility>

namespace cube::server {

ResultCache::Lookup ResultCache::acquire(std::uint64_t key) {
  std::unique_lock<std::mutex> lock(mutex_.native());
  for (;;) {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slots_.emplace(key, std::make_shared<Slot>());
      return Lookup{Outcome::Owner, nullptr};
    }
    // Hold the slot by shared_ptr: fail() erases it from the map while
    // waiters are still parked on it.
    std::shared_ptr<Slot> slot = it->second;
    if (slot->state == Slot::State::Ready) {
      // Touch; a probationary entry's first hit promotes it to main.
      lru_.splice(lru_.begin(), slot->probation ? probation_ : lru_,
                  slot->lru);
      slot->probation = false;
      slot->used = ++tick_;
      return Lookup{Outcome::Hit, slot->result};
    }
    cv_.wait(lock, [&] { return slot->state != Slot::State::InFlight; });
    if (slot->state == Slot::State::Ready) {
      return Lookup{Outcome::Coalesced, slot->result};
    }
    // Each waiter throws its own fresh exception object (see fail()).
    slot->rethrow();
    throw std::logic_error("ResultCache::fail rethrow did not throw");
  }
}

std::shared_ptr<const CachedResult> ResultCache::publish(std::uint64_t key,
                                                         CachedResult result) {
  auto shared = std::make_shared<const CachedResult>(std::move(result));
  ts::MutexLock lock(mutex_);
  Slot& slot = *slots_.at(key);  // the caller owns the in-flight slot
  slot.result = shared;
  slot.state = Slot::State::Ready;
  // A key that was on probation before is a repeat: admit it to main.
  const auto ghost = ghosts_.find(key);
  slot.probation = ghost == ghosts_.end();
  if (!slot.probation) forget_locked(ghost);
  std::list<std::uint64_t>& queue = slot.probation ? probation_ : lru_;
  queue.push_front(key);
  slot.lru = queue.begin();
  slot.used = ++tick_;
  ready_bytes_ += slot.result->bytes();
  evict_locked();
  cv_.notify_all();
  return shared;
}

void ResultCache::fail(std::uint64_t key, std::function<void()> rethrow) {
  ts::MutexLock lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return;
  std::shared_ptr<Slot> slot = it->second;
  slot->rethrow = std::move(rethrow);
  slot->state = Slot::State::Failed;
  // Erase now: waiters keep the slot alive through their shared_ptr, and
  // the next acquire() of the key starts a fresh computation.
  slots_.erase(it);
  cv_.notify_all();
}

std::size_t ResultCache::size_bytes() const {
  ts::MutexLock lock(mutex_);
  return ready_bytes_;
}

std::size_t ResultCache::entries() const {
  ts::MutexLock lock(mutex_);
  return lru_.size() + probation_.size();
}

std::uint64_t ResultCache::evictions() const {
  ts::MutexLock lock(mutex_);
  return evictions_;
}

void ResultCache::evict_locked() {
  while (probation_.size() > kProbationEntries) {
    const std::uint64_t key = probation_.back();
    const std::size_t bytes = evict_back_locked(probation_);
    ghost_order_.push_front(key);
    ghosts_[key] = Ghost{ghost_order_.begin(), bytes};
    ghost_bytes_ += bytes;
  }
  while (ready_bytes_ > capacity_bytes_ &&
         !(probation_.empty() && lru_.empty())) {
    const bool from_probation =
        lru_.empty() || (!probation_.empty() &&
                         oldest_use_locked(probation_) <
                             oldest_use_locked(lru_));
    evict_back_locked(from_probation ? probation_ : lru_);
  }
  while (ready_bytes_ + ghost_bytes_ > capacity_bytes_ &&
         !ghost_order_.empty()) {
    forget_locked(ghosts_.find(ghost_order_.back()));
  }
}

void ResultCache::forget_locked(
    std::unordered_map<std::uint64_t, Ghost>::iterator ghost) {
  ghost_bytes_ -= ghost->second.bytes;
  ghost_order_.erase(ghost->second.order);
  ghosts_.erase(ghost);
}

std::uint64_t ResultCache::oldest_use_locked(
    const std::list<std::uint64_t>& queue) const {
  const auto it = slots_.find(queue.back());
  return it == slots_.end() ? 0 : it->second->used;
}

std::size_t ResultCache::evict_back_locked(std::list<std::uint64_t>& queue) {
  const std::uint64_t victim = queue.back();
  std::size_t bytes = 0;
  auto it = slots_.find(victim);
  if (it != slots_.end() && it->second->state == Slot::State::Ready) {
    bytes = it->second->result->bytes();
    ready_bytes_ -= bytes;
    slots_.erase(it);
  }
  queue.pop_back();
  ++evictions_;
  return bytes;
}

}  // namespace cube::server
