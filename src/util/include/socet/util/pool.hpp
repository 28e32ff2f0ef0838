// Worker-pool machinery.
//
// The planning service (src/service) pulls jobs off a WorkQueue from a
// fixed pool: the batch runner spawns it with run_on_workers, the daemon
// keeps one for its lifetime.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace socet::util {

/// Bounded-by-nothing MPMC work queue: the hand-off between a producer
/// (which enqueues every item up front) and a worker pool.  Standard
/// mutex + condition-variable design; `close()` wakes every blocked
/// consumer once the producer is done so workers drain the tail and exit.
template <typename T>
class WorkQueue {
 public:
  /// Enqueue one item.  Items pushed after close() are rejected.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and drained;
  /// nullopt means "no more work, ever".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// No further pushes; blocked and future pops drain the queue then
  /// return nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Run `body(worker_index)` on `threads` workers and join them all before
/// returning.  `threads <= 1` runs the body inline on the calling thread
/// (index 0) — no thread is spawned, so single-threaded callers keep
/// their exact serial behavior (signal handling, thread names, TLS).
inline void run_on_workers(unsigned threads,
                           const std::function<void(unsigned)>& body) {
  if (threads <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&body, t] { body(t); });
  }
  for (auto& thread : pool) thread.join();
}

}  // namespace socet::util
