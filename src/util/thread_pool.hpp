// Minimal fixed-size thread pool for coarse-grained engine parallelism.
//
// The design-level noise flow runs every per-net cluster solve as a task of
// util::runTaskGraph (util/task_scheduler.hpp), whose worker loops run on
// this pool. The pool is intentionally small and blocking — noise clusters
// are milliseconds-to-seconds of work each, so queue overhead is
// irrelevant; what matters is a clean join.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sna::util {

class ThreadPool {
public:
    /// Spawns `threads` workers; values < 1 are clamped to 1. A pool of
    /// size 1 still runs jobs on its single worker thread.
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /// Enqueue one job. Jobs must not throw; wrap work that can throw (see
    /// runTaskGraph, which captures the first exception and rethrows it).
    void run(std::function<void()> job);

    /// Enqueue a batch of jobs under one lock acquisition and a single
    /// notify_all: a fan-out of N tasks pays one queue round trip instead
    /// of N lock+notify cycles. Same job contract as run().
    void runBatch(std::vector<std::function<void()>> jobs);

    /// Block until every queued and running job has finished.
    void wait();

private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable wake_;   // workers: queue non-empty or stopping
    std::condition_variable idle_;   // waiters: everything drained
    int active_ = 0;
    bool stop_ = false;
};

/// Resolve a requested thread count to a concrete worker count: 0 means
/// "use the machine" (std::thread::hardware_concurrency(), or 1 when the
/// runtime reports 0), negatives clamp to 1, positives pass through. Every
/// consumer of a thread-count option should resolve through here so "auto"
/// means the same thing everywhere.
int resolveThreadCount(int requested);

}  // namespace sna::util
