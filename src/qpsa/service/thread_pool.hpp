// Fixed-size worker pool for the batch scheduler.
//
// Deliberately minimal: run_per_worker() hands one task per worker to the
// pool and blocks until exactly those tasks have finished -- the
// scheduler's pass barrier.  The barrier is per call, not per pool, so
// several threads may run passes on one shared pool at once (a shard
// router's fleet-wide pass beside a shard's own pump()) without waiting
// on each other's work.  Tasks must not call run_per_worker() themselves.
//
// Each worker additionally owns a core::workspace_cache -- the mutable
// per-thread counterpart of the shared immutable plan cache.  A task
// reaches its worker's cache through current_workspace_cache(), so
// sessions drained by that worker reuse hot analysis arenas without any
// locking (the cache never crosses threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qpsa/core/workspace_cache.hpp"

namespace qpsa::service {

class thread_pool {
public:
    /// `threads == 0` selects hardware_concurrency (min 1).
    explicit thread_pool(std::size_t threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    std::size_t size() const noexcept { return workers_.size(); }

    /// Run task(0) .. task(W-1), W = size(), on the pool (queued under
    /// one lock with a single broadcast wake-up) and return once all W
    /// have finished.  Only this call's tasks are waited for: concurrent
    /// callers share the workers but not the barrier.  Tasks must not
    /// throw (workers terminate on escaped exceptions) and must not call
    /// run_per_worker(); the index is a dense per-call slot (deque
    /// affinity), not a thread identity -- one worker may run several
    /// slots of a call when others are busy elsewhere.
    void run_per_worker(const std::function<void(std::size_t)>& task);

    /// The calling pool worker's workspace cache; nullptr on any thread
    /// that is not a pool worker (callers then fall back to private
    /// workspaces, keeping serial paths identical).
    static core::workspace_cache* current_workspace_cache() noexcept;

private:
    /// One queued slot of a run_per_worker() call; `pending` is that
    /// call's count of unfinished slots, on the caller's stack.
    struct job {
        const std::function<void(std::size_t)>* task;
        std::size_t slot;
        std::size_t* pending;
    };

    void worker_loop(core::workspace_cache* cache);

    std::mutex mu_;
    std::condition_variable cv_work_;  ///< signals workers: work or stop
    std::condition_variable cv_done_;  ///< signals callers: a call finished
    std::deque<job> queue_;
    bool stop_ = false;
    /// One workspace cache per worker (stable addresses; owned here so
    /// arenas outlive every task the worker will ever run).
    std::vector<std::unique_ptr<core::workspace_cache>> caches_;
    std::vector<std::thread> workers_;
};

}  // namespace qpsa::service
