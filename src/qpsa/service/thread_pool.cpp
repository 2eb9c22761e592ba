#include "qpsa/service/thread_pool.hpp"

#include <algorithm>

namespace qpsa::service {

namespace {
/// Set for the lifetime of a worker thread's loop; read by sessions via
/// current_workspace_cache() while they drain on that worker.
thread_local core::workspace_cache* g_worker_cache = nullptr;
}  // namespace

thread_pool::thread_pool(std::size_t threads) {
    if (threads == 0)
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    caches_.reserve(threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        caches_.push_back(std::make_unique<core::workspace_cache>());
        core::workspace_cache* cache = caches_.back().get();
        workers_.emplace_back([this, cache] { worker_loop(cache); });
    }
}

thread_pool::~thread_pool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
}

void thread_pool::run_per_worker(
    const std::function<void(std::size_t)>& task) {
    std::size_t pending = workers_.size();
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < workers_.size(); ++i)
        queue_.push_back({&task, i, &pending});
    cv_work_.notify_all();
    cv_done_.wait(lock, [&pending] { return pending == 0; });
}

core::workspace_cache* thread_pool::current_workspace_cache() noexcept {
    return g_worker_cache;
}

void thread_pool::worker_loop(core::workspace_cache* cache) {
    g_worker_cache = cache;
    for (;;) {
        job j{};
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty()) return;
            j = queue_.front();
            queue_.pop_front();
        }
        (*j.task)(j.slot);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--*j.pending == 0) cv_done_.notify_all();
        }
    }
}

}  // namespace qpsa::service
