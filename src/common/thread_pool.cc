#include "common/thread_pool.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/log.hh"

namespace hetsim
{

unsigned
ThreadPool::jobsFromEnv()
{
    return static_cast<unsigned>(envU64(
        "HETSIM_JOBS", std::max(1u, std::thread::hardware_concurrency()),
        1));
}

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = jobsFromEnv();
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> fn)
{
    std::packaged_task<void()> task(std::move(fn));
    std::future<void> fut = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sim_assert(!stopping_, "submit on a stopping pool");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return fut;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace hetsim
