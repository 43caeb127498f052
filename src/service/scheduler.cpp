#include "lapx/service/scheduler.hpp"

#include <exception>
#include <utility>

namespace lapx::service {

namespace {

std::shared_future<Outcome> resolved(Outcome out) {
  std::promise<Outcome> p;
  p.set_value(std::move(out));
  return p.get_future().share();
}

}  // namespace

BatchScheduler::BatchScheduler(Options opt) : opt_(opt) {
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  if (opt_.executors < 1) opt_.executors = 1;
  executors_.reserve(static_cast<std::size_t>(opt_.executors));
  for (int i = 0; i < opt_.executors; ++i)
    executors_.emplace_back([this] { executor_loop(); });
}

BatchScheduler::~BatchScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : executors_) t.join();
  // Executors drain the queue on stop, but keep a backstop sweep so the
  // shutdown contract (every accepted job resolves) survives refactors.
  drain_queue_resolving();
}

BatchScheduler::Submission BatchScheduler::submit(core::TypeId fingerprint,
                                                  Work work,
                                                  std::int64_t deadline_ms,
                                                  Notify on_ready) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    ++stats_.rejected_busy;
    return {resolved(Outcome{Outcome::Status::kBusy, "shutting down"})};
  }
  if (fingerprint != core::kNoType) {
    if (const auto it = inflight_.find(fingerprint); it != inflight_.end()) {
      ++stats_.coalesced;
      // Still in inflight_, so not yet detached: the waiter is notified
      // with everyone else when the job resolves.
      if (on_ready) it->second->waiters.push_back(std::move(on_ready));
      return {it->second->future};
    }
  }
  if (queue_.size() >= opt_.queue_capacity) {
    ++stats_.rejected_busy;
    return {resolved(Outcome{Outcome::Status::kBusy, "queue full"})};
  }
  auto job = std::make_shared<Job>();
  job->fingerprint = fingerprint;
  job->work = std::move(work);
  job->future = job->promise.get_future().share();
  if (deadline_ms >= 0) {
    job->has_deadline = true;
    job->deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline_ms);
  }
  if (on_ready) job->waiters.push_back(std::move(on_ready));
  queue_.push_back(job);
  if (fingerprint != core::kNoType) inflight_[fingerprint] = job;
  cv_.notify_one();
  return {job->future};
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.queued = queue_.size();
  return out;
}

std::vector<BatchScheduler::Notify> BatchScheduler::detach_locked(Job& job) {
  if (job.fingerprint != core::kNoType) inflight_.erase(job.fingerprint);
  return std::move(job.waiters);
}

void BatchScheduler::resolve(Job& job, std::vector<Notify> waiters,
                             Outcome out) {
  job.promise.set_value(std::move(out));
  for (Notify& notify : waiters) notify();
}

void BatchScheduler::executor_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    std::vector<Notify> waiters;
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) break;
      job = queue_.front();
      queue_.pop_front();
      expired = job->has_deadline &&
                std::chrono::steady_clock::now() > job->deadline;
      if (expired) {
        ++stats_.expired;
        waiters = detach_locked(*job);
      } else {
        ++stats_.executed;
      }
    }
    if (expired) {
      resolve(*job, std::move(waiters),
              Outcome{Outcome::Status::kDeadline, "deadline expired in queue"});
      continue;
    }
    Outcome out;
    try {
      out = job->work();
    } catch (const std::exception& e) {
      out = Outcome{Outcome::Status::kError, e.what()};
    } catch (...) {
      out = Outcome{Outcome::Status::kError, "unknown error"};
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed;
      waiters = detach_locked(*job);
    }
    resolve(*job, std::move(waiters), std::move(out));
  }
  // Stopping: a job enqueued before `stopping_` was set may still be
  // queued (several executors can all wake into this branch).  Abandoning
  // it would leave its waiters hung forever, so drain, resolving each job
  // as busy -- exactly what a submit during shutdown would have seen.
  drain_queue_resolving();
}

void BatchScheduler::drain_queue_resolving() {
  while (true) {
    std::shared_ptr<Job> job;
    std::vector<Notify> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      ++stats_.rejected_busy;
      waiters = detach_locked(*job);
    }
    resolve(*job, std::move(waiters),
            Outcome{Outcome::Status::kBusy, "shutting down"});
  }
}

}  // namespace lapx::service
