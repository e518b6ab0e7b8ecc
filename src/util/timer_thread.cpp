#include "util/timer_thread.hpp"

#include "util/thread_name.hpp"

namespace ccpr::util {

void TimerThread::start() {
  std::lock_guard lk(mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] {
    set_thread_name("timer");
    pump();
  });
}

void TimerThread::stop() {
  {
    std::lock_guard lk(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lk(mu_);
  running_ = false;
  while (!queue_.empty()) queue_.pop();
}

void TimerThread::schedule_after(std::int64_t delay_us,
                                 std::function<void()> fn) {
  {
    std::lock_guard lk(mu_);
    queue_.push(Entry{Clock::now() + std::chrono::microseconds(delay_us),
                      next_seq_++, std::move(fn)});
  }
  cv_.notify_all();
}

std::size_t TimerThread::pending() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

void TimerThread::pump() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    if (queue_.empty()) {
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      continue;
    }
    const auto when = queue_.top().when;
    if (Clock::now() < when) {
      cv_.wait_until(lk, when, [this, when] {
        return stopping_ ||
               (!queue_.empty() && queue_.top().when < when);
      });
      continue;
    }
    auto fn = std::move(const_cast<Entry&>(queue_.top()).fn);
    queue_.pop();
    lk.unlock();
    fn();
    lk.lock();
  }
}

}  // namespace ccpr::util
