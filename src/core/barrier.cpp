#include "core/barrier.hpp"

namespace hpccsim {

WorkerPool& WorkerPool::instance() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  exit_.store(true, std::memory_order_release);
  gate_.issue();
  for (std::thread& t : threads_) t.join();
}

std::unique_lock<std::mutex> WorkerPool::acquire(int bands) {
  std::unique_lock<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < bands - 1) {
    const int index = static_cast<int>(threads_.size());
    const std::uint64_t seen = issued_;
    threads_.emplace_back([this, index, seen] { worker_main(index, seen); });
  }
  return lock;
}

void WorkerPool::run_command(int bands, Task task, void* fn) {
  task_ = task;
  fn_ = fn;
  bands_ = bands;
  gate_.issue();
  ++issued_;
  task(fn, 0);
  gate_.join(static_cast<int>(threads_.size()));
}

void WorkerPool::worker_main(int index, std::uint64_t seen) {
  for (;;) {
    seen = gate_.await_command(seen);
    if (exit_.load(std::memory_order_acquire)) return;
    if (index + 1 < bands_) task_(fn_, index + 1);
    gate_.complete();
  }
}

}  // namespace hpccsim
