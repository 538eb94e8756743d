#include "dataflow/thread_pool.h"

#include <algorithm>

namespace gradoop::dataflow {

using common::MutexLock;

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::set_task_hook(TaskHook hook) {
  MutexLock lock(mu_);
  task_hook_ = std::move(hook);
}

int ThreadPool::pending_tasks() const {
  MutexLock lock(mu_);
  return pending_;
}

void ThreadPool::RunTask(const Batch& batch, int index) {
  if (*batch.hook) {
    TaskTiming timing;
    timing.label = batch.label;
    timing.task_index = index;
    timing.begin = std::chrono::steady_clock::now();
    (*batch.task)(index);
    timing.end = std::chrono::steady_clock::now();
    (*batch.hook)(timing);
  } else {
    (*batch.task)(index);
  }
}

int ThreadPool::ClaimLocked(Batch* batch) {
  if (batch->next == batch->n) return -1;
  const int index = batch->next++;
  if (batch->next == batch->n) {
    batches_.erase(std::find(batches_.begin(), batches_.end(), batch));
  }
  return index;
}

void ThreadPool::FinishLocked(Batch* batch) {
  --pending_;
  if (++batch->finished == batch->n) batch_done_.notify_all();
}

void ThreadPool::RunAndWait(int n, const std::function<void(int)>& task,
                            const char* label) {
  if (n <= 0) return;
  // The hook snapshot outlives every task of the batch: RunAndWait
  // blocks until the batch drains.
  TaskHook hook;
  Batch batch;
  batch.task = &task;
  batch.hook = &hook;
  batch.label = label;
  batch.n = n;
  if (n == 1) {
    if (label != nullptr) {
      MutexLock lock(mu_);
      hook = task_hook_;
    }
    RunTask(batch, 0);
    return;
  }
  int index;
  {
    MutexLock lock(mu_);
    if (label != nullptr) hook = task_hook_;
    pending_ += n;
    batches_.push_back(&batch);
    index = ClaimLocked(&batch);
  }
  work_ready_.notify_all();
  // The caller works through its own batch alongside the workers.
  while (index >= 0) {
    RunTask(batch, index);
    MutexLock lock(mu_);
    FinishLocked(&batch);
    index = ClaimLocked(&batch);
  }
  // Explicit wait loop (not the predicate-lambda overload): the lambda
  // would read guarded fields from a context the thread-safety analysis
  // cannot see the lock in. wait_for releases and reacquires mu_; the
  // bounded wait is the pool-side cancellation checkpoint — a wedged
  // task can never park the driver forever without a periodic wakeup
  // that a watchdog or deadline layer can observe (CC008).
  MutexLock lock(mu_);
  while (batch.finished != batch.n) {
    batch_done_.wait_for(mu_, std::chrono::milliseconds(50));
  }
}

void ThreadPool::WorkerLoop() {
  Batch* batch = nullptr;
  int index = -1;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (batch != nullptr) FinishLocked(batch);
      // Bounded idle wait, same CC008 discipline as the batch wait: a
      // missed notify degrades to a 50ms hiccup instead of a hang.
      while (!shutdown_ && batches_.empty()) {
        work_ready_.wait_for(mu_, std::chrono::milliseconds(50));
      }
      if (batches_.empty()) return;  // shut down with no work left
      batch = batches_.front();
      index = ClaimLocked(batch);
    }
    RunTask(*batch, index);
  }
}

}  // namespace gradoop::dataflow
