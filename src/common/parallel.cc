#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/macros.h"

namespace dpkron {
namespace {

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

using ChunkFn = std::function<void(size_t chunk, size_t worker)>;

// One parallel section. Heap-allocated and shared with the threads that
// help it, so a helper that picked it just before its last chunk was
// claimed only sees an exhausted chunk cursor (next_chunk never resets)
// and never dereferences `fn`, whose pointee lives only for the
// duration of Run(). `parent` and `root` are ancestors: each one's Run()
// is waiting on a chunk that (transitively) started this section, so
// they outlive it.
struct Section {
  const ChunkFn* fn = nullptr;
  size_t num_chunks = 0;
  // The section whose chunk the owner was running when it started this
  // one; null for a root, started by a thread outside any section.
  const Section* parent = nullptr;
  const Section* root = nullptr;  // outermost ancestor; itself for a root
  // The owner's pool index (0 off the pool). The owner runs its chunks
  // as worker 0, so an outside thread helping this section borrows it.
  size_t owner_index = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> pending{0};

  bool Claimable() const {
    return next_chunk.load(std::memory_order_relaxed) < num_chunks;
  }
  bool DescendsFrom(const Section& ancestor) const {
    for (const Section* s = parent; s != nullptr; s = s->parent) {
      if (s == &ancestor) return true;
    }
    return false;
  }
};

// The section whose chunk this thread is running (null between
// sections), and the thread's pool index (0 off the pool).
thread_local const Section* t_section = nullptr;
thread_local size_t t_pool_index = 0;

// Persistent pool: `threads_ - 1` spawned workers plus the calling
// thread (worker 0). Every Run() publishes its section on one list of
// open sections, nested ones included, and claims its own chunks from
// an atomic cursor; other threads help it under two rules:
//   * An idle pool thread takes chunks only from the newest root's tree,
//     oldest open section first: the root's own chunks, then the
//     sections nested in them. It picks again after every chunk.
//   * A thread joining its own section helps only that section's
//     descendants, oldest first. A foreign chunk could wait on a
//     StatCache entry that a lower frame of the same thread is
//     computing, and never finish.
// Oldest first hands out the largest pieces: a sweep cell before its
// Table 1 rows, a row before its kernels. Newest first left the owners
// of split sections waiting on stolen chunks, and made a warm
// table1_parameters sweep 8% slower.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
    return *pool;
  }

  int thread_count() const { return threads_; }

  void SetThreadCount(int threads) {
    if (threads < 1) threads = 1;
    if (threads == threads_) return;
    Shutdown();
    threads_ = threads;
    Spawn();
  }

  void Run(size_t num_chunks, const ChunkFn& fn) {
    if (num_chunks == 0) return;
    if (threads_ == 1 || num_chunks == 1) {
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk, 0);
      return;
    }
    auto section = std::make_shared<Section>();
    section->fn = &fn;
    section->num_chunks = num_chunks;
    section->pending.store(num_chunks, std::memory_order_relaxed);
    section->parent = t_section;
    section->root = t_section != nullptr ? t_section->root : section.get();
    section->owner_index = t_pool_index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(section);
      if (section->parent == nullptr) {
        roots_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    idle_cv_.notify_all();
    // Only a nested section has joiners that may help it: its ancestors'.
    if (section->parent != nullptr) join_cv_.notify_all();

    const Section* const outer = t_section;
    for (;;) {
      const size_t chunk =
          section->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      RunChunk(*section, chunk, /*worker=*/0);
    }
    t_section = outer;
    Join(*section);
  }

 private:
  explicit ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
    Spawn();
  }

  void Spawn() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = false;
    }
    workers_.reserve(threads_ - 1);
    for (int worker = 1; worker < threads_; ++worker) {
      workers_.emplace_back([this, worker] { WorkerMain(worker); });
    }
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    idle_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }

  void WorkerMain(size_t index) {
    t_pool_index = index;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      const std::shared_ptr<Section> section = NewestTreeWork();
      if (section == nullptr) {
        idle_cv_.wait(lock);
        continue;
      }
      const uint64_t roots = roots_.load(std::memory_order_relaxed);
      lock.unlock();
      Help(*section, index, roots);
      lock.lock();
    }
  }

  // Waits until every chunk of `section` has finished, running chunks
  // of its descendants meanwhile, then closes it.
  void Join(const Section& section) {
    // A pool thread helps under its own index. An outside thread only
    // ever owns sections of its own tree, so every descendant it helps
    // is owned by a pool thread, whose index that section leaves free.
    std::unique_lock<std::mutex> lock(mutex_);
    while (section.pending.load(std::memory_order_acquire) != 0) {
      const std::shared_ptr<Section> descendant = OldestDescendant(section);
      if (descendant == nullptr) {
        join_cv_.wait(lock);
        continue;
      }
      const size_t worker =
          t_pool_index != 0 ? t_pool_index : descendant->owner_index;
      DPKRON_CHECK_NE(worker, 0u);
      const uint64_t roots = roots_.load(std::memory_order_relaxed);
      lock.unlock();
      Help(*descendant, worker, roots);
      lock.lock();
    }
    open_.erase(std::find_if(open_.begin(), open_.end(),
                             [&section](const auto& s) {
                               return s.get() == &section;
                             }));
  }

  // Runs chunks of `section` as `worker` until it has none left or a
  // root was started after the pick (`roots` then). Until one of those,
  // picking again would return `section`: sections only ever run out of
  // chunks, and a nested one published since is newer.
  void Help(Section& section, size_t worker, uint64_t roots) {
    const Section* const outer = t_section;
    for (;;) {
      const size_t chunk =
          section.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= section.num_chunks) break;
      RunChunk(section, chunk, worker);
      if (roots_.load(std::memory_order_relaxed) != roots) break;
    }
    t_section = outer;
  }

  void RunChunk(Section& section, size_t chunk, size_t worker) {
    t_section = &section;
    (*section.fn)(chunk, worker);
    if (section.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk finished: wake the joiners (the lock guarantees the
      // notify cannot race past the owner's wait check).
      std::lock_guard<std::mutex> lock(mutex_);
      join_cv_.notify_all();
    }
  }

  // Under mutex_: the oldest claimable section in the newest root's tree.
  std::shared_ptr<Section> NewestTreeWork() const {
    const auto root = std::find_if(
        open_.rbegin(), open_.rend(),
        [](const auto& s) { return s->parent == nullptr; });
    if (root == open_.rend()) return nullptr;
    const Section* const tree = root->get();
    return OldestClaimable(
        [tree](const Section& s) { return s.root == tree; });
  }

  // Under mutex_: the oldest claimable descendant of `section`.
  std::shared_ptr<Section> OldestDescendant(const Section& section) const {
    return OldestClaimable(
        [&section](const Section& s) { return s.DescendsFrom(section); });
  }

  template <typename Pred>
  std::shared_ptr<Section> OldestClaimable(Pred&& pred) const {
    for (const std::shared_ptr<Section>& s : open_) {
      if (s->Claimable() && pred(*s)) return s;
    }
    return nullptr;
  }

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable idle_cv_;  // idle pool threads
  std::condition_variable join_cv_;  // threads joining their own section
  bool stop_ = false;
  // Open sections in publication order; a section leaves when its owner
  // has joined it.
  std::vector<std::shared_ptr<Section>> open_;
  // Roots started so far, so a helper can keep claiming from the section
  // it picked without the lock until the newest tree changes.
  std::atomic<uint64_t> roots_{0};
};

}  // namespace

int ParallelThreadCount() { return ThreadPool::Instance().thread_count(); }

bool InsideParallelSection() { return t_section != nullptr; }

void SetParallelThreadCount(int threads) {
  ThreadPool::Instance().SetThreadCount(threads);
}

size_t ParallelChunkCount(size_t n, size_t grain) {
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

void ParallelForChunks(size_t n, size_t grain,
                       const std::function<void(const ParallelChunk&)>& fn) {
  if (n == 0) return;
  if (grain < 1) grain = 1;
  const size_t num_chunks = ParallelChunkCount(n, grain);
  const std::function<void(size_t, size_t)> chunk_fn =
      [&fn, n, grain](size_t chunk, size_t worker) {
        ParallelChunk range;
        range.begin = chunk * grain;
        range.end = std::min(n, range.begin + grain);
        range.index = chunk;
        range.worker = worker;
        fn(range);
      };
  ThreadPool::Instance().Run(num_chunks, chunk_fn);
}

double ParallelSum(size_t n, size_t grain,
                   const std::function<double(size_t, size_t)>& partial_fn) {
  if (n == 0) return 0.0;
  std::vector<double> partials(ParallelChunkCount(n, grain), 0.0);
  ParallelForChunks(n, grain, [&](const ParallelChunk& chunk) {
    partials[chunk.index] = partial_fn(chunk.begin, chunk.end);
  });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

std::vector<Rng> SplitRngStreams(Rng& parent, size_t count) {
  std::vector<Rng> streams;
  streams.reserve(count);
  for (size_t i = 0; i < count; ++i) streams.push_back(parent.Split());
  return streams;
}

void ParallelForChunksWithRng(
    size_t n, size_t grain, Rng& rng,
    const std::function<void(const ParallelChunk&, Rng&)>& fn) {
  if (n == 0) return;
  std::vector<Rng> streams =
      SplitRngStreams(rng, ParallelChunkCount(n, grain));
  ParallelForChunks(n, grain, [&](const ParallelChunk& chunk) {
    fn(chunk, streams[chunk.index]);
  });
}

}  // namespace dpkron
