// Thread-local payload pool (see nx/message.hpp).
//
// Records are recycled newest-first (cache-warm), and a record freed by
// one machine is reusable by the next machine on the same thread — the
// pool outlives any single simulation. The parallel engine hands
// payloads across rank-band threads, so a release may happen on a
// thread that does not own the record: those go onto one of the owning
// pool's two lock-free MPSC return stacks, picked by the parity of the
// releasing thread's band command. Records are therefore only ever
// *reused* by their allocating thread, which keeps the fast path
// (same-thread acquire/release) free of atomics beyond the refcount.
//
// Returns are folded back only at a band-command boundary
// (payload_command_boundary), and only those of the previous command:
// every thread has finished that command, and no thread pushes onto its
// stack during this one. A band's free list at every acquire, and so
// its heap-allocation count, then depends on the simulated schedule
// alone. Folding whenever the free list runs dry would pick up whatever
// other bands had returned so far in the same window, which varies with
// thread timing.
//
// Determinism note: the acquire counters depend only on program
// behaviour and are safe to export per machine
// (delta-since-construction, NxMachine); the heap_allocs/live split
// depends on what ran earlier on the thread and stays debug-only.
#include "nx/message.hpp"

#include <array>

namespace hpccsim::nx::detail {

namespace {

struct Pool {
  std::vector<PayloadRec*> free;
  /// Heads of the MPSC stacks of records released on foreign threads,
  /// indexed by the parity of the releasing thread's band command.
  std::array<std::atomic<PayloadRec*>, 2> returns{};
  std::uint64_t command = 0;  ///< this thread's current band command
  PayloadPoolStats stats;

  /// Folds one return stack into the local free list (owner-thread
  /// only).
  void drain(std::atomic<PayloadRec*>& stack) {
    PayloadRec* head = stack.exchange(nullptr, std::memory_order_acquire);
    while (head) {
      PayloadRec* next = head->next_free;
      head->next_free = nullptr;
      free.push_back(head);
      --stats.live;
      head = next;
    }
  }

  ~Pool() {
    for (auto& stack : returns) drain(stack);
    for (PayloadRec* r : free) delete r;
  }
};

Pool& pool() {
  static thread_local Pool tl_pool;
  return tl_pool;
}

}  // namespace

PayloadRec* payload_acquire(bool sized) {
  Pool& p = pool();
  if (sized)
    ++p.stats.sized_acquires;
  else
    ++p.stats.acquires;
  ++p.stats.live;
  PayloadRec* rec;
  if (!p.free.empty()) {
    rec = p.free.back();
    p.free.pop_back();
  } else {
    rec = new PayloadRec;
    rec->owner = &p;
    ++p.stats.heap_allocs;
  }
  rec->refs.store(1, std::memory_order_relaxed);
  return rec;
}

void payload_release(PayloadRec* rec) {
  // Keep the vector's capacity for the next value-carrying payload;
  // size-only payloads never touch it. Safe on any thread: the last
  // reference owns the record exclusively here.
  rec->values.clear();
  rec->has_values = false;
  rec->count = 0;
  Pool* owner = static_cast<Pool*>(rec->owner);
  Pool& mine = pool();
  if (owner == &mine) {
    mine.free.push_back(rec);
    --mine.stats.live;
    return;
  }
  // Released on a foreign thread: push onto the owner's return stack
  // for this command. The owner decrements its live count when it
  // drains.
  std::atomic<PayloadRec*>& stack = owner->returns[mine.command & 1];
  PayloadRec* head = stack.load(std::memory_order_relaxed);
  do {
    rec->next_free = head;
  } while (!stack.compare_exchange_weak(head, rec, std::memory_order_release,
                                        std::memory_order_relaxed));
}

void payload_command_boundary(std::uint64_t command) {
  Pool& p = pool();
  p.command = command;
  p.drain(p.returns[(command + 1) & 1]);
}

const PayloadPoolStats& payload_pool_stats() { return pool().stats; }

}  // namespace hpccsim::nx::detail
