#include "nx/mailbox.hpp"

namespace hpccsim::nx {

void Mailbox::deliver(Message m) {
  // Hand to the earliest-posted matching receive, if any.
  for (std::uint32_t id = recvs_.first();
       id != sim::SlotList<PendingRecv>::npos; id = recvs_.next(id)) {
    PendingRecv& r = recvs_[id];
    if (matches(m, r.src, r.tag)) {
      if (r.guard != kNoGuard) {
        AbortGuard& g = guards_[r.guard];
        g.settled = true;  // beat any pending abort callback
        g.delivered = true;
      }
      *r.out = std::move(m);
      sim::Waker& w = *r.waker;
      recvs_.erase(id);
      engine_->schedule_wake(engine_->now(), w);
      return;
    }
  }
  msgs_.push_back(std::move(m));
}

std::size_t Mailbox::drop_queued() {
  const std::size_t n = msgs_.size();
  msgs_.clear();
  return n;
}

bool Mailbox::try_take(int src, int tag, Message& out) {
  for (std::uint32_t id = msgs_.first(); id != sim::SlotList<Message>::npos;
       id = msgs_.next(id)) {
    if (matches(msgs_[id], src, tag)) {
      out = msgs_.take(id);
      return true;
    }
  }
  return false;
}

std::uint32_t Mailbox::acquire_guard() {
  std::uint32_t gid;
  if (!free_guards_.empty()) {
    gid = free_guards_.back();
    free_guards_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(guards_.size());
    guards_.push_back(AbortGuard{});
  }
  AbortGuard& g = guards_[gid];
  g.settled = false;
  g.delivered = false;
  return gid;
}

bool Mailbox::release_guard(std::uint32_t gid) {
  AbortGuard& g = guards_[gid];
  const bool delivered = g.delivered;
  ++g.gen;  // invalidate any still-pending abort callback
  free_guards_.push_back(gid);
  return delivered;
}

void Mailbox::abort_pending(std::uint32_t gid, std::uint32_t gen,
                            std::uint32_t where, std::coroutine_handle<> h) {
  AbortGuard& g = guards_[gid];
  if (g.gen != gen) return;  // receive already resumed; slot recycled
  if (g.settled) return;     // delivery won the race
  g.settled = true;
  recvs_.erase(where);
  engine_->schedule(engine_->now(), h);
}

}  // namespace hpccsim::nx
