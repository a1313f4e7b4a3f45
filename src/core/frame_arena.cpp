#include "core/frame_arena.hpp"

#include <cstdint>
#include <new>
#include <vector>

namespace hpccsim::sim::detail {
namespace {

struct FreeNode {
  FreeNode* next;
};

// Block layout: [16-byte header | payload]. header[0] holds the size
// class (1..kClasses) or 0 for a global-new fallback block.
struct ArenaState {
  FreeNode* free_list[FrameArena::kClasses + 1] = {};
  std::vector<void*> slabs;
  char* bump = nullptr;
  std::size_t bump_left = 0;

  ~ArenaState() {
    for (void* s : slabs) ::operator delete(s);
  }

  void* carve(std::size_t block_bytes) {
    if (bump_left < block_bytes) {
      void* slab = ::operator new(FrameArena::kSlabBytes);
      slabs.push_back(slab);
      bump = static_cast<char*>(slab);
      bump_left = FrameArena::kSlabBytes;
    }
    void* p = bump;
    bump += block_bytes;
    bump_left -= block_bytes;
    return p;
  }
};

ArenaState& arena() {
  thread_local ArenaState state;
  return state;
}

}  // namespace

void* FrameArena::allocate(std::size_t bytes) {
  ArenaState& a = arena();
  const std::size_t total = bytes + kHeader;
  if (total > kMaxBlock) {
    char* raw = static_cast<char*>(::operator new(total));
    *reinterpret_cast<std::uint64_t*>(raw) = 0;  // class 0: global new
    return raw + kHeader;
  }
  const std::size_t cls = (total + kGranule - 1) / kGranule;
  char* raw;
  if (FreeNode* node = a.free_list[cls]) {
    a.free_list[cls] = node->next;
    raw = reinterpret_cast<char*>(node);
  } else {
    raw = static_cast<char*>(a.carve(cls * kGranule));
  }
  *reinterpret_cast<std::uint64_t*>(raw) = cls;
  return raw + kHeader;
}

void FrameArena::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  const std::uint64_t cls = *reinterpret_cast<std::uint64_t*>(raw);
  if (cls == 0) {
    ::operator delete(raw);
    return;
  }
  ArenaState& a = arena();
  auto* node = reinterpret_cast<FreeNode*>(raw);
  node->next = a.free_list[cls];
  a.free_list[cls] = node;
}

}  // namespace hpccsim::sim::detail
