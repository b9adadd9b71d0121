// WorkStealDeque — a Chase–Lev work-stealing deque (Chase & Lev, SPAA'05)
// with the weak-memory orderings of Lê, Pop, Cohen & Zappa Nardelli
// (PPoPP'13, "Correct and Efficient Work-Stealing for Weak Memory
// Models").
//
// One *owner* thread pushes and pops at the bottom without ever taking a
// lock; any number of *thief* threads steal from the top with a single
// CAS. The only contended instruction is the top CAS, and it is contended
// only when the deque is nearly empty — exactly the moment when blocking
// would not have helped anyway.
//
// Memory-ordering argument (see also DESIGN.md §8):
//   * pushBottom publishes the element with a release store into the cell
//     and then bumps `bottom` — a thief that observes the new bottom via
//     its acquire load also observes the element (release/acquire on the
//     cell itself makes the hand-off explicit rather than fence-implied,
//     which keeps ThreadSanitizer sound: TSan does not model standalone
//     fences).
//   * popBottom decrements `bottom` and then needs to know whether a
//     thief may already hold the last element. The seq_cst fence between
//     the bottom store and the top load forms a store-load barrier: either
//     the owner sees the thief's top increment, or the thief sees the
//     owner's decremented bottom and aborts. Without seq_cst both could
//     take the same element.
//   * steal reads top, fences, reads bottom. The fence guarantees the
//     bottom read is not ordered before the top read, so `b - t` never
//     under-approximates the owner's view; the final top CAS (seq_cst)
//     decides the race against the owner and against other thieves.
//   * Buffer growth is owner-only. The old buffer is retired, not freed,
//     until the deque dies: a thief holding a stale buffer pointer still
//     reads the correct element for any index it can win the top CAS for,
//     because grow() copies the live range [top, bottom) and never
//     mutates old cells.
//
// Elements are raw pointers; a successful popBottom/steal transfers
// ownership to the caller. The deque never runs destructors on leftover
// elements — the owner drains and frees them (ThreadPool does this in its
// destructor).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace owlcl {

// Under ThreadSanitizer, strengthen the orderings that the Lê et al.
// proof derives from standalone fences: TSan does not model
// atomic_thread_fence, so the relaxed top/bottom accesses would produce
// false positives (and, worse, mask real ones). The seq_cst fallback is
// what the original paper uses as its reference implementation.
#if defined(__SANITIZE_THREAD__)
#define OWLCL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OWLCL_TSAN 1
#endif
#endif

template <typename T>
class WorkStealDeque {
 public:
  explicit WorkStealDeque(std::size_t initialCapacity = 64) {
    std::size_t cap = 1;
    while (cap < initialCapacity) cap <<= 1;
    buffer_.store(newBuffer(cap), std::memory_order_relaxed);
  }

  ~WorkStealDeque() {
    for (Buffer* b : retired_) freeBuffer(b);
    freeBuffer(buffer_.load(std::memory_order_relaxed));
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only. Never blocks; grows the ring when full.
  void pushBottom(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= buf->capacity) buf = grow(buf, t, b);
    // Release on both stores: the cell release pairs with the thief's
    // acquire cell load (publishing the pointee without relying on fence
    // semantics), and the bottom release keeps the cell store ordered
    // before the size becomes visible to thieves.
    buf->cell(b).store(item, std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns nullptr when empty (or when a thief won the race
  /// for the last element).
  T* popBottom() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, bottomStoreOrder());
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(topLoadOrder());
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* item = buf->cell(b).load(std::memory_order_acquire);
    if (t == b) {
      // Last element: race the thieves for it via the top CAS.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        item = nullptr;  // a thief got it
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread. Returns nullptr when empty or when the race was lost
  /// (callers treat both as "try elsewhere").
  T* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    T* item = buf->cell(t).load(std::memory_order_acquire);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;  // owner or another thief won
    return item;
  }

 private:
  struct Buffer {
    std::int64_t capacity;
    std::atomic<T*>* cells;
    std::atomic<T*>& cell(std::int64_t i) {
      return cells[i & (capacity - 1)];  // capacity is a power of two
    }
  };

  static Buffer* newBuffer(std::int64_t capacity) {
    Buffer* b = new Buffer;
    b->capacity = capacity;
    b->cells = new std::atomic<T*>[static_cast<std::size_t>(capacity)];
    for (std::int64_t i = 0; i < capacity; ++i)
      b->cells[i].store(nullptr, std::memory_order_relaxed);
    return b;
  }

  static void freeBuffer(Buffer* b) {
    delete[] b->cells;
    delete b;
  }

  /// Owner only: doubles the ring, copying the live range [t, b).
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    Buffer* bigger = newBuffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i)
      bigger->cell(i).store(old->cell(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    buffer_.store(bigger, std::memory_order_release);
    retired_.push_back(old);  // thieves may still read it; freed in dtor
    return bigger;
  }

  // popBottom's store-load pair: the correctness proof hangs on the
  // seq_cst fence between them; under TSan (which ignores fences) the
  // operations themselves are promoted to seq_cst instead.
  static constexpr std::memory_order bottomStoreOrder() {
#ifdef OWLCL_TSAN
    return std::memory_order_seq_cst;
#else
    return std::memory_order_relaxed;
#endif
  }
  static constexpr std::memory_order topLoadOrder() {
#ifdef OWLCL_TSAN
    return std::memory_order_seq_cst;
#else
    return std::memory_order_relaxed;
#endif
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buffer_{nullptr};
  std::vector<Buffer*> retired_;  // owner-only; buffers outlive readers
};

}  // namespace owlcl
