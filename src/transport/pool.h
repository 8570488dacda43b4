#ifndef BAGUA_TRANSPORT_POOL_H_
#define BAGUA_TRANSPORT_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "base/arena.h"

namespace bagua {

/// \brief Snapshot of a BufferPool's accounting counters.
///
/// `misses` is the number the comm perf gate watches: once a messaging
/// workload reaches steady state every Acquire must be served from a
/// recycled buffer, so the miss counter stops moving — that is the
/// "steady-state messaging does zero heap allocations" property of the
/// transport fast path, asserted by tests and scripts/comm_gate.sh.
struct PoolStats {
  uint64_t hits = 0;         ///< Acquire served from a recycled buffer
  uint64_t misses = 0;       ///< Acquire had to heap-allocate
  uint64_t recycled = 0;     ///< Release parked the buffer for reuse
  uint64_t dropped = 0;      ///< Release freed the buffer (class full/tiny)
  uint64_t dropped_bytes = 0;  ///< capacity of buffers freed at the cap
  uint64_t bytes_served = 0; ///< payload bytes delivered from recycled buffers
};

/// \brief Size-classed free list of payload buffers — the allocator behind
/// the transport's zero-copy fast path.
///
/// The pool is a thin size-class *policy* over the shared arena geometry:
/// class math delegates to base/arena.h SizeClassMap (the same 21 classes
/// the subsystem arenas use), and every byte the pool causes to be heap
/// allocated or freed is attributed to the "transport" arena's live/peak
/// gauges via NoteExternalAlloc/NoteExternalFree. Storage itself stays
/// owned by std::vector<uint8_t>: the transport surface (Send/Recv,
/// SendBuffer, channels) moves vectors by value, so handing out raw arena
/// blocks would force a copy or an API break — the vectors keep the
/// zero-copy fast path, the arena keeps the accounting. Attribution is at
/// allocation-causing sites only: vectors that enter the economy from
/// outside are counted when (and if) the pool frees them, saturating at
/// zero rather than going negative.
///
/// Buffers are plain std::vector<uint8_t> binned into power-of-two size
/// classes (64 B .. 64 MB). Acquire rounds the request up to its class and
/// pops the most recently released buffer of that class (LIFO, so the
/// storage is cache-warm); Release parks the buffer back in the class its
/// *capacity* belongs to, so externally allocated vectors of any shape can
/// re-enter the economy. Each class keeps at most kMaxFreePerClass buffers;
/// excess releases free their memory, bounding the pool's footprint.
/// A class only ever holds buffers that were live at once, so parking
/// never raises the footprint above the workload's own peak. The cap
/// covers pipelined rings, whose senders run a whole chunk's segments
/// ahead: hierarchical C_LP_S on 2x2 at a 1.09M-element bucket keeps up
/// to 68 128-KiB segments live, and a cap below that peak drops buffers
/// at the end of every step only to miss on them in the next.
///
/// The pool recycles storage only, never values: every user fully
/// overwrites the bytes it reads (Send memcpys the whole payload), so
/// recycling cannot leak state between messages and all training results
/// stay bitwise independent of pool history.
///
/// Thread safety: one mutex per size class (senders in different classes
/// never contend); the stats counters are relaxed atomics.
class BufferPool {
 public:
  // Geometry is shared with the subsystem arenas (single source of truth).
  static constexpr size_t kMinClassBytes = SizeClassMap::kMinClassBytes;
  static constexpr size_t kMaxClassBytes = SizeClassMap::kMaxClassBytes;
  static constexpr int kNumClasses = SizeClassMap::kNumClasses;
  static constexpr size_t kMaxFreePerClass = 256;

  BufferPool() = default;
  /// Un-notes the parked free-list capacity from the "transport" arena
  /// gauge: a pool that dies with its TransportGroup must not leave its
  /// recycled bytes attributed as live forever. (Buffers still in flight
  /// stay noted until the owner drops them back into *some* pool — the
  /// documented saturating approximation.)
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a buffer with size() == bytes and capacity() >= its size
  /// class. Zero-byte requests return an empty vector and touch neither
  /// the pool nor the counters (no allocation is involved either way).
  /// Requests above kMaxClassBytes bypass the free lists (always a miss,
  /// and Release will free rather than park them). `hit` (optional)
  /// reports whether the buffer was recycled.
  std::vector<uint8_t> Acquire(size_t bytes, bool* hit = nullptr);

  /// Returns a buffer to the pool. Buffers with capacity below the
  /// smallest class (including moved-from empties) are freed silently.
  void Release(std::vector<uint8_t>&& buf);

  PoolStats stats() const;

  /// Number of buffers currently parked in the class that would serve a
  /// `bytes`-sized Acquire (size-class accounting for tests).
  size_t FreeInClassFor(size_t bytes) const;

  /// Capacity of the class serving `bytes` (rounded-up power of two), or 0
  /// when `bytes` is above kMaxClassBytes and bypasses the classes.
  static size_t ClassBytesFor(size_t bytes);

 private:
  struct SizeClass {
    mutable std::mutex mu;
    std::vector<std::vector<uint8_t>> free;
  };

  /// Smallest class index whose capacity covers `bytes`; -1 if oversize.
  static int ClassIndexFor(size_t bytes);
  /// Largest class index whose capacity fits within `capacity`; -1 if the
  /// buffer is too small to serve even the smallest class.
  static int ClassIndexOfCapacity(size_t capacity);

  SizeClass classes_[kNumClasses];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> recycled_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> dropped_bytes_{0};
  std::atomic<uint64_t> bytes_served_{0};
};

}  // namespace bagua

#endif  // BAGUA_TRANSPORT_POOL_H_
