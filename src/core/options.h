#ifndef BAGUA_CORE_OPTIONS_H_
#define BAGUA_CORE_OPTIONS_H_

#include <cstddef>

namespace bagua {

/// \brief The execution-optimizer switches of §3.4 / Table 5.
///
/// O — overlap communication with the backward computation;
/// F — fuse tensors into buckets and flatten their memory;
/// H — hierarchical (intra-node + leader) communication.
struct BaguaOptions {
  bool overlap = true;       ///< O
  bool fuse = true;          ///< F
  bool hierarchical = true;  ///< H

  /// Target bucket payload when fusing. The profiling phase sizes buckets
  /// to amortize the measured per-collective latency; at 16-node TCP
  /// latencies that lands near 32 MB (see bench_ablation_bucket).
  size_t bucket_bytes = 32u << 20;

  /// Run each bucket's communication on a dedicated per-worker comm
  /// thread (sched/engine.h) instead of inline in the backward hook:
  /// backward continues the moment a bucket is enqueued, producing real
  /// measured wall-clock overlap. The per-rank collective order is
  /// unchanged (in-order queue), so training results stay byte-identical
  /// to the synchronous path — sched_test enforces it. Default off: the
  /// extra thread interleaves per-rank trace ticks, so golden-trace
  /// workloads keep the synchronous executor. Only meaningful with
  /// overlap; ignored during the profiling step.
  bool async_comm = false;

  /// Intra-op compute threads for the tensor/compressor/optimizer
  /// kernels (base/parallel.h). 0 = inherit the process setting
  /// (BAGUA_INTRA_OP_THREADS env, default 1); > 0 forces the shared pool
  /// to that size before the worker ranks spawn. Kernels are
  /// byte-deterministic in this knob: training trajectories are
  /// bit-identical for any value (determinism_test enforces 1/2/8).
  int intra_op_threads = 0;

  static BaguaOptions Ablation(bool o, bool f, bool h) {
    BaguaOptions opts;
    opts.overlap = o;
    opts.fuse = f;
    opts.hierarchical = h;
    return opts;
  }
};

}  // namespace bagua

#endif  // BAGUA_CORE_OPTIONS_H_
