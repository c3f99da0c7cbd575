#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include "harness.hpp"

namespace perfbench {

/// Mean absolute relative error, in percent, of this platform model
/// against the nine headline points of the paper's abstract.
[[nodiscard]] double paper_error_pct();

/// block.<deployment>.ar.*: InferenceSession::run_block in autoregressive
/// mode for every deployment the workloads serve.
void add_block_metrics(Metrics& m);

/// kernels.*: kernels::gemm timed at paper-decode's per-chip projection
/// shapes with M=1 and with M = paper-decode's batch, plus the projection
/// MACs per token.
void add_gemm_metrics(Metrics& m);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
