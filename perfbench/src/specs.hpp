#ifndef PERFBENCH_SPECS_HPP
#define PERFBENCH_SPECS_HPP

// The deployments the three workloads serve, in one place so the traced
// run can measure each one's block (block.<deployment>.ar.*) from the
// same spec the workload registers.

#include <string>
#include <vector>

#include "runtime/deployment_spec.hpp"

namespace perfbench {

/// paper-decode: TinyLlama-42M as the paper deploys it, on 8 chips, with
/// the vocabulary cut to 512 as the serving benches cut it. Its offline
/// batch holds kPaperDecodeRequests requests, which is also the M of the
/// batched kernels.gemm probe.
inline constexpr int kPaperDecodeRequests = 12;
[[nodiscard]] distmcu::runtime::DeploymentSpec paper_spec();

/// fleet-prefix: reduced-width decoder ("llm", chunked prefill) on
/// `chips` chips, and the prefill-only encoder ("enc") of the near
/// nodes.
[[nodiscard]] distmcu::runtime::DeploymentSpec fleet_llm_spec(int chips);
[[nodiscard]] distmcu::runtime::DeploymentSpec fleet_enc_spec();

/// mixed-overload: full-width fp16 decoder ("chat") and int8 / int8-KV
/// prefill-only encoder ("classify"), both on 4 chips.
[[nodiscard]] distmcu::runtime::DeploymentSpec mixed_chat_spec();
[[nodiscard]] distmcu::runtime::DeploymentSpec mixed_classify_spec();

/// Every deployment above with the label its block metrics carry.
struct NamedSpec {
  std::string label;
  distmcu::runtime::DeploymentSpec spec;
};
[[nodiscard]] std::vector<NamedSpec> all_specs();

}  // namespace perfbench

#endif  // PERFBENCH_SPECS_HPP
