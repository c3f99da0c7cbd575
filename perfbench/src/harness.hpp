#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

// Shared pieces of the end-to-end benchmark: host timers, sample
// statistics, the modeled-state digest, the metric table, the reference
// stream memo, and the interface every workload implements.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "sim/tracer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile, q in (0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Middle value (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> v);

/// FNV-1a over 64-bit words: the `sim_digest` of a pass. Doubles enter
/// by bit pattern, so equal digests mean bit-identical modeled state.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  void add(const std::vector<int>& v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Metrics by name; std::map keeps the printed order stable.
using Metrics = std::map<std::string, Metric>;

struct Offer;

/// Memoized dedicated-generation references. Greedy decoding makes a
/// shorter stream a prefix of a longer one from the same prompt, so one
/// InferenceSession::generate per (deployment, prompt) at the longest
/// length the workload asks of that model covers every such request.
class ReferenceMemo {
 public:
  /// Records that `offer` asks its model for new_tokens from its prompt.
  void expect(const Offer& offer);
  /// True when `stream` equals the offer's prompt + the first new_tokens
  /// tokens `session` generates from it. `deployment` keys the memo: the
  /// numerics depend on the partition, so every deployment keeps its own
  /// references.
  [[nodiscard]] bool matches(const Offer& offer, const std::string& deployment,
                             const distmcu::runtime::InferenceSession& session,
                             const std::vector<int>& stream);

 private:
  using Key = std::pair<std::string, std::vector<int>>;
  std::map<Key, int> longest_;  ///< keyed by (model, prompt)
  std::map<Key, std::vector<int>> memo_;  ///< keyed by (deployment, prompt)
};

/// Inputs are drawn stratified: every workload fixes the multiset of
/// each input property (arrival gaps, prompt choice, output length,
/// deadline class) and the seed picks their order. The seed changes
/// which request meets which congestion, not how much work is offered,
/// so modeled metrics stay comparable across seeds.
///
/// `n` values cycling through `pattern`, in seeded order.
[[nodiscard]] std::vector<int> balanced(int n, const std::vector<int>& pattern,
                                        distmcu::util::Rng& rng);
/// `n` exponential gaps of mean `mean_cycles` taken at evenly spaced
/// quantiles, in seeded order.
[[nodiscard]] std::vector<distmcu::Cycles> exponential_gaps(
    int n, double mean_cycles, distmcu::util::Rng& rng);

/// One request the benchmark offers, with its scheduled arrival on the
/// simulated clock (0 for the offline batch).
struct Offer {
  std::string model;  ///< registry deployment name
  std::vector<int> prompt;
  int new_tokens = 0;
  distmcu::runtime::SloSpec slo;
  distmcu::Cycles at = 0;
};

/// A completed request as the metrics see it: what was offered, where
/// it ran, and its end-to-end latency on the simulated clock.
struct Completion {
  const Offer* offer = nullptr;
  const distmcu::runtime::BatchedEngine* engine = nullptr;
  const distmcu::runtime::RequestResult* result = nullptr;
  distmcu::Cycles latency = 0;  ///< scheduled arrival -> response landed
  bool met_deadline = true;
};

/// The modeled metrics every workload shares, computed from the engines
/// it ran and the completions it collected. `makespan` is the simulated
/// time from the first arrival to the last response.
[[nodiscard]] Metrics serving_metrics(
    const std::vector<const distmcu::runtime::BatchedEngine*>& engines,
    const std::vector<Completion>& done, int offered, distmcu::Cycles makespan,
    double freq_hz);

/// Folds every token stream (in offer order) and every modeled metric
/// into one digest.
[[nodiscard]] std::uint64_t sim_digest(const std::vector<Completion>& done,
                                       const Metrics& modeled);

/// Engine-level conservation: offered == completed + rejected + shed,
/// per-model tokens, cycles and energy sum to the engine totals, and no
/// KV page outlives the drain except the prefix registry's pins.
/// Appends one line per violation.
void check_engine(const distmcu::runtime::BatchedEngine& engine,
                  const std::string& where, std::vector<std::string>& out);

/// Adds the counters-only tracers' category totals as sim.trace.*.
void add_tracer_metrics(const std::vector<distmcu::sim::Tracer>& tracers,
                        Metrics& m);

/// One serve pass over a workload's (fixed) inputs: fresh deployments,
/// every request offered and drained, every stream checked.
struct PassResult {
  double registry_add_s = 0.0;
  double engine_ctor_s = 0.0;
  /// Wall time from the first submit to the drained engine(s); excludes
  /// set-up and reference checks.
  double serve_s = 0.0;
  /// Prompt + generated tokens of completed requests.
  long long served_tokens = 0;
  double reference_s = 0.0;
  int offered = 0;
  /// One line per wrong stream or violated invariant; each counts as one
  /// failed operation.
  std::vector<std::string> violations;
  /// Traced passes only: per-call host timings around public calls.
  std::vector<double> step_us;
  std::vector<double> submit_us;
  double drain_s = 0.0;
  std::uint64_t digest = 0;
  /// Modeled metrics; identical on every pass of one seed.
  Metrics modeled;
  /// Counters-only tracer totals (traced passes only).
  Metrics tracer;

  [[nodiscard]] double setup_s() const { return registry_add_s + engine_ctor_s; }
};

/// One serving node of an open-loop workload. The registry owns the
/// sessions the reference replays run on.
struct Node {
  std::unique_ptr<distmcu::runtime::ModelRegistry> registry;
  std::unique_ptr<distmcu::runtime::BatchedEngine> engine;
};

/// The serve phase and checks the open-loop workloads share: offers
/// every request through `router` at its scheduled arrival, drains the
/// fleet, checks every stream and the routing and engine conservation
/// laws, and fills `pass` (serve time, modeled metrics, digest).
void serve_open_loop(distmcu::fleet::Router& router,
                     const std::vector<Node>& nodes,
                     const std::vector<Offer>& offers, ReferenceMemo& memo,
                     bool traced, double freq_hz, const std::string& name,
                     PassResult& pass);

/// What a pass does. `serve` runs without tracers or per-call timers;
/// `traced` attaches counters-only tracers and times the calls into each
/// layer; `setup_only` builds the deployments, times that, and stops.
enum class PassMode { serve, traced, setup_only };

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual PassResult run_pass(PassMode mode) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_decode(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_prefix(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_mixed_overload(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP
