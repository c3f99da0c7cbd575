// fleet-prefix: an open loop of bursty Poisson arrivals through
// fleet::Router with prefix-affinity routing.
//
// Eight nodes in the style of bench/fleet_serving.cpp: four 4-chip
// near-link nodes deploying a decoder ("llm") and an encoder ("enc"),
// four 2-chip far-link nodes deploying the decoder only. Blocks are
// reduced-width so thousands of requests fit in one pass. Paged KV with
// copy-on-write prefix sharing, EDF admission, a deadline on every
// request. Every prompt opens with one of kSystemPrompts system prompts,
// three times the 8 entries one node's prefix cache holds per tenant, so
// placement decides the hit rate.
//
// Why: this stresses the router, the link model, the paged arena's
// adopt/fork path and per-step engine bookkeeping. The arithmetic is
// tiny, so a kernels::gemm speed-up should barely move it.
#include <numeric>

#include "fleet/routing_policy.hpp"
#include "harness.hpp"
#include "specs.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace distmcu;

constexpr int kRequests = 4800;
constexpr int kSystemPrompts = 24;
constexpr int kSystemTokens = 12;
constexpr int kSuffixes = 4;
constexpr int kSuffixTokens = 4;
/// Arrivals alternate between calm and burst phases of kPhase requests;
/// gaps inside a phase are exponential with the phase's mean. kRequests
/// is a whole number of phases.
constexpr int kPhase = 60;
constexpr double kCalmGapCycles = 150'000.0;
constexpr double kBurstGapCycles = 65'000.0;
constexpr Cycles kLlmDeadline = 3'000'000;
constexpr Cycles kEncDeadline = 2'200'000;

struct NodeShape {
  std::string name;
  int chips = 0;
  bool has_enc = false;
  int page_tokens = 0;
  int pages = 0;
  fleet::LinkModel link;
};

std::vector<NodeShape> fleet_shape() {
  const fleet::LinkModel near{.latency_cycles = 2'000, .cycles_per_byte = 0.5};
  const fleet::LinkModel far{.latency_cycles = 12'000, .cycles_per_byte = 3.0};
  std::vector<NodeShape> v;
  for (int i = 0; i < 4; ++i) v.push_back({"near" + std::to_string(i), 4, true, 4, 48, near});
  for (int i = 0; i < 4; ++i) v.push_back({"far" + std::to_string(i), 2, false, 8, 24, far});
  return v;
}

class FleetPrefix final : public Workload {
 public:
  explicit FleetPrefix(std::uint64_t seed) : shape_(fleet_shape()) {
    util::Rng rng(seed);
    const auto tokens = [&](int n) {
      std::vector<int> t;
      for (int i = 0; i < n; ++i) t.push_back(1 + static_cast<int>(rng.next_below(127)));
      return t;
    };
    std::vector<std::vector<int>> systems, suffixes;
    for (int i = 0; i < kSystemPrompts; ++i) systems.push_back(tokens(kSystemTokens));
    for (int i = 0; i < kSuffixes; ++i) suffixes.push_back(tokens(kSuffixTokens));

    std::vector<Cycles> gaps;
    for (int p = 0; p < kRequests / kPhase; ++p) {
      const auto g = exponential_gaps(
          kPhase, p % 2 == 0 ? kCalmGapCycles : kBurstGapCycles, rng);
      gaps.insert(gaps.end(), g.begin(), g.end());
    }
    std::vector<int> all_systems(kSystemPrompts), all_suffixes(kSuffixes);
    std::iota(all_systems.begin(), all_systems.end(), 0);
    std::iota(all_suffixes.begin(), all_suffixes.end(), 0);
    const auto system = balanced(kRequests, all_systems, rng);
    const auto suffix = balanced(kRequests, all_suffixes, rng);
    // A quarter of the requests go to the encoder; decoder requests ask
    // for 4..9 tokens.
    const auto is_enc = balanced(kRequests, {1, 0, 0, 0}, rng);
    const auto outputs = balanced(kRequests, {4, 5, 6, 7, 8, 9}, rng);

    std::size_t decodes = 0;
    Cycles t = 0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      t += gaps[i];
      Offer o;
      o.at = t;
      o.prompt = systems[static_cast<std::size_t>(system[i])];
      const auto& tail = suffixes[static_cast<std::size_t>(suffix[i])];
      o.prompt.insert(o.prompt.end(), tail.begin(), tail.end());
      if (is_enc[i] == 1) {
        o.model = "enc";
        o.slo = {.deadline_cycles = kEncDeadline};
      } else {
        o.model = "llm";
        o.new_tokens = outputs[decodes++];
        o.slo = {.deadline_cycles = kLlmDeadline};
      }
      memo_.expect(o);
      offers_.push_back(std::move(o));
    }
  }

  PassResult run_pass(PassMode mode) override {
    const bool traced = mode == PassMode::traced;
    PassResult pass;
    std::vector<sim::Tracer> tracers;
    if (traced) {
      for (std::size_t i = 0; i < shape_.size(); ++i) {
        tracers.push_back(sim::Tracer::counters_only());
      }
    }
    std::vector<Node> nodes(shape_.size());
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      const NodeShape& n = shape_[i];
      nodes[i].registry = std::make_unique<runtime::ModelRegistry>();
      runtime::DeploymentSpec llm = fleet_llm_spec(n.chips);
      llm.kv_quota = n.has_enc ? n.pages * 3 / 4 : n.pages;
      (void)nodes[i].registry->add(llm);
      if (n.has_enc) {
        runtime::DeploymentSpec enc = fleet_enc_spec();
        enc.kv_quota = n.pages / 4;
        (void)nodes[i].registry->add(enc);
      }
    }
    pass.registry_add_s = seconds_since(t0);
    t0 = Clock::now();
    fleet::Router router(
        fleet::make_routing_policy(fleet::RoutePolicy::prefix_affinity));
    const auto edf = runtime::make_scheduler(runtime::SchedulePolicy::edf);
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      const NodeShape& n = shape_[i];
      nodes[i].engine = std::make_unique<runtime::BatchedEngine>(
          *nodes[i].registry,
          runtime::BatchedEngine::MultiOptions{.total_kv_slots = n.pages,
                                               .max_pending = 24,
                                               .scheduler = edf,
                                               .kv_page_tokens = n.page_tokens,
                                               .prefix_sharing = true},
          traced ? &tracers[i] : nullptr);
      (void)router.add_node(*nodes[i].engine, n.link, n.name);
    }
    pass.engine_ctor_s = seconds_since(t0);
    if (mode == PassMode::setup_only) return pass;

    serve_open_loop(router, nodes, offers_, memo_, traced,
                    fleet_llm_spec(4).system.chip.freq_hz, "fleet-prefix", pass);
    if (traced) add_tracer_metrics(tracers, pass.tracer);
    return pass;
  }

 private:
  std::vector<NodeShape> shape_;
  std::vector<Offer> offers_;
  ReferenceMemo memo_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_prefix(std::uint64_t seed) {
  return std::make_unique<FleetPrefix>(seed);
}

}  // namespace perfbench
