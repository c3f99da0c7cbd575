// mixed-overload: an open loop whose bursts exceed one node's capacity.
//
// The node is 4 chips of full-width blocks, so decode weights stream
// from L3. Two tenants share one watermark-budgeted paged arena: an fp16
// decoder ("chat") and an int8 / int8-KV prefill-only encoder
// ("classify"). Overload controls are on: EDF admission,
// DeadlineAwarePreemption, fail-fast deadlines and fair shedding. The
// requests go through a one-node fleet::Router over an ideal link, which
// only supplies the scheduled arrivals.
//
// Why: this stresses the prefetch pipeline's shared L3 port, KV
// checkpoint writes next to decode reads, the budget policy, the quant
// kernels and admission control, none of which run in paper-decode.

#include "harness.hpp"
#include "specs.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace distmcu;

constexpr int kRequests = 500;
constexpr int kPageTokens = 8;
constexpr int kPages = 9;
constexpr int kMaxPending = 2;
/// Arrivals alternate between bursts, which arrive faster than the node
/// serves, and calm phases that let it drain, kPhase requests each
/// (exponential gaps with the phase's mean). The small arena and queue
/// bound keep latency from growing without limit, so overload shows as
/// refusals, sheds and preemptions. kRequests is a whole number of phases.
constexpr int kPhase = 50;
constexpr double kBurstGapCycles = 4'000'000.0;
constexpr double kCalmGapCycles = 16'000'000.0;
/// Chat prompts are one of six templates (the reference replay then costs
/// one generate per template); classify prompts fill the encoder's
/// 16-token shape.
constexpr int kChatPromptLens[] = {6, 8, 10, 12, 14, 16};
constexpr runtime::SloSpec kInteractive{.priority = 0, .deadline_cycles = 125'000'000};
constexpr runtime::SloSpec kBackground{.priority = 1, .deadline_cycles = 500'000'000};
constexpr runtime::SloSpec kClassify{.priority = 0, .deadline_cycles = 25'000'000};
constexpr runtime::SloSpec kHopeless{.priority = 0, .deadline_cycles = 1'000'000};

class MixedOverload final : public Workload {
 public:
  explicit MixedOverload(std::uint64_t seed) {
    util::Rng rng(seed);
    const auto tokens = [&](int n) {
      std::vector<int> t;
      for (int i = 0; i < n; ++i) t.push_back(1 + static_cast<int>(rng.next_below(511)));
      return t;
    };
    std::vector<std::vector<int>> chat, classify;
    for (const int len : kChatPromptLens) {
      chat.push_back(tokens(len));
      classify.push_back(tokens(16));
    }
    std::vector<Cycles> gaps;
    for (int p = 0; p < kRequests / kPhase; ++p) {
      const auto g = exponential_gaps(
          kPhase, p % 2 == 0 ? kBurstGapCycles : kCalmGapCycles, rng);
      gaps.insert(gaps.end(), g.begin(), g.end());
    }
    // Ten request classes in equal shares: 0-1 interactive chat, 2-4
    // background chat, 5-8 classify, 9 classify with a deadline shorter
    // than its own service time (fail-fast rejects it).
    const auto kind = balanced(kRequests, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, rng);
    const auto prompt = balanced(kRequests, {0, 1, 2, 3, 4, 5}, rng);
    const auto outputs = balanced(kRequests, {2, 3, 4, 5, 6, 7, 8}, rng);
    // Prompts and output lengths are dealt per model in arrival order,
    // so each model's share of them is the same for every seed.
    std::size_t chats = 0, classifies = 0;
    Cycles t = 0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      t += gaps[i];
      Offer o;
      o.at = t;
      if (kind[i] < 5) {
        o.model = "chat";
        o.prompt = chat[static_cast<std::size_t>(prompt[chats])];
        o.new_tokens = outputs[chats++];
        o.slo = kind[i] < 2 ? kInteractive : kBackground;
      } else {
        o.model = "classify";
        o.prompt = classify[static_cast<std::size_t>(prompt[classifies++])];
        o.slo = kind[i] == 9 ? kHopeless : kClassify;
      }
      memo_.expect(o);
      offers_.push_back(std::move(o));
    }
  }

  PassResult run_pass(PassMode mode) override {
    const bool traced = mode == PassMode::traced;
    PassResult pass;
    std::vector<sim::Tracer> tracers;
    if (traced) tracers.push_back(sim::Tracer::counters_only());
    std::vector<Node> nodes(1);
    auto t0 = Clock::now();
    nodes[0].registry = std::make_unique<runtime::ModelRegistry>();
    runtime::DeploymentSpec chat = mixed_chat_spec();
    chat.kv_quota = kPages * 2 / 3;
    runtime::DeploymentSpec classify = mixed_classify_spec();
    classify.kv_quota = kPages / 3;
    (void)nodes[0].registry->add(chat);
    (void)nodes[0].registry->add(classify);
    pass.registry_add_s = seconds_since(t0);

    t0 = Clock::now();
    fleet::Router router;
    nodes[0].engine = std::make_unique<runtime::BatchedEngine>(
        *nodes[0].registry,
        runtime::BatchedEngine::MultiOptions{
            .total_kv_slots = kPages,
            .max_pending = kMaxPending,
            .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
            .kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark),
            .fail_fast_deadlines = true,
            .fair_shedding = true,
            .preemption = std::make_shared<runtime::DeadlineAwarePreemption>(),
            .kv_page_tokens = kPageTokens},
        traced ? &tracers.front() : nullptr);
    (void)router.add_node(*nodes[0].engine, fleet::LinkModel{}, "node");
    pass.engine_ctor_s = seconds_since(t0);
    if (mode == PassMode::setup_only) return pass;

    serve_open_loop(router, nodes, offers_, memo_, traced,
                    chat.system.chip.freq_hz, "mixed-overload", pass);
    if (traced) add_tracer_metrics(tracers, pass.tracer);
    return pass;
  }

 private:
  std::vector<Offer> offers_;
  ReferenceMemo memo_;
};

}  // namespace

std::unique_ptr<Workload> make_mixed_overload(std::uint64_t seed) {
  return std::make_unique<MixedOverload>(seed);
}

}  // namespace perfbench
