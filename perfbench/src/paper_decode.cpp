// paper-decode: the paper's headline deployment serving an offline batch.
//
// TinyLlama-42M blocks (E=512, F=2048, 8 heads, 8 layers) on 8 chips,
// the vocabulary cut to 512 as the serving benches cut it. Every request
// is queued at simulated t=0 (closed, offline); prompts are at most 16
// tokens and outputs run to tens of tokens. Paged KV, FIFO admission,
// serial prefill, no prefix sharing.
//
// Why: at 8 chips the block weights stay on-chip, so the L3 weight
// stream, the prefix cache, routing and preemption are all bypassed and
// host time goes to the functional forward (kernels::gemm through
// partition::DistributedBlock) while the modeled numbers come from the
// paper's block cost model.
#include <algorithm>
#include <optional>

#include "harness.hpp"
#include "specs.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace distmcu;

/// Lengths are stratified: output i is drawn uniformly from its own band
/// [kMinOutput + kOutputStep * i, kMinOutput + kOutputStep * (i + 1)),
/// and prompt j from [kMinPrompt + kPromptStep * j, ...), so a seed moves
/// the decode work per pass by a few tokens, not by a different mix.
constexpr int kRequests = kPaperDecodeRequests;
constexpr int kMinOutput = 8;
constexpr int kOutputStep = 2;
/// Distinct prompts (tokens seeded), each shared by a quarter of the
/// requests — the reference replay then costs one generate per prompt.
constexpr int kPrompts = 4;
constexpr int kMinPrompt = 5;
constexpr int kPromptStep = 3;

class PaperDecode final : public Workload {
 public:
  explicit PaperDecode(std::uint64_t seed) : spec_(paper_spec()) {
    util::Rng rng(seed);
    std::vector<std::vector<int>> prompts;
    for (int j = 0; j < kPrompts; ++j) {
      const int len = kMinPrompt + kPromptStep * j +
                      static_cast<int>(rng.next_below(kPromptStep));
      std::vector<int> p;
      for (int i = 0; i < len; ++i) {
        p.push_back(1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(spec_.model.vocab_size - 1))));
      }
      prompts.push_back(std::move(p));
    }
    std::vector<int> lengths;
    for (int i = 0; i < kRequests; ++i) {
      lengths.push_back(kMinOutput + kOutputStep * i +
                        static_cast<int>(rng.next_below(kOutputStep)));
    }
    const std::vector<int> outputs = balanced(kRequests, lengths, rng);
    const std::vector<int> which = balanced(kRequests, {0, 1, 2, 3}, rng);
    for (int i = 0; i < kRequests; ++i) {
      Offer o;
      o.model = spec_.deployment_name();
      o.prompt = prompts[static_cast<std::size_t>(which[static_cast<std::size_t>(i)])];
      o.new_tokens = outputs[static_cast<std::size_t>(i)];
      memo_.expect(o);
      offers_.push_back(std::move(o));
    }
  }

  PassResult run_pass(PassMode mode) override {
    const bool traced = mode == PassMode::traced;
    PassResult pass;
    const double freq = spec_.system.chip.freq_hz;
    std::vector<sim::Tracer> tracers;
    if (traced) tracers.push_back(sim::Tracer::counters_only());

    auto t0 = Clock::now();
    runtime::ModelRegistry reg;
    const runtime::ModelId m = reg.add(spec_);
    pass.registry_add_s = seconds_since(t0);
    t0 = Clock::now();
    runtime::BatchedEngine engine(
        reg,
        {.total_kv_slots = kPages,
         .max_pending = kRequests,
         .kv_page_tokens = kPageTokens},
        traced ? &tracers.front() : nullptr);
    pass.engine_ctor_s = seconds_since(t0);
    if (mode == PassMode::setup_only) return pass;

    // Serve: the whole batch queued at t=0, then stepped to the end.
    t0 = Clock::now();
    std::vector<std::optional<runtime::RequestId>> ids;
    for (const Offer& o : offers_) {
      ids.push_back(engine.submit(
          {.model = m, .prompt = o.prompt, .new_tokens = o.new_tokens}));
    }
    if (traced) {
      for (;;) {
        const auto s0 = Clock::now();
        const bool more = engine.step();
        pass.step_us.push_back(seconds_since(s0) * 1e6);
        if (!more) break;
      }
    } else {
      while (engine.step()) {
      }
    }
    pass.serve_s = seconds_since(t0);
    pass.offered = kRequests;

    // Match completions to offers and check every stream.
    t0 = Clock::now();
    std::vector<Completion> done;
    for (const runtime::RequestResult& r : engine.finished()) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != r.id) continue;
        const Offer& o = offers_[i];
        done.push_back({&o, &engine, &r, r.finished_at - r.submitted_at,
                        !r.missed_deadline()});
        pass.served_tokens +=
            static_cast<long long>(o.prompt.size()) + r.gen.generated;
        if (!memo_.matches(o, o.model, *reg.entry(m).session, r.gen.tokens)) {
          pass.violations.push_back("stream of request " + std::to_string(i) +
                                    " differs from generate()");
        }
      }
    }
    pass.reference_s = seconds_since(t0);
    std::sort(done.begin(), done.end(),
              [](const Completion& a, const Completion& b) {
                return a.offer < b.offer;
              });

    check_engine(engine, "paper-decode", pass.violations);
    if (engine.stats().completed != kRequests) {
      pass.violations.push_back("paper-decode: not every request completed");
    }
    pass.modeled = serving_metrics({&engine}, done, kRequests,
                                   engine.stats().total_cycles, freq);
    pass.digest = sim_digest(done, pass.modeled);
    if (traced) add_tracer_metrics(tracers, pass.tracer);
    return pass;
  }

 private:
  static constexpr int kPageTokens = 8;
  static constexpr int kPages = 48;

  runtime::DeploymentSpec spec_;
  std::vector<Offer> offers_;
  ReferenceMemo memo_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_decode(std::uint64_t seed) {
  return std::make_unique<PaperDecode>(seed);
}

}  // namespace perfbench
