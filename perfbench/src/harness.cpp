#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/units.hpp"

namespace perfbench {

using distmcu::Cycles;
using distmcu::runtime::BatchedEngine;
using distmcu::runtime::ModelId;
using distmcu::runtime::ServingStats;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

void Digest::add(const std::vector<int>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (const int x : v) add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
}

std::vector<int> balanced(int n, const std::vector<int>& pattern,
                          distmcu::util::Rng& rng) {
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(pattern[static_cast<std::size_t>(i) % pattern.size()]);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
  return v;
}

std::vector<Cycles> exponential_gaps(int n, double mean_cycles,
                                     distmcu::util::Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  order = balanced(n, order, rng);
  std::vector<Cycles> gaps;
  gaps.reserve(order.size());
  for (const int k : order) {
    const double q = (k + 0.5) / n;
    gaps.push_back(static_cast<Cycles>(-mean_cycles * std::log(1.0 - q)));
  }
  return gaps;
}

void ReferenceMemo::expect(const Offer& offer) {
  int& n = longest_[{offer.model, offer.prompt}];
  n = std::max(n, offer.new_tokens);
}

bool ReferenceMemo::matches(const Offer& offer, const std::string& deployment,
                            const distmcu::runtime::InferenceSession& session,
                            const std::vector<int>& stream) {
  auto it = memo_.find({deployment, offer.prompt});
  if (it == memo_.end()) {
    const auto want = longest_.find({offer.model, offer.prompt});
    const int n = want == longest_.end()
                      ? offer.new_tokens
                      : std::max(want->second, offer.new_tokens);
    it = memo_.emplace(Key{deployment, offer.prompt},
                       session.generate(offer.prompt, n).tokens)
             .first;
  }
  const std::size_t len =
      offer.prompt.size() + static_cast<std::size_t>(offer.new_tokens);
  return stream.size() == len && it->second.size() >= len &&
         std::equal(stream.begin(), stream.end(), it->second.begin());
}

Metrics serving_metrics(const std::vector<const BatchedEngine*>& engines,
                        const std::vector<Completion>& done, int offered,
                        Cycles makespan, double freq_hz) {
  Metrics m;
  long long prompt_tokens = 0;
  long long generated = 0;
  int met = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  for (const Completion& c : done) {
    prompt_tokens += static_cast<long long>(c.offer->prompt.size());
    generated += c.result->gen.generated;
    met += c.met_deadline ? 1 : 0;
    latency_ms.push_back(distmcu::util::cycles_to_ms(c.latency, freq_hz));
    queue_ms.push_back(
        distmcu::util::cycles_to_ms(c.result->queue_delay_cycles(), freq_hz));
  }

  double energy_mj = 0.0;
  Cycles stall = 0, hidden = 0, prefill_stall = 0, preemption_cycles = 0;
  long long decode_steps = 0, engine_generated = 0, shared_tokens = 0;
  int peak_batch = 0, preemptions = 0, hopeless = 0, queue_full = 0, shed = 0;
  int prefix_hits = 0, cow_forks = 0, completed = 0, steps = 0;
  std::map<std::string, double> kv_share;
  double int8_mj = 0.0;
  for (const BatchedEngine* e : engines) {
    const ServingStats& s = e->stats();
    energy_mj += s.total_energy_mj;
    stall += s.prefetch_stall_cycles;
    hidden += s.stream_cycles_hidden;
    prefill_stall += s.prefill_stall_cycles;
    preemption_cycles += s.preemption_cycles;
    decode_steps += s.decode_steps;
    engine_generated += s.total_generated;
    shared_tokens += s.prefix_shared_tokens;
    peak_batch = std::max(peak_batch, s.peak_batch);
    preemptions += s.preemptions;
    hopeless += s.rejected_hopeless_deadline;
    queue_full += s.rejected_queue_full;
    shed += s.shed;
    prefix_hits += s.prefix_hits;
    cow_forks += s.cow_forks;
    completed += s.completed;
    steps += s.steps;
    for (ModelId t = 0; t < e->model_count(); ++t) {
      const double share =
          static_cast<double>(e->kv_pages().tenant_high_water(t)) /
          static_cast<double>(e->kv_pages().capacity());
      double& best = kv_share[e->model_name(t)];
      best = std::max(best, share);
      if (e->model_precision(t) == distmcu::runtime::Precision::int8) {
        int8_mj += s.per_model[static_cast<std::size_t>(t)].attributed_energy_mj;
      }
    }
  }
  long long int8_tokens = 0;
  for (const Completion& c : done) {
    if (c.engine->model_precision(c.result->model) ==
        distmcu::runtime::Precision::int8) {
      int8_tokens += static_cast<long long>(c.offer->prompt.size()) +
                     c.result->gen.generated;
    }
  }

  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto served = static_cast<double>(prompt_tokens + generated);
  m["sim_tokens_per_s"] = {
      ratio(static_cast<double>(generated),
            distmcu::util::cycles_to_s(makespan, freq_hz)),
      "tok/s"};
  m["energy_mj_per_token"] = {ratio(energy_mj, served), "mJ"};
  m["latency_p50_ms"] = {percentile(latency_ms, 50), "ms"};
  m["latency_p90_ms"] = {percentile(latency_ms, 90), "ms"};
  m["slo_attainment"] = {ratio(met, offered), "share"};
  m["latency.samples"] = {static_cast<double>(done.size()), "count"};

  m["runtime.prefetch_stall_cycles"] = {static_cast<double>(stall), "cycles"};
  m["runtime.stream_hidden_share"] = {
      ratio(static_cast<double>(hidden), static_cast<double>(stall + hidden)),
      "share"};
  m["runtime.prefill_stall_cycles"] = {static_cast<double>(prefill_stall),
                                       "cycles"};
  m["runtime.mean_decode_batch"] = {
      ratio(static_cast<double>(engine_generated),
            static_cast<double>(decode_steps)),
      "requests"};
  m["runtime.peak_batch"] = {static_cast<double>(peak_batch), "requests"};
  m["runtime.steps"] = {static_cast<double>(steps), "count"};
  m["runtime.queue_delay_p50_ms"] = {percentile(queue_ms, 50), "ms"};
  m["runtime.queue_delay_p99_ms"] = {percentile(queue_ms, 99), "ms"};
  m["runtime.preemptions"] = {static_cast<double>(preemptions), "count"};
  m["runtime.preemption_cycles"] = {static_cast<double>(preemption_cycles),
                                    "cycles"};
  m["runtime.rejected_hopeless"] = {static_cast<double>(hopeless), "count"};
  m["runtime.rejected_queue_full"] = {static_cast<double>(queue_full), "count"};
  m["runtime.shed"] = {static_cast<double>(shed), "count"};
  for (const auto& [tenant, share] : kv_share) {
    m["mem.kv_high_water_share." + tenant] = {share, "share"};
  }
  m["mem.prefix_hit_rate"] = {ratio(prefix_hits, completed), "share"};
  m["mem.prefix_shared_tokens"] = {static_cast<double>(shared_tokens), "count"};
  m["mem.cow_forks"] = {static_cast<double>(cow_forks), "count"};
  m["quant.int8_mj_per_token"] = {ratio(int8_mj, static_cast<double>(int8_tokens)),
                                  "mJ"};
  return m;
}

std::uint64_t sim_digest(const std::vector<Completion>& done,
                         const Metrics& modeled) {
  Digest d;
  for (const Completion& c : done) {
    d.add(c.result->gen.tokens);
    d.add(static_cast<std::uint64_t>(c.latency));
    d.add(static_cast<std::uint64_t>(c.result->gen.total_cycles));
    d.add(c.result->gen.total_energy_mj);
  }
  for (const auto& [name, metric] : modeled) {
    d.add(name);
    d.add(metric.value);
  }
  return d.value();
}

void check_engine(const BatchedEngine& engine, const std::string& where,
                  std::vector<std::string>& out) {
  const ServingStats& s = engine.stats();
  int submitted = 0, completed = 0, rejected = 0, generated = 0;
  Cycles cycles = 0;
  double energy = 0.0;
  for (const auto& pm : s.per_model) {
    submitted += pm.submitted;
    completed += pm.completed;
    rejected += pm.rejected;
    generated += pm.total_generated;
    cycles += pm.attributed_cycles;
    energy += pm.attributed_energy_mj;
  }
  const auto fail = [&](const std::string& what) {
    out.push_back(where + ": " + what);
  };
  if (engine.active_requests() + engine.pending_requests() != 0) {
    fail("requests left after the drain");
  }
  if (submitted != s.completed + s.shed) fail("submitted != completed + shed");
  if (completed != s.completed || rejected != s.rejected ||
      generated != s.total_generated) {
    fail("per-model counts do not sum to the engine totals");
  }
  if (s.rejected != s.rejected_queue_full + s.rejected_hopeless_deadline) {
    fail("rejections do not split into queue_full + hopeless");
  }
  if (cycles != s.total_cycles) fail("attributed cycles != engine cycles");
  if (std::fabs(energy - s.total_energy_mj) >
      1e-9 * std::max(1.0, std::fabs(s.total_energy_mj))) {
    fail("attributed energy != engine energy");
  }
  if (engine.kv_pages().in_use() != engine.prefix_cache_pages()) {
    fail("KV pages leaked past the drain");
  }
}

void add_tracer_metrics(const std::vector<distmcu::sim::Tracer>& tracers,
                        Metrics& m) {
  using distmcu::sim::Category;
  Cycles compute = 0, l3 = 0, sched = 0;
  for (const auto& t : tracers) {
    compute += t.total(Category::compute);
    l3 += t.total(Category::dma_l3_l2);
    sched += t.total(Category::sched);
  }
  m["sim.trace.compute_cycles"] = {static_cast<double>(compute), "cycles"};
  m["sim.trace.dma_l3_l2_cycles"] = {static_cast<double>(l3), "cycles"};
  m["sim.trace.sched_cycles"] = {static_cast<double>(sched), "cycles"};
}

}  // namespace perfbench
