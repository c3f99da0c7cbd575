// Measurements that do not serve requests: the paper's headline points
// (paper_error_pct), each deployment's block cost split (block.*), and
// kernels::gemm timed at paper-decode's per-chip projection shapes.
#include "probes.hpp"

#include <cmath>

#include "energy/energy_model.hpp"
#include "kernels/gemm.hpp"
#include "partition/plan.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/timed_simulation.hpp"
#include "specs.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace distmcu;

namespace {

struct Point {
  runtime::RunReport report;
  double mj = 0.0;
};

/// One block per chip count, as the paper's figure sweeps measure it.
std::vector<Point> sweep(const model::TransformerConfig& cfg, model::Mode mode,
                         const std::vector<int>& chips) {
  const auto sys = runtime::SystemConfig::siracusa_system();
  const runtime::TimedBlockSimulation sim(sys);
  const energy::EnergyModel em(sys.chip, sys.link);
  std::vector<Point> out;
  for (const int n : chips) {
    Point p;
    p.report = sim.run(partition::PartitionPlan::create(cfg, n), mode);
    p.mj = em.compute(p.report).total_mj();
    out.push_back(std::move(p));
  }
  return out;
}

double speedup(const Point& base, const Point& p) {
  return static_cast<double>(base.report.block_cycles) /
         static_cast<double>(p.report.block_cycles);
}

}  // namespace

double paper_error_pct() {
  const double freq = runtime::SystemConfig::siracusa_system().chip.freq_hz;
  const auto llama = model::TransformerConfig::tiny_llama_42m();
  const auto ar = sweep(llama, model::Mode::autoregressive, {1, 8});
  const auto pr = sweep(llama, model::Mode::prompt, {1, 8});
  const auto mb = sweep(model::TransformerConfig::mobile_bert(),
                        model::Mode::prompt, {1, 4});
  const auto sc = sweep(model::TransformerConfig::tiny_llama_scaled(64),
                        model::Mode::autoregressive, {1, 16, 64});
  const double ar_ms = ar[1].report.ms(freq);
  const double edp1 = ar[0].mj * ar[0].report.ms(freq);
  // The nine points headline_abstract prints: (paper, this model).
  const std::pair<double, double> points[] = {
      {0.64, ar[1].mj},
      {0.54, ar_ms},
      {26.1, speedup(ar[0], ar[1])},
      {27.2, edp1 / (ar[1].mj * ar_ms)},
      {9.9, speedup(pr[0], pr[1])},
      {38.8, mb[1].report.ms(freq)},
      {4.7, speedup(mb[0], mb[1])},
      {60.1, speedup(sc[0], sc[2])},
      {1.3, sc[1].mj / sc[2].mj},
  };
  double sum = 0.0;
  for (const auto& [paper, measured] : points) {
    sum += std::fabs(measured - paper) / paper;
  }
  return 100.0 * sum / static_cast<double>(std::size(points));
}

void add_block_metrics(Metrics& m) {
  for (const NamedSpec& d : all_specs()) {
    const runtime::InferenceSession session(d.spec);
    const runtime::BlockResult b = session.run_block(model::Mode::autoregressive);
    const std::string p = "block." + d.label + ".ar.";
    const auto& bd = b.report.breakdown;
    m[p + "compute_cycles"] = {static_cast<double>(bd.compute), "cycles"};
    m[p + "dma_l3_l2_cycles"] = {static_cast<double>(bd.dma_l3_l2), "cycles"};
    m[p + "dma_l2_l1_cycles"] = {static_cast<double>(bd.dma_l2_l1), "cycles"};
    m[p + "c2c_cycles"] = {static_cast<double>(bd.c2c), "cycles"};
    m[p + "energy_mj"] = {b.energy_mj(), "mJ"};
  }
}

void add_gemm_metrics(Metrics& m) {
  const runtime::DeploymentSpec spec = paper_spec();
  const model::TransformerConfig& cfg = spec.model;
  const auto plan = partition::PartitionPlan::create(cfg, spec.chips);
  const int e = cfg.embed_dim;
  const int pw = plan.proj_width(0);
  const int fw = plan.slice(0).f_width();
  // (K, N) of the per-chip projections: Q, K, V, O, FFN up, FFN down.
  const std::pair<int, int> shapes[] = {{e, pw}, {e, pw}, {e, pw},
                                        {pw, e}, {e, fw}, {fw, e}};
  double macs_per_chip_layer = 0.0;
  for (const auto& [k, n] : shapes) macs_per_chip_layer += double(k) * n;
  m["kernels.macs_per_token"] = {
      macs_per_chip_layer * spec.chips * cfg.num_layers, "count"};

  util::Rng rng(7);
  const auto fill = [&](std::vector<float>& v) {
    for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  };
  const auto rate = [&](int rows) {
    std::vector<std::vector<float>> a, b, c;
    for (const auto& [k, n] : shapes) {
      a.emplace_back(static_cast<std::size_t>(rows) * k);
      b.emplace_back(static_cast<std::size_t>(k) * n);
      c.emplace_back(static_cast<std::size_t>(rows) * n);
      fill(a.back());
      fill(b.back());
    }
    double macs = 0.0;
    float sink = 0.0f;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.25) {
      for (std::size_t i = 0; i < std::size(shapes); ++i) {
        const auto [k, n] = shapes[i];
        kernels::gemm(a[i], b[i], c[i], rows, n, k);
        sink += c[i][0];
        macs += double(rows) * k * n;
      }
      elapsed = seconds_since(t0);
    }
    // Keeps the products observable so the loop cannot be dropped.
    volatile float keep = sink;
    (void)keep;
    return macs / elapsed / 1e9;
  };
  m["kernels.gemm_m1_gmacs"] = {rate(1), "GMAC/s"};
  m["kernels.gemm_mb_gmacs"] = {rate(kPaperDecodeRequests), "GMAC/s"};
}

}  // namespace perfbench
