// The end-to-end benchmark program.
//
//   perfbench --workload <paper-decode|fleet-prefix|mixed-overload>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, then repeats serve passes
// over those same inputs for `--seconds` (at least kMinPasses passes; no
// pass is started that would not end in time). Every pass builds fresh
// deployments, so each one times set-up and serving afresh; modeled
// results must repeat bit-exactly from pass to pass (compared by
// sim_digest). Pass 0 warms caches and the allocator and fills the
// reference memo, so host serve times come from the later passes. Each
// serve pass is followed by kExtraSetups set-up-only passes, so set-up is
// timed several times a pass. Every host metric is a median over passes.
//
// --trace 0 measures with tracing off and prints the end-to-end metrics;
// --trace 1 alternates untraced and traced passes after the warm-up pass
// and prints the per-layer metrics. The last line of stdout is one JSON
// object:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
// Any wrong stream or broken invariant makes the exit code nonzero.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>

#include "harness.hpp"
#include "probes.hpp"
#include "specs.hpp"

using namespace perfbench;

namespace {

constexpr int kMinPasses = 3;
constexpr int kExtraSetups = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <paper-decode|fleet-prefix|mixed-overload>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        a.trace = value == "1";
        have[3] = true;
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]) ||
      !(a.seconds > 0.0)) {
    usage(argv[0]);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper-decode") return make_paper_decode(a.seed);
  if (a.workload == "fleet-prefix") return make_fleet_prefix(a.seed);
  if (a.workload == "mixed-overload") return make_mixed_overload(a.seed);
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every per-layer metric the traced run prints, in print order; a
/// metric a workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"runtime.registry_add_s", "s"},
      {"runtime.engine_ctor_s", "s"},
      {"runtime.step_us_p50", "us"},
      {"runtime.step_us_p99", "us"},
      {"runtime.steps", "count"},
      {"fleet.submit_us_p50", "us"},
      {"fleet.submit_us_p99", "us"},
      {"fleet.drain_s", "s"},
      {"kernels.gemm_m1_gmacs", "GMAC/s"},
      {"kernels.gemm_mb_gmacs", "GMAC/s"},
      {"kernels.macs_per_token", "count"},
      {"verify.reference_s", "s"},
      {"trace.overhead_pct", "%"},
      {"latency.samples", "count"},
  };
  for (const NamedSpec& d : all_specs()) {
    const std::string p = "block." + d.label + ".ar.";
    for (const char* c : {"compute_cycles", "dma_l3_l2_cycles",
                          "dma_l2_l1_cycles", "c2c_cycles"}) {
      v.emplace_back(p + c, "cycles");
    }
    v.emplace_back(p + "energy_mj", "mJ");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"runtime.prefetch_stall_cycles", "cycles"},
      {"runtime.stream_hidden_share", "share"},
      {"runtime.prefill_stall_cycles", "cycles"},
      {"runtime.mean_decode_batch", "requests"},
      {"runtime.peak_batch", "requests"},
      {"runtime.queue_delay_p50_ms", "ms"},
      {"runtime.queue_delay_p99_ms", "ms"},
      {"runtime.preemptions", "count"},
      {"runtime.preemption_cycles", "cycles"},
      {"runtime.rejected_hopeless", "count"},
      {"runtime.rejected_queue_full", "count"},
      {"runtime.shed", "count"},
      {"mem.kv_high_water_share.tinyllama", "share"},
      {"mem.kv_high_water_share.llm", "share"},
      {"mem.kv_high_water_share.enc", "share"},
      {"mem.kv_high_water_share.chat", "share"},
      {"mem.kv_high_water_share.classify", "share"},
      {"mem.prefix_hit_rate", "share"},
      {"mem.prefix_shared_tokens", "count"},
      {"mem.cow_forks", "count"},
      {"fleet.misroute_rate", "share"},
      {"fleet.link_rejected", "count"},
      {"fleet.link_cycles_per_request", "cycles"},
      {"fleet.placed_imbalance", "ratio"},
      {"quant.int8_mj_per_token", "mJ"},
      {"sim.trace.compute_cycles", "cycles"},
      {"sim.trace.dma_l3_l2_cycles", "cycles"},
      {"sim.trace.sched_cycles", "cycles"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: cannot build inputs: " << e.what() << "\n";
    return 1;
  }
  if (!workload) usage(argv[0]);

#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::cout << "host: compiler=\"" << compiler << "\" build=" << PERFBENCH_BUILD_TYPE
            << " nproc=" << std::thread::hardware_concurrency() << "\n";

  std::vector<PassResult> passes;
  std::vector<double> setup;
  try {
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
      const auto p0 = Clock::now();
      const bool traced = args.trace && i % 2 == 1;
      passes.push_back(workload->run_pass(traced ? PassMode::traced : PassMode::serve));
      const PassResult& p = passes.back();
      setup.push_back(p.setup_s());
      for (int k = 0; k < kExtraSetups; ++k) {
        setup.push_back(workload->run_pass(PassMode::setup_only).setup_s());
      }
      std::cout << "pass " << i << (traced ? " traced" : "") << ": setup_s="
                << p.setup_s() << " serve_s=" << p.serve_s
                << " served_tokens=" << p.served_tokens
                << " reference_s=" << p.reference_s << "\n";
      // Pass 0 also fills the reference memo; the later passes show
      // what one more pass costs.
      const double elapsed = seconds_since(start);
      const double next = i == 0 ? elapsed : seconds_since(p0);
      if (i + 1 >= kMinPasses && elapsed + next > args.seconds) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " threw: " << e.what() << "\n";
    return 1;
  }

  // Correctness: per-pass checks, plus bit-identical modeled state on
  // every pass (traced passes included).
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    attempted += p.offered;
    failed += static_cast<long long>(p.violations.size());
    for (const auto& v : p.violations) problems.push_back(v);
    if (p.digest != passes.front().digest) {
      ++failed;
      problems.push_back("pass " + std::to_string(i) +
                         ": sim_digest differs from pass 0");
    }
  }

  std::vector<double> host_tps, traced_tps, reg_add, ctor, ref;
  std::vector<double> step_us, submit_us, drain;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    reg_add.push_back(p.registry_add_s);
    ctor.push_back(p.engine_ctor_s);
    ref.push_back(p.reference_s);
    const double tps = static_cast<double>(p.served_tokens) / p.serve_s;
    if (i == 0) continue;  // warm-up
    if (p.tracer.empty()) {
      host_tps.push_back(tps);
    } else {
      traced_tps.push_back(tps);
      step_us.insert(step_us.end(), p.step_us.begin(), p.step_us.end());
      submit_us.insert(submit_us.end(), p.submit_us.begin(), p.submit_us.end());
      drain.push_back(p.drain_s);
    }
  }

  const PassResult& first = passes.front();
  Metrics out;
  if (!args.trace) {
    out["setup_s"] = {median(setup), "s"};
    out["host_tokens_per_s"] = {median(host_tps), "tok/s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    for (const char* name : {"sim_tokens_per_s", "energy_mj_per_token",
                             "latency_p50_ms", "latency_p90_ms",
                             "slo_attainment"}) {
      out[name] = first.modeled.at(name);
    }
    out["paper_error_pct"] = {paper_error_pct(), "%"};
  } else {
    Metrics all = first.modeled;
    for (const PassResult& p : passes) {
      if (!p.tracer.empty()) {
        for (const auto& [k, v] : p.tracer) all[k] = v;
        break;
      }
    }
    all["runtime.registry_add_s"] = {median(reg_add), "s"};
    all["runtime.engine_ctor_s"] = {median(ctor), "s"};
    all["runtime.step_us_p50"] = {percentile(step_us, 50), "us"};
    all["runtime.step_us_p99"] = {percentile(step_us, 99), "us"};
    all["fleet.submit_us_p50"] = {percentile(submit_us, 50), "us"};
    all["fleet.submit_us_p99"] = {percentile(submit_us, 99), "us"};
    all["fleet.drain_s"] = {median(drain), "s"};
    all["verify.reference_s"] = {std::accumulate(ref.begin(), ref.end(), 0.0), "s"};
    const double untraced = median(host_tps);
    const double traced = median(traced_tps);
    all["trace.overhead_pct"] = {100.0 * (untraced - traced) / untraced, "%"};
    add_gemm_metrics(all);
    add_block_metrics(all);
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = all.find(name);
      out[name] = it == all.end() ? Metric{0.0, unit} : Metric{it->second.value, unit};
    }
  }

  for (auto& [name, m] : out) {
    if (!std::isfinite(m.value)) {
      ++failed;
      problems.push_back("metric " + name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const auto& p : problems) std::cerr << "perfbench: FAILED " << p << "\n";

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest));
  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " passes=" << passes.size() << " sim_digest=" << digest << "\n";
  for (const auto& [name, m] : first.modeled) {
    std::cout << "  modeled " << name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, m] : out) {
    json += (comma ? ", \"" : "\"") + name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    comma = true;
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
