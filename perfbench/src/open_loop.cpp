#include <algorithm>
#include <optional>

#include "harness.hpp"

namespace perfbench {

using namespace distmcu;

void serve_open_loop(fleet::Router& router, const std::vector<Node>& nodes,
                     const std::vector<Offer>& offers, ReferenceMemo& memo,
                     bool traced, double freq_hz, const std::string& name,
                     PassResult& pass) {
  // Serve: every offer at its scheduled arrival, then drain the fleet.
  auto t0 = Clock::now();
  std::vector<std::optional<fleet::FleetRequestId>> ids;
  ids.reserve(offers.size());
  for (const Offer& o : offers) {
    if (traced) {
      const auto s0 = Clock::now();
      ids.push_back(router.submit(o.model, o.prompt, o.new_tokens, o.slo, o.at));
      pass.submit_us.push_back(seconds_since(s0) * 1e6);
    } else {
      ids.push_back(router.submit(o.model, o.prompt, o.new_tokens, o.slo, o.at));
    }
  }
  const auto d0 = Clock::now();
  const std::vector<fleet::FleetResult>& finished = router.run_to_completion();
  pass.drain_s = seconds_since(d0);
  pass.serve_s = seconds_since(t0);
  pass.offered = static_cast<int>(offers.size());

  // Match completions to offers and check every stream against a
  // dedicated generate() on the deployment that served it.
  t0 = Clock::now();
  std::map<fleet::FleetRequestId, std::size_t> offer_of;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i]) offer_of[*ids[i]] = i;
  }
  std::vector<Completion> done;
  for (const fleet::FleetResult& f : finished) {
    const auto it = offer_of.find(f.id);
    if (it == offer_of.end()) {
      pass.violations.push_back(name + ": completion of an unknown request");
      continue;
    }
    const Offer& o = offers[it->second];
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    const runtime::ModelDeployment& d = n.registry->entry(f.result.model);
    done.push_back({&o, n.engine.get(), &f.result, f.finished_at - f.submitted_at,
                    !f.missed_deadline()});
    pass.served_tokens +=
        static_cast<long long>(o.prompt.size()) + f.result.gen.generated;
    const std::string deployment =
        d.name + "/" + std::to_string(d.session->plan().num_chips());
    if (d.name != o.model ||
        !memo.matches(o, deployment, *d.session, f.result.gen.tokens)) {
      pass.violations.push_back(name + ": stream of request " +
                                std::to_string(it->second) +
                                " differs from generate()");
    }
  }
  pass.reference_s = seconds_since(t0);
  std::sort(done.begin(), done.end(), [](const Completion& a, const Completion& b) {
    return a.offer < b.offer;
  });

  // Conservation at the router and on every node.
  const fleet::FleetStats s = router.stats();
  const auto fail = [&](const std::string& what) {
    pass.violations.push_back(name + ": " + what);
  };
  if (s.offered != pass.offered || s.offered != s.placed + s.rejected ||
      s.placed != s.completed + s.shed ||
      s.completed != static_cast<int>(finished.size())) {
    fail("offered != completed + rejected + shed");
  }
  if (s.routed != static_cast<std::uint64_t>(s.placed) + s.misrouted) {
    fail("routed != placed + misrouted");
  }
  std::vector<const runtime::BatchedEngine*> engines;
  int max_placed = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& pn = s.per_node[i];
    if (pn.attempts != static_cast<std::uint64_t>(pn.placed) +
                           static_cast<std::uint64_t>(pn.link_rejected) +
                           static_cast<std::uint64_t>(pn.serving.rejected)) {
      fail(pn.name + ": attempts != placed + link_rejected + rejected");
    }
    check_engine(*nodes[i].engine, name + "/" + pn.name, pass.violations);
    engines.push_back(nodes[i].engine.get());
    max_placed = std::max(max_placed, pn.placed);
  }

  pass.modeled = serving_metrics(engines, done, pass.offered, s.makespan, freq_hz);
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  int link_rejected = 0;
  for (const auto& pn : s.per_node) link_rejected += pn.link_rejected;
  pass.modeled["fleet.misroute_rate"] = {
      ratio(static_cast<double>(s.misrouted), static_cast<double>(s.routed)),
      "share"};
  pass.modeled["fleet.link_rejected"] = {static_cast<double>(link_rejected),
                                         "count"};
  pass.modeled["fleet.link_cycles_per_request"] = {
      ratio(static_cast<double>(s.request_transfer_cycles +
                                s.response_transfer_cycles),
            pass.offered),
      "cycles"};
  pass.modeled["fleet.placed_imbalance"] = {
      ratio(static_cast<double>(max_placed) * static_cast<double>(nodes.size()),
            s.placed),
      "ratio"};
  pass.digest = sim_digest(done, pass.modeled);
}

}  // namespace perfbench
