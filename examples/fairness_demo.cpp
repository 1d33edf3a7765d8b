// Fairness in a non-serializable world (paper sections 4.2 / 5.5).
//
// Replays the section 5.5 anomaly on BOTH airline variants: P requests
// first, but the seating agent hears about Q first; when overbooking forces
// a demotion, the basic design puts Q back AHEAD of P, while the
// timestamp-sorted redesign inserts Q after P. Then demonstrates
// Theorem 25's freeze: once the agent has seen both requests, the pair's
// relative order never changes again.
//
//   $ ./examples/fairness_demo
#include <cstdio>
#include <numeric>

#include "analysis/fairness.hpp"
#include "apps/airline/airline.hpp"
#include "apps/airline/timestamped.hpp"
#include "core/scripted.hpp"

namespace al = apps::airline;
using BasicAir = al::BasicAirline<5, 900, 300>;
using TsAir = al::SmallTimestampedAirline;

/// The section 5.5 script, generic over the airline variant. P (stamp 100)
/// requests first but agent A never hears of it until the end; A fills the
/// plane with four fillers and Q (stamp 200); an uncoordinated agent B
/// seats Y — actual overbooking; A then learns everything and demotes.
template <class Anyline, class MakeReq>
typename Anyline::State run_anomaly(MakeReq make_req) {
  using Req = typename Anyline::Request;
  core::ScriptedExecution<Anyline> sx;
  const auto rp = sx.run(make_req(1, 100), {});
  (void)rp;
  std::vector<std::size_t> agent_a;
  for (al::Person x = 10; x <= 13; ++x) {
    agent_a.push_back(sx.run(make_req(x, 110 + x - 10), {}));
  }
  agent_a.push_back(sx.run(make_req(2, 200), {}));  // Q
  const auto ry = sx.run(make_req(3, 150), {});
  sx.run(Req::move_up(), {ry}, /*origin=*/2);  // agent B seats Y
  for (int i = 0; i < 5; ++i) {
    agent_a.push_back(sx.run(Req::move_up(), agent_a, /*origin=*/0));
  }
  std::vector<std::size_t> all(sx.size());
  std::iota(all.begin(), all.end(), 0);
  sx.run(Req::move_down(), all, /*origin=*/0);  // demotes Q
  return sx.execution().final_state();
}

int main() {
  std::printf("Section 5.5 anomaly, 5-seat flight.\n");
  std::printf("P requested at t=100, Q at t=200 — P should outrank Q.\n\n");

  const auto basic = run_anomaly<BasicAir>(
      [](al::Person p, std::uint64_t) { return al::Request::request(p); });
  std::printf("basic design, final wait list: ");
  for (al::Person p : basic.waiting()) std::printf("%s ", al::person_name(p).c_str());
  std::printf("\n  -> %s\n\n",
              BasicAir::Priority::precedes(basic, 2, 1)
                  ? "Q is AHEAD of P: the demotion put Q at the head of the "
                    "wait list (unfair)"
                  : "P is ahead of Q");

  const auto ts = run_anomaly<TsAir>([](al::Person p, std::uint64_t s) {
    return al::TsRequest::request(p, s);
  });
  std::printf("timestamped redesign, final wait list: ");
  for (const auto& e : ts.waiting) {
    std::printf("%s@%llu ", al::person_name(e.person).c_str(),
                static_cast<unsigned long long>(e.stamp));
  }
  std::printf("\n  -> %s\n\n",
              TsAir::Priority::precedes(ts, 1, 2)
                  ? "P is ahead of Q: move-down inserted Q in timestamp "
                    "order (the section 5.5 fix)"
                  : "Q is ahead of P");

  // Theorem 25: the freeze. Once a (centralized) mover has seen both
  // requests with Q ahead, no later state reorders them.
  core::ScriptedExecution<BasicAir> sx;
  const auto rp = sx.run(al::Request::request(1), {});
  const auto rq = sx.run(al::Request::request(2), {});
  const auto m1 = sx.run(al::Request::move_up(), {rq});     // seats Q
  sx.run(al::Request::move_up(), {rp, rq, m1});             // sees both
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_theorem25(sx.execution(), cls);
  std::printf("Theorem 25 (priority frozen once the agent saw both): %s\n",
              report.ok() ? "holds on this execution" : "VIOLATED (bug!)");
  const auto final = sx.execution().final_state();
  std::printf("  final assigned order: ");
  for (al::Person p : final.assigned()) {
    std::printf("%s ", al::person_name(p).c_str());
  }
  std::printf("(Q keeps its head start forever)\n");
  return 0;
}
