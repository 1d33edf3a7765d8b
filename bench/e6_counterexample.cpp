// E6 — the section 5.4 counterexample, replayed deterministically.
//
// "It would be better if we could prove the same result only assuming
// centralization of MOVE-UP transactions and transitivity ... But this
// stronger statement is not true." Blocks of
// REQUEST(Pi), CANCEL(Pi), REQUEST(Pi), MOVE-UP — the first 100 MOVE-UPs
// each see only the first request of their block; the 101st sees
// everything the others saw plus the cancels, concludes the plane is
// empty, and seats P101: cost $900 despite centralized, transitive movers.
#include <cstdio>

#include "analysis/airline_theorems.hpp"
#include "analysis/execution_checker.hpp"
#include "apps/airline/airline.hpp"
#include "core/scripted.hpp"
#include "harness/table.hpp"

int main() {
  namespace al = apps::airline;
  using Air = al::Airline;  // the paper's 100-seat flight
  using Request = al::Request;

  core::ScriptedExecution<Air> sx;
  std::vector<std::size_t> prior_moveups;
  std::vector<std::size_t> seen_first_requests;
  std::vector<std::size_t> all_cancels;
  for (al::Person p = 1; p <= 101; ++p) {
    const std::size_t r1 = sx.run(Request::request(p), {});
    const std::size_t c = sx.run(Request::cancel(p), {});
    const std::size_t r2 = sx.run(Request::request(p), {});
    all_cancels.push_back(c);
    if (p <= 100) {
      std::vector<std::size_t> prefix = prior_moveups;
      prefix.insert(prefix.end(), seen_first_requests.begin(),
                    seen_first_requests.end());
      prefix.push_back(r1);
      prior_moveups.push_back(sx.run(Request::move_up(), std::move(prefix)));
      seen_first_requests.push_back(r1);
    } else {
      std::vector<std::size_t> prefix = prior_moveups;
      prefix.insert(prefix.end(), seen_first_requests.begin(),
                    seen_first_requests.end());
      prefix.insert(prefix.end(), all_cancels.begin(), all_cancels.end());
      prefix.push_back(r1);
      prefix.push_back(r2);
      sx.run(Request::move_up(), std::move(prefix));
    }
  }
  const auto& exec = sx.execution();

  harness::Table table("E6  Section 5.4 counterexample (404 transactions)",
                       {"property", "value"});
  table.add_row({"transactions", harness::Table::num(exec.size())});
  table.add_row({"prefix-subsequence condition",
                 analysis::check_prefix_subsequence_condition(exec).ok()
                     ? "holds"
                     : "violated"});
  table.add_row(
      {"transitive", analysis::is_transitive(exec) ? "yes" : "no"});
  table.add_row({"MOVE-UPs centralized",
                 analysis::is_centralized<Air>(exec,
                                               [](const Request& r) {
                                                 return r.kind ==
                                                        Request::Kind::kMoveUp;
                                               })
                     ? "yes"
                     : "no"});
  const auto final = exec.final_state();
  table.add_row({"final assigned count",
                 harness::Table::num(final.assigned().size())});
  table.add_row({"final overbooking cost",
                 "$" + harness::Table::num(
                           Air::cost(final, Air::kOverbooking), 0)});
  const auto r22 = analysis::check_theorem22(exec);
  const auto r23 = analysis::check_theorem23(exec);
  table.add_row({"Theorem 22 checker",
                 r22.ok() ? "holds (unexpected!)"
                          : "reports failed hypothesis (per-person "
                            "centralization)"});
  table.add_row({"Theorem 23 checker",
                 r23.ok() ? "holds (unexpected!)"
                          : "reports failed hypothesis (duplicate REQUESTs)"});
  table.print();
  std::printf(
      "\nReading: transitivity + centralized MOVE-UPs alone do NOT prevent\n"
      "overbooking. The last MOVE-UP sees all prior MOVE-UPs AND all the\n"
      "cancels, but not the second requests, so it believes every earlier\n"
      "assignment was erroneous and seats P101 onto a full plane. Both\n"
      "theorem checkers correctly refuse: each missing technical hypothesis\n"
      "is exactly what this execution violates.\n");
  return 0;
}
