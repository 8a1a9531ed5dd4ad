/// \file custom_driver.cpp
/// Tutorial: driving the cluster manually instead of through the workload
/// generator. Shows the manual-driving API (bootstrap + simulator), the
/// typed event stream, and the consistency auditor — the three tools for
/// building and debugging custom scenarios on top of the library.
///
/// The scenario is the paper's §3.4 example, scaled up: one writer holds a
/// hot object while several clients pile up requests for it, so a forward
/// list forms and circulates. The lock, window and txn events of the whole
/// episode are printed as JSONL.
///
///   $ ./custom_driver

#include <cstdio>
#include <iostream>

#include "core/client_server.hpp"
#include "obs/export.hpp"

int main() {
  using namespace rtdb;

  // A quiet five-client cluster: no background arrivals, cold caches, the
  // paper's LS techniques on.
  core::SystemConfig cfg;
  cfg.num_clients = 5;
  cfg.warm_start = false;
  cfg.workload.db_size = 100;
  cfg.workload.region_size = 5;
  cfg.ls = core::LsOptions::all();
  cfg.ls.enable_h1 = false;   // keep our hand-placed transactions in place
  cfg.ls.enable_h2 = false;
  cfg.ls.enable_decomposition = false;
  cfg.telemetry.events = true;

  core::ClientServerSystem sys(cfg);
  sys.bootstrap();

  const auto make_txn = [](TxnId id, SiteId origin, sim::SimTime now,
                           ObjectId obj, bool write, double length) {
    txn::Transaction t;
    t.id = id;
    t.origin = origin;
    t.arrival = now;
    t.length = sim::seconds(length);
    t.deadline = now + sim::seconds(length + 60);
    t.ops = {{obj, write}};
    return t;
  };

  // t=0: client 1 takes a long write lease on object 42.
  sys.client(ClientId{1}).on_new_transaction(
      make_txn(TxnId{1}, SiteId{1}, sim::SimTime{0}, ObjectId{42}, true, 8.0));
  sys.simulator().run_until(sim::SimTime{1});

  // t=1..2: two more writers and two readers pile up within the
  // collection window — the makings of a forward list.
  sys.client(ClientId{2}).on_new_transaction(
      make_txn(TxnId{2}, SiteId{2}, sim::SimTime{1}, ObjectId{42}, true, 0.5));
  sys.client(ClientId{3}).on_new_transaction(
      make_txn(TxnId{3}, SiteId{3}, sim::SimTime{1}, ObjectId{42}, true, 0.5));
  sys.client(ClientId{4}).on_new_transaction(
      make_txn(TxnId{4}, SiteId{4}, sim::SimTime{2}, ObjectId{42}, false, 0.5));
  sys.client(ClientId{5}).on_new_transaction(
      make_txn(TxnId{5}, SiteId{5}, sim::SimTime{2}, ObjectId{42}, false, 0.5));

  sys.simulator().run_until(sim::SimTime{60});

  std::printf("scenario finished at t=%.1f\n\n", sys.simulator().now().sec());
  std::printf("forward-list satisfactions: %llu\n",
              static_cast<unsigned long long>(
                  sys.live_metrics().forward_list_satisfactions));
  std::printf("consistency violations:     %zu\n",
              sys.auditor().violations().size());
  std::printf("object 42 committed version: %llu (3 writers ran)\n\n",
              static_cast<unsigned long long>(
                  sys.auditor().committed_version(ObjectId{42})));

  std::printf("--- protocol events ---\n");
  obs::write_jsonl(std::cout, sys.telemetry(),
                   obs::parse_categories("lock,window,txn"));
  return 0;
}
