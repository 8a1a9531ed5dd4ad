/// \file micro_substrates.cpp
/// google-benchmark microbenchmarks of the substrate hot paths: the event
/// queue, RNG/Zipf sampling, LRU buffer bookkeeping, the lock managers and
/// the wait-for graph. These guard the simulator's own performance (a full
/// Figure-5 sweep replays tens of millions of events).

#include <benchmark/benchmark.h>

#include "lock/local_lock_manager.hpp"
#include "lock/wait_for_graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/buffer_manager.hpp"

namespace {

using namespace rtdb;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::SimTime{rng.uniform01()}, [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1 << 10)->Arg(1 << 14);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.after(sim::msec(1), tick);
    };
    sim.after(sim::msec(1), tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(10.0));
  }
}
BENCHMARK(BM_RngExponential);

void BM_ZipfSample(benchmark::State& state) {
  sim::ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.86);
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(10'000);

void BM_BufferManagerLocalizedWorkload(benchmark::State& state) {
  storage::BufferManager bm(1000);
  sim::Rng rng(3);
  for (auto _ : state) {
    const PageId id{static_cast<PageId::Rep>(
        rng.bernoulli(0.75) ? rng.uniform_int(0, 999)
                            : rng.uniform_int(0, 9999))};
    if (!bm.reference(id)) bm.insert(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferManagerLocalizedWorkload);

void BM_LocalLockAcquireRelease(benchmark::State& state) {
  lock::LocalLockManager llm;
  sim::Rng rng(5);
  TxnId next{1};
  for (auto _ : state) {
    const TxnId txn = next++;
    for (int i = 0; i < 10; ++i) {
      llm.acquire(txn,
                  ObjectId{static_cast<ObjectId::Rep>(rng.uniform_int(0, 9999))},
                  rng.bernoulli(0.05) ? lock::LockMode::kExclusive
                                      : lock::LockMode::kShared,
                  sim::SimTime{1e9}, [](bool) {});
    }
    llm.release_all(txn);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LocalLockAcquireRelease);

void BM_WaitForGraphAdmission(benchmark::State& state) {
  // Server-shaped graph: client i waits for its queued txn i, and txn i waits
  // for the later clients i+1, i+2 and i+5 holding its objects (acyclic, as
  // admission keeps it).
  using Node = lock::TxnOrClientNode;
  const auto client = [](std::int64_t i) {
    return Node::of_client(ClientId{static_cast<ClientId::Rep>(i)});
  };
  const auto txn = [](std::int64_t i) {
    return Node::of_txn(TxnId{static_cast<TxnId::Rep>(i)});
  };
  const std::int64_t clients = state.range(0);
  lock::WaitForGraph<Node> g;
  for (std::int64_t i = 0; i < clients; ++i) {
    g.add_edges(client(i), {txn(i)});
    std::vector<Node> holders;
    for (const std::int64_t d : {1, 2, 5}) {
      if (i + d < clients) holders.push_back(client(i + d));
    }
    g.add_edges(txn(i), holders);
  }
  // A mid-graph txn asks about later clients, which wait but cannot reach
  // it, so the search covers all its ancestors; the deadlock case adds the
  // previous client, whose txn waits for this txn's client.
  const std::int64_t mid = clients / 2;
  std::vector<Node> holders = {client(mid + 1), client(mid + 3),
                               client(mid + 10)};
  if (state.range(1) != 0) holders.push_back(client(mid - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.would_deadlock(txn(mid), holders));
  }
}
BENCHMARK(BM_WaitForGraphAdmission)
    ->ArgNames({"clients", "deadlock"})
    ->Args({200, 0})
    ->Args({200, 1});

}  // namespace

BENCHMARK_MAIN();
