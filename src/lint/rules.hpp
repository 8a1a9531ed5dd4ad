#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lint/rule.hpp"

/// \file rules.hpp
/// Factories for the individual rules (one translation unit per family).
/// make_default_rules() in rules.cpp assembles the shipped catalog.

namespace rtdb::lint {

// rules_tokens.cpp — token-correct ports of the old grep lints.
std::unique_ptr<Rule> make_raw_new_delete_rule();
std::unique_ptr<Rule> make_nondet_rng_rule();
std::unique_ptr<Rule> make_wall_clock_rule();

// rules_determinism.cpp — semantic determinism rules grep cannot express.
std::unique_ptr<Rule> make_unordered_iter_rule();
std::unique_ptr<Rule> make_ptr_key_rule();
std::unique_ptr<Rule> make_float_accum_rule();

// rules_layering.cpp — the subsystem DAG, from real #include edges.
std::unique_ptr<Rule> make_layering_rule();

// rules_concurrency.cpp — concurrency-readiness (scope-aware, scopes.hpp).
std::unique_ptr<Rule> make_mutable_static_rule();

// rules_seam.cpp — protocol traffic goes through Network::send/FaultHook.
std::unique_ptr<Rule> make_net_seam_rule();

// rules_hotpath.cpp — call-graph allocation prover (call_graph.hpp).
std::unique_ptr<Rule> make_hot_path_alloc_rule();

// rules_protocol.cpp — MessageKind switch totality + dispatch coverage.
std::unique_ptr<Rule> make_protocol_totality_rule();
std::unique_ptr<Rule> make_protocol_dispatch_rule();

// rules.cpp — suppression hygiene (needs the full catalog's names).
std::unique_ptr<Rule> make_suppression_hygiene_rule(
    std::vector<std::string> known_rules);

}  // namespace rtdb::lint
