#include <algorithm>

#include "lint/rules.hpp"

namespace rtdb::lint {
namespace {

/// Keeps the suppression machinery honest: a suppression without a
/// justification (or naming no known rule) suppresses nothing and is itself
/// a finding — otherwise `allow` comments rot into unreviewed waivers.
class SuppressionHygieneRule final : public Rule {
 public:
  explicit SuppressionHygieneRule(std::vector<std::string> known)
      : known_(std::move(known)) {}

  [[nodiscard]] std::string_view name() const override {
    return "bad-suppression";
  }
  [[nodiscard]] Severity severity() const override { return Severity::kError; }
  [[nodiscard]] std::string_view summary() const override {
    return "malformed rtdb-lint suppression — needs allow(<known-rule>) and "
           "a non-empty justification";
  }

  void check(const SourceFile& f, const Corpus& /*corpus*/,
             std::vector<Finding>& out) const override {
    for (const Suppression& s : f.suppressions()) {
      if (s.malformed) {
        add(f, s.first_line,
            "malformed suppression — syntax is "
            "`// rtdb-lint: allow(<rule>) <justification>` and the "
            "justification is mandatory",
            out);
        continue;
      }
      for (const std::string& r : s.rules) {
        if (std::find(known_.begin(), known_.end(), r) == known_.end()) {
          add(f, s.first_line,
              "suppression names unknown rule '" + r +
                  "' — see rtdb_lint --list-rules",
              out);
        }
      }
    }
  }

 private:
  std::vector<std::string> known_;
};

}  // namespace

std::unique_ptr<Rule> make_suppression_hygiene_rule(
    std::vector<std::string> known_rules) {
  return std::make_unique<SuppressionHygieneRule>(std::move(known_rules));
}

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(make_raw_new_delete_rule());
  rules.push_back(make_nondet_rng_rule());
  rules.push_back(make_wall_clock_rule());
  rules.push_back(make_unordered_iter_rule());
  rules.push_back(make_ptr_key_rule());
  rules.push_back(make_float_accum_rule());
  rules.push_back(make_layering_rule());
  rules.push_back(make_mutable_static_rule());
  rules.push_back(make_net_seam_rule());
  rules.push_back(make_hot_path_alloc_rule());
  rules.push_back(make_protocol_totality_rule());
  rules.push_back(make_protocol_dispatch_rule());

  std::vector<std::string> names;
  names.reserve(rules.size() + 1);
  for (const auto& r : rules) names.emplace_back(r->name());
  names.emplace_back("bad-suppression");
  rules.push_back(make_suppression_hygiene_rule(std::move(names)));
  return rules;
}

}  // namespace rtdb::lint
