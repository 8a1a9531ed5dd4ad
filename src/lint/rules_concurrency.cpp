#include "lint/rules.hpp"
#include "lint/rules_util.hpp"
#include "lint/scopes.hpp"

/// \file rules_concurrency.cpp
/// Concurrency-readiness rule. The simulator is single-threaded today; a
/// sharded multi-server design would end that. mutable-static is
/// scope-aware (via the scopes.hpp extractor): non-const namespace-scope
/// state (static or not), non-const static data members, and function-local
/// mutable statics. Each one must become const, move into its owning
/// object, or carry a justification.

namespace rtdb::lint {
namespace {

using detail::is_id;
using detail::is_punct;

bool is_const_marker(const Token& t) {
  return is_id(t, "const") || is_id(t, "constexpr") || is_id(t, "constinit");
}

bool in_lint_scope(const SourceFile& f) {
  return f.under("src") || f.under("tools") || f.under("bench");
}

class MutableStaticRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "mutable-static";
  }
  [[nodiscard]] Severity severity() const override { return Severity::kError; }
  [[nodiscard]] std::string_view summary() const override {
    return "non-const namespace-scope/static state — hidden shared state "
           "that breaks once multiple servers/threads exist";
  }

  void check(const SourceFile& f, const Corpus& /*corpus*/,
             std::vector<Finding>& out) const override {
    if (!in_lint_scope(f)) return;
    const ScopeInfo scopes = extract_scopes(f);

    for (const NamespaceVar& v : scopes.namespace_vars) {
      if (v.is_const) continue;
      add(f, v.line,
          "non-const namespace-scope state `" + v.name +
              "` — shared mutable state; make it const/constexpr, move it "
              "into the owning object, or annotate with a justification "
              "for the multi-server refactor to audit",
          out);
    }

    for (const MemberDecl& m : scopes.members) {
      if (!m.is_static || m.is_const) continue;
      add(f, m.line,
          "non-const static data member `" + m.class_name + "::" + m.name +
              "` — one instance shared by every object and every future "
              "server; make it const or per-instance",
          out);
    }

    // Function-local mutable statics: a `static` inside a recorded body
    // whose declaration head carries no const qualifier.
    const auto& ts = f.tokens();
    for (const FunctionDef& fn : scopes.functions) {
      const std::size_t end = std::min(fn.body_end, ts.size());
      for (std::size_t i = fn.body_begin; i < end; ++i) {
        if (!is_id(ts[i], "static")) continue;
        bool const_qualified = false;
        for (std::size_t j = i + 1; j < end && j < i + 40; ++j) {
          const Token& t = ts[j];
          if (is_const_marker(t)) {
            const_qualified = true;
            break;
          }
          if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, "{") ||
              is_punct(t, "(")) {
            break;
          }
        }
        if (const_qualified) continue;
        add(f, ts[i].line,
            "function-local mutable static in `" + fn.name +
                "` — per-process state that aliases across servers/threads; "
                "hoist it into the owning object or make it const",
            out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_mutable_static_rule() {
  return std::make_unique<MutableStaticRule>();
}

}  // namespace rtdb::lint
