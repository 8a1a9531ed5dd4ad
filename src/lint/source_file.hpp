#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/token.hpp"

/// \file source_file.hpp
/// A lexed translation unit plus the per-file facts every rule consumes:
/// repo-relative path, owning subsystem, `#include` edges, and parsed
/// `rtdb-lint` suppression comments.

namespace rtdb::lint {

/// One `#include` directive.
struct Include {
  std::string path;  ///< target as written ("core/runner.hpp", "vector")
  int line;
  bool angled;  ///< <...> (system/third-party) vs "..." (first-party)
};

/// One inline suppression comment: the `rtdb-lint` marker (with a colon)
/// followed by `allow(rule-a, rule-b) justification`.
///
/// A suppression covers the lines its comment spans; a comment with no code
/// before it on its line additionally covers the next line (the annotated
/// statement). The justification is mandatory — `malformed` suppressions
/// suppress nothing and are themselves reported (rule `bad-suppression`).
struct Suppression {
  std::vector<std::string> rules;
  std::string justification;
  int first_line;  ///< first covered line
  int last_line;   ///< last covered line (inclusive)
  bool malformed;  ///< unparsable allow-list or empty justification
};

class SourceFile {
 public:
  /// Lexes `content` as the file at repo-relative `rel_path` (forward
  /// slashes). Used by tests and by the disk loader in engine.cpp.
  static SourceFile from_string(std::string rel_path, std::string_view content);

  [[nodiscard]] const std::string& rel_path() const { return rel_path_; }

  /// First path component under src/ ("lock" for "src/lock/x.cpp"); empty
  /// for files outside src/.
  [[nodiscard]] const std::string& subsystem() const { return subsystem_; }

  [[nodiscard]] const std::vector<Token>& tokens() const { return tokens_; }
  [[nodiscard]] const std::vector<Comment>& comments() const {
    return comments_;
  }
  [[nodiscard]] const std::vector<Include>& includes() const {
    return includes_;
  }
  [[nodiscard]] const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }

  /// True when `rule` is suppressed at `line` by a well-formed suppression.
  [[nodiscard]] bool suppressed(std::string_view rule, int line) const;

  /// Path helpers used by rules to scope themselves.
  [[nodiscard]] bool under(std::string_view dir) const;  // "src", "src/net"
  [[nodiscard]] std::string basename() const;

 private:
  std::string rel_path_;
  std::string subsystem_;
  std::vector<Token> tokens_;
  std::vector<Comment> comments_;
  std::vector<Include> includes_;
  std::vector<Suppression> suppressions_;
};

}  // namespace rtdb::lint
