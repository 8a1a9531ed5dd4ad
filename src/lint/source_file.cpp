#include "lint/source_file.hpp"

#include <algorithm>
#include <cctype>

#include "lint/lexer.hpp"

namespace rtdb::lint {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses "#include <x>" / "#include \"x\"" out of a directive's text.
bool parse_include(std::string_view directive, Include& out) {
  std::string_view s = trim(directive);
  if (s.empty() || s.front() != '#') return false;
  s = trim(s.substr(1));
  if (s.substr(0, 7) != "include") return false;
  s = trim(s.substr(7));
  if (s.empty()) return false;
  const char open = s.front();
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return false;  // computed include — out of scope
  const auto end = s.find(close, 1);
  if (end == std::string_view::npos) return false;
  out.path = std::string(s.substr(1, end - 1));
  out.angled = open == '<';
  return true;
}

constexpr std::string_view kMarker = "rtdb-lint:";

/// Parses the marker + "allow(rule-a, rule-b) why" from a comment body.
/// Returns false when the comment does not carry the marker at all.
bool parse_suppression(const Comment& c, Suppression& out) {
  std::string_view s = trim(c.text);
  const auto at = s.find(kMarker);
  if (at == std::string_view::npos) return false;
  out.first_line = c.line;
  out.last_line = c.end_line;  // own-line comments get extended by caller
  out.malformed = true;  // until fully parsed
  s = trim(s.substr(at + kMarker.size()));
  if (s.substr(0, 5) != "allow") return true;
  s = trim(s.substr(5));
  if (s.empty() || s.front() != '(') return true;
  const auto close = s.find(')');
  if (close == std::string_view::npos) return true;
  std::string_view list = s.substr(1, close - 1);
  while (!list.empty()) {
    const auto comma = list.find(',');
    const std::string_view item = trim(list.substr(0, comma));
    if (!item.empty()) out.rules.emplace_back(item);
    if (comma == std::string_view::npos) break;
    list = list.substr(comma + 1);
  }
  out.justification = std::string(trim(s.substr(close + 1)));
  out.malformed = out.rules.empty() || out.justification.empty();
  return true;
}

}  // namespace

SourceFile SourceFile::from_string(std::string rel_path,
                                   std::string_view content) {
  SourceFile f;
  f.rel_path_ = std::move(rel_path);
  std::replace(f.rel_path_.begin(), f.rel_path_.end(), '\\', '/');
  if (f.rel_path_.rfind("./", 0) == 0) f.rel_path_.erase(0, 2);

  if (f.rel_path_.rfind("src/", 0) == 0) {
    const auto rest = std::string_view(f.rel_path_).substr(4);
    const auto slash = rest.find('/');
    if (slash != std::string_view::npos) {
      f.subsystem_ = std::string(rest.substr(0, slash));
    }
  }

  LexResult lexed = lex(content);
  f.tokens_ = std::move(lexed.tokens);
  f.comments_ = std::move(lexed.comments);

  for (const Token& t : f.tokens_) {
    if (t.kind != TokKind::kDirective) continue;
    Include inc;
    inc.line = t.line;
    if (parse_include(t.text, inc)) f.includes_.push_back(inc);
  }
  // A standalone annotation comment covers the next *code* line — which may
  // sit below continuation comment lines, since each `//` line lexes as its
  // own comment.
  const auto own_line_end = [&f](const Comment& c) {
    int next_code = c.end_line + 1;
    for (const Token& t : f.tokens_) {
      if (t.line > c.end_line) {
        next_code = t.line;
        break;
      }
    }
    return next_code;
  };
  for (const Comment& c : f.comments_) {
    Suppression s;
    if (!parse_suppression(c, s)) continue;
    if (c.own_line) s.last_line = own_line_end(c);
    f.suppressions_.push_back(std::move(s));
  }
  return f;
}

bool SourceFile::suppressed(std::string_view rule, int line) const {
  for (const Suppression& s : suppressions_) {
    if (s.malformed || line < s.first_line || line > s.last_line) continue;
    for (const std::string& r : s.rules) {
      if (r == rule) return true;
    }
  }
  return false;
}

bool SourceFile::under(std::string_view dir) const {
  if (rel_path_.size() <= dir.size()) return false;
  return std::string_view(rel_path_).substr(0, dir.size()) == dir &&
         rel_path_[dir.size()] == '/';
}

std::string SourceFile::basename() const {
  const auto slash = rel_path_.rfind('/');
  return slash == std::string::npos ? rel_path_ : rel_path_.substr(slash + 1);
}

}  // namespace rtdb::lint
