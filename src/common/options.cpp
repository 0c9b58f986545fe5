#include "common/options.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace ptatin {

namespace {
/// A token counts as a value (not an option) when it does not start with
/// '-', or when it is a negative number ("-1.5", "-3e4").
bool is_value_token(const char* tok) {
  if (tok[0] != '-') return true;
  const char c = tok[1];
  return c == '.' || (c >= '0' && c <= '9');
}

/// The registered option descriptions backing the generated -help text.
std::map<std::string, std::pair<std::string, std::string>>& descriptions() {
  static std::map<std::string, std::pair<std::string, std::string>> d;
  return d;
}
} // namespace

std::string Options::normalize(const std::string& key) {
  std::size_t i = 0;
  while (i < key.size() && key[i] == '-') ++i;
  return key.substr(i);
}

Options Options::from_args(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-' || is_value_token(argv[i])) continue;
    const std::string key = normalize(arg);
    if (key.empty()) continue;
    // A value follows unless the next token is another option or absent.
    if (i + 1 < argc && is_value_token(argv[i + 1])) {
      opts.set(key, argv[i + 1]);
      ++i;
    } else {
      opts.set(key, "true");
      opts.bare_.insert(key);
    }
  }
  return opts;
}

void Options::set(const std::string& key, const std::string& value) {
  kv_[normalize(key)] = value;
}

bool Options::has(const std::string& key) const {
  return kv_.count(normalize(key)) > 0;
}

std::string Options::get_string(const std::string& key,
                                const std::string& dflt) const {
  auto it = kv_.find(normalize(key));
  return it == kv_.end() ? dflt : it->second;
}

Index Options::get_index(const std::string& key, Index dflt) const {
  auto it = kv_.find(normalize(key));
  return it == kv_.end() ? dflt : static_cast<Index>(std::stoll(it->second));
}

int Options::get_int(const std::string& key, int dflt) const {
  auto it = kv_.find(normalize(key));
  return it == kv_.end() ? dflt : std::stoi(it->second);
}

Real Options::get_real(const std::string& key, Real dflt) const {
  auto it = kv_.find(normalize(key));
  return it == kv_.end() ? dflt : std::stod(it->second);
}

bool Options::get_bool(const std::string& key, bool dflt) const {
  auto it = kv_.find(normalize(key));
  if (it == kv_.end()) return dflt;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Options::get_list(const std::string& key) const {
  std::vector<std::string> out;
  auto it = kv_.find(normalize(key));
  if (it == kv_.end()) return out;
  const std::string& s = it->second;
  // 'x' acts as a separator only for pure shape strings ("2x2x1") so that
  // string lists containing 'x' ("mx_sweep,tensc") are not mangled.
  bool shape = !s.empty();
  for (char c : s)
    shape = shape && ((c >= '0' && c <= '9') || c == 'x' || c == ',' ||
                      c == ' ');
  std::string cur;
  for (char c : s) {
    if (c == ',' || (shape && c == 'x')) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<Index> Options::get_index_list(const std::string& key) const {
  std::vector<Index> out;
  for (const std::string& s : get_list(key))
    out.push_back(static_cast<Index>(std::stoll(s)));
  return out;
}

namespace {
/// Classic dynamic-programming Levenshtein distance; the key sets are tiny
/// (dozens of flags of ~10 chars), so the O(|a||b|) table is irrelevant.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}
} // namespace

std::vector<std::string> Options::suggest(const std::string& key,
                                          std::size_t max_suggestions) {
  const std::string k = normalize(key);
  // A key qualifies as a near miss within a size-scaled edit distance, or
  // when one string contains the other ("ckpt_dir" -> "checkpoint_dir" never
  // qualifies by distance, but "checkpoint" does by containment).
  const std::size_t budget = std::max<std::size_t>(2, k.size() / 4);
  std::vector<std::pair<std::size_t, std::string>> scored;
  for (const auto& [cand, vh] : descriptions()) {
    (void)vh;
    const std::size_t d = edit_distance(k, cand);
    const bool contains = cand.find(k) != std::string::npos ||
                          k.find(cand) != std::string::npos;
    if (d <= budget || contains) scored.emplace_back(d, cand);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::string> out;
  for (const auto& [d, cand] : scored) {
    (void)d;
    if (out.size() >= max_suggestions) break;
    out.push_back(cand);
  }
  return out;
}

std::vector<Options::UnknownKey> Options::unknown_keys() const {
  std::vector<UnknownKey> out;
  for (const auto& [key, value] : kv_) {
    const auto d = descriptions().find(key);
    if (d == descriptions().end()) {
      out.push_back({key, suggest(key), "", std::nullopt});
      continue;
    }
    const std::string& hint = d->second.first;
    if (hint == "true|false") {
      if (value != "true" && value != "false" && value != "1" &&
          value != "0" && value != "yes" && value != "no")
        out.push_back({key, {}, "", value});
    } else if (bare_.count(key) && !hint.empty()) {
      out.push_back({key, {}, hint, std::nullopt});
    }
  }
  return out;
}

std::string Options::format_unknown(const std::vector<UnknownKey>& unknown) {
  std::string out;
  for (const UnknownKey& u : unknown) {
    if (!u.missing_value.empty()) {
      out += "option -" + u.key + " needs a value " + u.missing_value + "\n";
      continue;
    }
    if (u.bad_value) {
      out += "option -" + u.key + " takes true|false, not '" + *u.bad_value +
             "'\n";
      continue;
    }
    out += "unknown option -" + u.key;
    if (!u.suggestions.empty()) {
      out += " (did you mean ";
      for (std::size_t i = 0; i < u.suggestions.size(); ++i) {
        if (i > 0) out += ", ";
        out += "-" + u.suggestions[i];
      }
      out += "?)";
    }
    out += "\n";
  }
  return out;
}

void Options::describe(const std::string& key, const std::string& value_hint,
                       const std::string& help) {
  descriptions()[normalize(key)] = {value_hint, help};
}

std::string Options::help_text() {
  std::string out;
  for (const auto& [key, vh] : descriptions()) {
    std::string flag = "  -" + key;
    if (!vh.first.empty()) flag += " " + vh.first;
    // Pad the flag column, then emit the help text; continuation lines in
    // the help string are indented to the same column.
    constexpr std::size_t kCol = 38;
    if (flag.size() + 2 > kCol) {
      out += flag + "\n" + std::string(kCol, ' ');
    } else {
      out += flag + std::string(kCol - flag.size(), ' ');
    }
    for (char c : vh.second) {
      out += c;
      if (c == '\n') out += std::string(kCol, ' ');
    }
    out += '\n';
  }
  return out;
}

} // namespace ptatin
