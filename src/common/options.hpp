// PETSc-style options database: "-key value" command-line pairs with typed
// accessors and defaults. Examples and benches use this to retune solvers
// without recompiling, mirroring how pTatin3D is driven through PETSc options.
//
// Keys are normalized: "-key", "--key", and "key" all resolve to the same
// entry, both when parsing argv and in every accessor, so call sites never
// have to care which spelling the user typed.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin {

class Options {
public:
  Options() = default;

  /// Parse "-key value" and bare "-flag" arguments (argv[0] is skipped).
  /// "--key" is accepted as a synonym for "-key". A bare flag reads as the
  /// string "true" (unknown_keys() reports one that needs a value).
  static Options from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& dflt) const;
  Index get_index(const std::string& key, Index dflt) const;
  int get_int(const std::string& key, int dflt) const;
  Real get_real(const std::string& key, Real dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Comma-separated list value ("4,8,16"); absent key = empty vector. For
  /// convenience 'x' is also accepted as a separator ("2x2x2"), so shapes
  /// and grid sweeps share one list syntax.
  std::vector<std::string> get_list(const std::string& key) const;
  std::vector<Index> get_index_list(const std::string& key) const;

  const std::map<std::string, std::string>& entries() const { return kv_; }

  // --- unknown-key validation ----------------------------------------------
  /// One parsed key that is not in the describe() registry, with up to three
  /// near-miss suggestions (smallest edit distance first); or a registered
  /// one given bare whose description asks for a value (`missing_value` is
  /// then its value hint); or a registered "true|false" flag whose value is
  /// not a boolean (`bad_value` is then that value).
  struct UnknownKey {
    std::string key;
    std::vector<std::string> suggestions;
    std::string missing_value;
    std::optional<std::string> bad_value;
  };

  /// Keys in this database that no Options::describe call registered, bare
  /// flags described with a value hint other than "" or "true|false", and
  /// "true|false" flags whose value is not one of true, false, 1, 0, yes,
  /// no. The driver and the bench binaries treat a non-empty result as a
  /// usage error (exit code 2) instead of silently ignoring the flags,
  /// reading the value "true", or reading a mistyped boolean as false.
  std::vector<UnknownKey> unknown_keys() const;

  /// Near-miss suggestions for `key` from the describe() registry: registered
  /// keys within a small edit distance or sharing a prefix, closest first.
  static std::vector<std::string> suggest(const std::string& key,
                                          std::size_t max_suggestions = 3);

  /// Render unknown keys as a one-per-line usage error message:
  /// "unknown option -foo (did you mean -food, -fool?)",
  /// "option -final_state needs a value FILE", or
  /// "option -newton takes true|false, not 'flase'".
  static std::string format_unknown(const std::vector<UnknownKey>& unknown);

  // --- self-describing help ------------------------------------------------
  /// Register an option description for the generated -help text. Repeated
  /// registration of the same key overwrites (last wins). `value_hint` shows
  /// next to the flag ("N", "px,py,pz", ...); empty = bare flag.
  static void describe(const std::string& key, const std::string& value_hint,
                       const std::string& help);

  /// The generated help text: one "-key HINT  help" line per described
  /// option, sorted by key, wrapped to a fixed flag column.
  static std::string help_text();

private:
  /// "-key" / "--key" -> "key".
  static std::string normalize(const std::string& key);

  std::map<std::string, std::string> kv_;
  std::set<std::string> bare_; ///< keys from_args read without a value
};

} // namespace ptatin
