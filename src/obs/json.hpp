// Minimal JSON value tree: writer + parser for the telemetry subsystem.
//
// Every machine-readable artifact this repo emits — Chrome traces, solver
// reports, BENCH_*.json trajectories — goes through this one writer so the
// formats stay consistent and round-trippable. Object key order is preserved
// (insertion order), numbers are emitted with enough digits to round-trip
// doubles exactly, and the parser accepts exactly what the writer produces
// (plus standard JSON it might receive from hand-edited baselines).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ptatin::obs {

class JsonValue {
public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double v) : type_(Type::kNumber), num_(v) {}
  JsonValue(int v) : type_(Type::kNumber), num_(v) {}
  JsonValue(long v) : type_(Type::kNumber), num_(double(v)) {}
  JsonValue(long long v) : type_(Type::kNumber), num_(double(v)) {}
  JsonValue(const char* s) : type_(Type::kString), str_(s) {}
  JsonValue(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Object access: inserts a null member when the key is absent. Calling on
  /// a null value promotes it to an object (builder convenience).
  JsonValue& operator[](const std::string& key);
  /// Lookup without insertion; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Array append. Calling on a null value promotes it to an array.
  void push_back(JsonValue v);

  std::size_t size() const;
  const JsonValue& at(std::size_t i) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  /// Serialize. indent=0 gives compact one-line output; indent>0 pretty-
  /// prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Parse a JSON document. Throws ptatin::Error on malformed input; the
  /// message carries the line/column/offset of the failure. Strict where it
  /// matters for job-spec ingestion: duplicate object keys, trailing
  /// characters after the document, unescaped control characters, and lone
  /// surrogate \u escapes are all rejected (surrogate *pairs* decode to
  /// UTF-8).
  static JsonValue parse(const std::string& text);

private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escape a string for embedding in a JSON document (no surrounding quotes).
std::string json_escape(const std::string& s);

/// Format a double with enough precision to round-trip exactly.
std::string json_number(double v);

} // namespace ptatin::obs
