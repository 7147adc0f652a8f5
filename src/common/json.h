// Minimal JSON document model for machine-readable benchmark output.
//
// Design constraints (see DESIGN.md §"skybench"):
//  * deterministic serialization — object keys keep insertion order and
//    doubles print as the shortest string that round-trips, so identical
//    results serialize to identical bytes regardless of thread count;
//  * no external dependencies;
//  * a parser (for tests and future tooling that diffs BENCH_*.json files).

#ifndef SKYWALKER_COMMON_JSON_H_
#define SKYWALKER_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skywalker {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                  // NOLINT
  Json(double v) : type_(Type::kNumber), number_(v) {}            // NOLINT
  Json(int v) : type_(Type::kNumber), number_(v) {}               // NOLINT
  Json(int64_t v)                                                 // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(uint64_t v)                                                // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : Json(std::string(s)) {}              // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                   // NOLINT

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }

  // Object access. Set() appends or overwrites in place, preserving the
  // original insertion position on overwrite.
  Json& Set(std::string key, Json value);
  const Json* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& items() const {
    return members_;
  }

  // Array access.
  Json& Append(Json value);
  const std::vector<Json>& elements() const { return elements_; }
  size_t size() const {
    return is_object() ? members_.size() : elements_.size();
  }

  // Serializes with two-space indentation when `indent` is true, compact
  // otherwise. Non-finite numbers serialize as null (JSON has no NaN/Inf).
  std::string Dump(bool indent = true) const;

  // Strict parser; returns nullopt on any syntax error or trailing garbage.
  static std::optional<Json> Parse(std::string_view text);

  // Shortest decimal string that parses back to exactly `v`.
  static std::string FormatNumber(double v);

 private:
  void DumpTo(std::string* out, bool indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> elements_;                         // kArray
  std::vector<std::pair<std::string, Json>> members_;  // kObject
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_JSON_H_
