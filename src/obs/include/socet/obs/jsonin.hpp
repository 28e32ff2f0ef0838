// Minimal JSON reader.
//
// The obs layer *emits* JSON everywhere (reports, traces, BENCH lines);
// the bench harness and the schema tests need to read it back.  This is
// a small recursive-descent parser for that closed loop: full JSON
// value model (null, bool, number, string, array, object), insertion-
// ordered objects, UTF-8 passed through verbatim, `\uXXXX` decoded for
// the escapes our emitter produces.  Not a general-purpose library —
// no streaming, no 64-bit-exact integers beyond double precision, and
// container nesting is capped (~96 levels) so pathological inputs are
// rejected instead of overflowing the parser's stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace socet::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_value;
  std::vector<std::pair<std::string, JsonValue>> object_value;

  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : object_value) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  [[nodiscard]] bool bool_or(bool fallback) const {
    return is_bool() ? bool_value : fallback;
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    return is_string() ? string_value : std::move(fallback);
  }
  /// The number as a uint32_t: false for anything else (a string, a
  /// fraction, a negative or too large value), so a field is never
  /// silently truncated or wrapped.
  [[nodiscard]] bool to_uint32(std::uint32_t* out) const;
};

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).  On failure returns false and, when
/// `error` is non-null, a one-line description with the byte offset.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace socet::obs
