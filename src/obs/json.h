// Minimal JSON reader shared by the trace tooling (obs/trace_io.cpp) and the
// CI perf gate (tools/bench_check.cpp).
//
// Just enough JSON to read back what this repo writes: objects, arrays,
// strings with the common escapes, numbers, true/false/null.  Not a general
// parser — no streaming, no duplicate-key detection, numbers land in a
// double (exact for the 53-bit integers our files contain).

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace aoft::obs::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      v = nullptr;

  bool is_null() const { return v.index() == 0; }
  bool is_bool() const { return v.index() == 1; }
  bool is_number() const { return v.index() == 2; }
  bool is_string() const { return v.index() == 3; }
  bool is_array() const { return v.index() == 4; }
  bool is_object() const { return v.index() == 5; }
  bool boolean() const { return std::get<1>(v); }
  double num() const { return std::get<2>(v); }
  const std::string& str() const { return std::get<3>(v); }
  const Array& array() const { return *std::get<4>(v); }
  const Object& object() const { return *std::get<5>(v); }
};

// Parse one complete JSON document.  Returns nullopt and fills `error`
// (with a byte offset) on malformed input or trailing characters.
std::optional<Value> parse(std::string_view text, std::string* error);

// Typed field accessors: true iff `key` exists with the matching type.
bool get_num(const Object& o, const char* key, double& out);
bool get_str(const Object& o, const char* key, std::string& out);
bool get_bool(const Object& o, const char* key, bool& out);

// ---- canonical writing helpers ---------------------------------------------
// Shared by the trace serializer (obs/trace_io.cpp) and the campaign slot
// stream (fault/campaign_store.cpp): both formats promise that equal runs
// serialize to equal bytes, so string escaping and double formatting must be
// identical everywhere.

// `s` as a quoted JSON string with the common escapes.
std::string escape(std::string_view s);

// Shortest decimal that round-trips to the same double, so canonical files
// never differ in trailing digits: the smallest %.Ng precision that reads
// back as `v`, found with std::to_chars/std::from_chars.
std::string shortest_double(double v);

}  // namespace aoft::obs::json
