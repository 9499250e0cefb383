#ifndef KBFORGE_SERVER_JSON_H_
#define KBFORGE_SERVER_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/statusor.h"

namespace kb {
namespace server {

/// A minimal JSON value for the serving protocol: null, bool, number
/// (double), string, array, object. The parser is strict enough for a
/// network boundary (depth-limited recursion, full escape handling,
/// rejects trailing garbage) and the serializer emits canonical
/// escapes, so fuzzing the framing layer cannot push malformed state
/// past this type.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  /// Parses one complete JSON document (rejects trailing non-space).
  static StatusOr<Json> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  int64_t as_int() const { return static_cast<int64_t>(number_); }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return array_; }
  const std::map<std::string, Json>& fields() const { return object_; }

  /// Object field access; returns a shared null Json when absent or
  /// when this value is not an object (so lookups chain safely).
  const Json& operator[](const std::string& key) const;

  /// Typed field accessors with defaults (missing or wrong type).
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Integer field accessor for untrusted requests. An absent or null
  /// field leaves *out unchanged and returns true; an integral number
  /// representable as T is stored and returns true. Anything else (a
  /// fraction, a value outside T's range, a non-number) returns false
  /// and leaves *out unchanged, so no out-of-range double ever reaches
  /// a narrowing cast.
  template <typename T>
  bool GetInt(const std::string& key, T* out) const {
    static_assert(std::is_integral_v<T>, "GetInt needs an integer type");
    const Json& field = (*this)[key];
    if (field.is_null()) return true;
    if (!field.is_number()) return false;
    const double v = field.number_;
    // T's range as exact doubles: [lowest, 2^digits).
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lowest = std::is_signed_v<T> ? -limit : 0.0;
    if (!(v >= lowest && v < limit) || v != std::trunc(v)) return false;
    *out = static_cast<T>(v);
    return true;
  }

  /// Builder-style mutators (no-ops on the wrong type).
  Json& Set(const std::string& key, Json value);
  Json& Append(Json value);

  /// Serializes compactly (no whitespace).
  std::string Dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_JSON_H_
