// Minimal strict JSON parser + writer helpers for the observability layer.
//
// Every machine-readable artifact this repo emits (metrics registries,
// campaign manifests, Chrome trace files, JSONL journals) is validated by
// round-tripping through this parser — in tests/test_obs.cpp, and from the
// command line via tools/json_check. The parser builds a small DOM; it is
// not meant for large documents or hot paths.
//
// Each artifact format has one decoder, beside its renderer, that reads the
// DOM through Field: a typed accessor that knows its JSON path, so a missing
// key, a wrong type, a count that is negative or fractional, or a key the
// renderer never writes is a DecodeError naming the field, never a 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace gf::obs::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  /// Exact value of a number written as an unsigned integer literal (no
  /// sign, fraction or exponent) that fits 64 bits; `number` may round it.
  std::optional<std::uint64_t> uint;
  std::string string;
  std::vector<Value> array;
  /// Key order is preserved (canonical emitters sort their keys, and tests
  /// check that ordering survives the round trip).
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_number() const noexcept { return type == Type::kNumber; }
  bool is_string() const noexcept { return type == Type::kString; }

  /// First member with `key`, or nullptr (objects only).
  const Value* find(std::string_view key) const noexcept;
};

/// Parses one complete JSON document (trailing garbage is an error). On
/// failure returns nullopt and, when `error` is given, a one-line message
/// with the byte offset of the problem.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// A document that does not have the shape its decoder reads. what() is
/// "<path>: <problem>", e.g. "cells[0].derived.spcf: expected number".
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One value of a parsed document and its path from the root. Each accessor
/// checks the shape it reads and throws DecodeError otherwise. The Value
/// must outlive the Field.
class Field {
 public:
  explicit Field(const Value& v, std::string path = {})
      : v_(&v), path_(std::move(path)) {}

  [[noreturn]] void fail(std::string_view what) const;

  bool is_null() const noexcept { return v_->type == Value::Type::kNull; }
  bool boolean() const { return as(Value::Type::kBool, "boolean").boolean; }
  double number() const { return as(Value::Type::kNumber, "number").number; }
  const std::string& string() const {
    return as(Value::Type::kString, "string").string;
  }
  /// A count: an unsigned integer literal no larger than T holds.
  template <class T = std::uint64_t>
  T count() const {
    const auto& n = v_->uint;
    if (!n) fail("expected unsigned integer");
    if (*n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      fail("out of range");
    }
    return static_cast<T>(*n);
  }
  /// Checks that the field is the string `tag` (a schema name).
  void expect(std::string_view tag) const {
    if (string() != tag) fail("expected \"" + std::string(tag) + "\"");
  }
  void read(double& v) const { v = number(); }
  void read(std::uint64_t& v) const { v = count(); }
  void read(int& v) const { v = count<int>(); }
  void read(bool& v) const { v = boolean(); }
  void read(std::string& v) const { v = string(); }

  /// Checks that the field is an object holding exactly `names`, each once,
  /// in any order: the key set its renderer writes.
  void keys(const std::vector<std::string_view>& names) const;
  /// Member `key` of an object.
  Field operator[](std::string_view key) const;
  /// Elements of an array.
  std::vector<Field> items() const;
  /// Members of an object used as a name -> value map (a repeated name
  /// throws: the renderers write maps with unique keys).
  std::vector<std::pair<std::string, Field>> entries() const;

 private:
  const Value& as(Value::Type type, std::string_view what) const;
  std::string child(std::string_view key) const;

  const Value* v_;
  std::string path_;
};

/// Parses `text` and decodes it with T::from_json(Field). A syntax error
/// throws DecodeError too, with parse()'s message.
template <class T>
T decode(std::string_view text) {
  std::string error;
  const auto v = parse(text, &error);
  if (!v) throw DecodeError(error);
  return T::from_json(Field(*v));
}

/// Escapes `s` for embedding between double quotes in JSON output.
std::string escape(std::string_view s);

/// Canonical double formatting for deterministic artifacts: shortest form
/// via %.10g, with NaN/Inf (invalid JSON) clamped to 0.
std::string number(double v);

/// A struct field under its JSON key. A table of Members is the one
/// definition of a flat record: members_json renders it, read_members
/// decodes it.
template <class S>
struct Member {
  std::string_view key;
  std::variant<double S::*, std::uint64_t S::*, int S::*, bool S::*,
               std::string S::*>
      field;
};

/// One member value as the renderers write it.
template <class T>
std::string value_json(const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    return number(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return '"' + escape(v) + '"';
  } else {
    return std::to_string(v);
  }
}

/// `"key": value` for each member of `s`, joined by `sep`.
template <class S, std::size_t N>
std::string members_json(const S& s, const Member<S> (&members)[N],
                         std::string_view sep = ", ") {
  std::string out;
  for (const auto& m : members) {
    if (!out.empty()) out += sep;
    out += '"';
    out += m.key;
    out += "\": ";
    std::visit([&](auto p) { out += value_json(s.*p); }, m.field);
  }
  return out;
}

template <class S, std::size_t N>
std::string object_json(const S& s, const Member<S> (&members)[N]) {
  std::string out = "{";
  out += members_json(s, members);
  out += '}';
  return out;
}

/// Decodes the members of an S from object `f`, whose keys must be exactly
/// the members' plus `extra` (keys the caller reads itself).
template <class S, std::size_t N>
S read_members(const Field& f, const Member<S> (&members)[N],
               std::initializer_list<std::string_view> extra = {}) {
  std::vector<std::string_view> names(extra);
  for (const auto& m : members) names.push_back(m.key);
  f.keys(names);
  S s{};
  for (const auto& m : members) {
    std::visit([&](auto p) { f[m.key].read(s.*p); }, m.field);
  }
  return s;
}

}  // namespace gf::obs::json
