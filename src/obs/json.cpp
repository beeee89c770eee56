#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace gf::obs::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  // JSONL journals nest at most a few levels; the cap only guards against
  // pathological inputs blowing the parser's own stack.
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos;
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode (surrogate pairs are passed through individually —
          // good enough for validation; our emitters never produce them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      return fail("bad number");
    }
    // JSON forbids leading zeros ("01"); our validator enforces it.
    if (text[pos] == '0' && pos + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[pos + 1]))) {
      return fail("leading zero in number");
    }
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad fraction");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad exponent");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    out.type = Value::Type::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    if (std::isinf(out.number)) {
      pos = start;
      return fail("number out of range");
    }
    std::uint64_t n = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), n);
    if (ec == std::errc() && end == token.data() + token.size()) out.uint = n;
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{': {
        ++pos;
        out.type = Value::Type::kObject;
        skip_ws();
        if (pos < text.size() && text[pos] == '}') { ++pos; return true; }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          out.object.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (pos < text.size() && text[pos] == ',') { ++pos; continue; }
          return consume('}');
        }
      }
      case '[': {
        ++pos;
        out.type = Value::Type::kArray;
        skip_ws();
        if (pos < text.size() && text[pos] == ']') { ++pos; return true; }
        while (true) {
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          out.array.push_back(std::move(v));
          skip_ws();
          if (pos < text.size() && text[pos] == ',') { ++pos; continue; }
          return consume(']');
        }
      }
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = Value::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = Value::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = Value::Type::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Value v;
  if (!p.parse_value(v, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at byte " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return v;
}

void Field::fail(std::string_view what) const {
  throw DecodeError((path_.empty() ? "document" : path_) + ": " +
                    std::string(what));
}

const Value& Field::as(Value::Type type, std::string_view what) const {
  if (v_->type != type) fail("expected " + std::string(what));
  return *v_;
}

std::string Field::child(std::string_view key) const {
  return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
}

void Field::keys(const std::vector<std::string_view>& names) const {
  for (const auto& [key, f] : entries()) {
    if (std::find(names.begin(), names.end(), key) == names.end()) {
      f.fail("unexpected key");
    }
  }
  for (const auto name : names) (*this)[name];  // throws "missing"
}

Field Field::operator[](std::string_view key) const {
  const Value* v = as(Value::Type::kObject, "object").find(key);
  if (v == nullptr) Field(*v_, child(key)).fail("missing");
  return Field(*v, child(key));
}

std::vector<Field> Field::items() const {
  const auto& array = as(Value::Type::kArray, "array").array;
  std::vector<Field> out;
  for (std::size_t i = 0; i < array.size(); ++i) {
    out.emplace_back(array[i], path_ + "[" + std::to_string(i) + "]");
  }
  return out;
}

std::vector<std::pair<std::string, Field>> Field::entries() const {
  std::vector<std::pair<std::string, Field>> out;
  for (const auto& [key, v] : as(Value::Type::kObject, "object").object) {
    Field f(v, child(key));
    for (const auto& seen : out) {
      if (seen.first == key) f.fail("duplicate key");
    }
    out.emplace_back(key, std::move(f));
  }
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out += s.substr(run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(u, sizeof u);
      }
    }
  }
  out += s.substr(run);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  // The standard specifies this as printf's "%.10g".
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 10);
  out.append(buf, r.ptr);
}

std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

}  // namespace gf::obs::json
