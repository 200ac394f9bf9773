#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace aoft::obs::json {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> parse() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return v;
  }

 private:
  std::optional<Value> fail(const std::string& what) {
    if (error_) *error_ = what + " at offset " + std::to_string(pos_);
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    auto obj = std::make_shared<Object>();
    skip_ws();
    if (consume('}')) return Value{obj};
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) return fail("expected ':'");
      auto val = parse_value();
      if (!val) return std::nullopt;
      (*obj)[key->str()] = std::move(*val);
      if (consume(',')) continue;
      if (consume('}')) return Value{obj};
      return fail("expected ',' or '}'");
    }
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    auto arr = std::make_shared<Array>();
    skip_ws();
    if (consume(']')) return Value{arr};
    for (;;) {
      auto val = parse_value();
      if (!val) return std::nullopt;
      arr->push_back(std::move(*val));
      if (consume(',')) continue;
      if (consume(']')) return Value{arr};
      return fail("expected ',' or ']'");
    }
  }

  std::optional<Value> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Value{{out}};
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Traces only escape control characters; encode as UTF-8 anyway.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  std::optional<Value> parse_bool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Value{{true}};
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Value{{false}};
    }
    return fail("bad literal");
  }

  std::optional<Value> parse_null() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Value{};
    }
    return fail("bad literal");
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) return fail("expected value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    return Value{{d}};
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, error).parse();
}

bool get_num(const Object& o, const char* key, double& out) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_number()) return false;
  out = it->second.num();
  return true;
}

bool get_str(const Object& o, const char* key, std::string& out) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_string()) return false;
  out = it->second.str();
  return true;
}

bool get_bool(const Object& o, const char* key, bool& out) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_bool()) return false;
  out = it->second.boolean();
  return true;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// The smallest %.Ng precision whose output reads back as v, or %.17g when
// none up to 16 does (non-finite values print as %.17g does).  No precision
// below the digit count of the shortest round-trip form can read back, so
// the search starts there.  It cannot always stop there: the shortest form
// of 2^-24 has 16 digits, but %.16g rounds the exact binary value
// differently and misses, so the answer is %.17g.
std::string shortest_double(double v) {
  char buf[32];
  if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  char* end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::scientific).ptr;
  char* const exp = std::find(buf, end, 'e');
  int prec = static_cast<int>(
      std::count_if(buf, exp, [](char c) { return c >= '0' && c <= '9'; }));
  for (;; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        prec).ptr;
    double back = 0.0;
    if (prec == 17 ||
        (std::from_chars(buf, end, back).ec == std::errc{} && back == v))
      return {buf, end};
  }
}

}  // namespace aoft::obs::json
