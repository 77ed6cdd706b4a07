#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace memfp {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("Json: " + what);
}

void encode_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void encode_number(std::string& out, double n) {
  if (std::isnan(n) || std::isinf(n)) {
    out += "null";  // JSON has no NaN/Inf; registry consumers treat as null.
    return;
  }
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(n));
    out += buffer;
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", n);
    out += buffer;
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode BMP code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("bad number");
    try {
      return Json(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Json(std::move(items));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') return Json(std::move(members));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) fail("not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) fail("not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double n = as_number();
  // -2^63 and 2^63 are exact doubles; every integral double in between
  // converts without overflow.
  constexpr double kLimit = 9223372036854775808.0;
  if (!std::isfinite(n) || n != std::trunc(n) || n < -kLimit || n >= kLimit) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", n);
    fail(std::string("not an integer: ") + buffer);
  }
  return static_cast<std::int64_t>(n);
}

int Json::as_int32() const {
  const std::int64_t n = as_int();
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    fail("integer out of int range: " + std::to_string(n));
  }
  return static_cast<int>(n);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) fail("not a string");
  return string_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::kArray) fail("not an array");
  return array_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::kObject) fail("not an object");
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) fail("missing key " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) fail("set on non-object");
  object_[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ != Type::kArray) fail("push_back on non-array");
  array_.push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: encode_number(out, number_); break;
    case Type::kString: encode_string(out, string_); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        if (i++ != 0) out += ',';
        newline(depth + 1);
        encode_string(out, key);
        out += indent < 0 ? ":" : ": ";
        value.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace memfp
