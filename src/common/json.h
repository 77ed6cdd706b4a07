// Minimal JSON value model, writer and parser.
//
// Used by the MLOps model registry and feature-store catalogs for durable
// metadata, and by model serialization. Covers the full JSON grammar except
// \uXXXX escapes beyond the BMP (sufficient: we only serialize ASCII keys
// and numbers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace memfp {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// Immutable-ish JSON value (null, bool, number, string, array, object).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : type_(Type::kNumber), number_(n) {}
  Json(std::int64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(std::size_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; throw std::runtime_error on type mismatch. as_int and
  /// as_int32 also throw unless the number is finite, integral and fits.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  int as_int32() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; throws when not an object or key missing.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Mutable object/array builders.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Serializes; `indent` < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  static Json parse(const std::string& text);

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

}  // namespace memfp
