#include "common/json.h"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace memfp {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, NestedStructureRoundTrip) {
  Json obj = Json::object();
  obj.set("name", "memfp");
  obj.set("version", 3);
  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back("two");
  arr.push_back(Json::object().set("deep", true));
  obj.set("items", std::move(arr));

  const Json parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "memfp");
  EXPECT_EQ(parsed.at("version").as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed.at("items").as_array()[0].as_number(), 1.5);
  EXPECT_TRUE(parsed.at("items").as_array()[2].at("deep").as_bool());
}

TEST(Json, PrettyAndCompactParseTheSame) {
  Json obj = Json::object();
  obj.set("a", Json::array().push_back(1).push_back(2));
  const Json compact = Json::parse(obj.dump(-1));
  const Json pretty = Json::parse(obj.dump(2));
  EXPECT_EQ(compact.at("a").as_array().size(), pretty.at("a").as_array().size());
}

TEST(Json, StringEscapes) {
  Json value(std::string("line1\nline2\t\"quoted\"\\"));
  const Json parsed = Json::parse(value.dump());
  EXPECT_EQ(parsed.as_string(), "line1\nline2\t\"quoted\"\\");
}

TEST(Json, UnicodeEscapeParses) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  // BMP code point -> UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, NumbersWithExponents) {
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e-2").as_number(), -0.025);
}

TEST(Json, TypeMismatchThrows) {
  const Json number(1.0);
  EXPECT_THROW(number.as_string(), std::runtime_error);
  EXPECT_THROW(number.as_array(), std::runtime_error);
  EXPECT_THROW(number.at("k"), std::runtime_error);
  EXPECT_THROW(Json("7").as_int(), std::runtime_error);
}

TEST(Json, MissingKeyThrows) {
  Json obj = Json::object();
  obj.set("x", 1);
  EXPECT_TRUE(obj.contains("x"));
  EXPECT_FALSE(obj.contains("y"));
  EXPECT_THROW(obj.at("y"), std::runtime_error);
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad : {"{", "[1,", "tru", "\"unterminated", "{\"a\":}",
                          "[1 2]", "{'single':1}", "1 2"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
}

TEST(Json, AsIntAcceptsEveryIntegralInt64) {
  EXPECT_EQ(Json::parse("0").as_int(), 0);
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_EQ(Json::parse("4294967296").as_int(), 4294967296LL);
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Json, AsIntRejectsFractionsNonFiniteAndOutOfRange) {
  // 9223372036854775808 = 2^63, one past the largest int64.
  for (const char* bad : {"1.9", "-0.5", "1e30", "-1e30", "1e999",
                          "9223372036854775808"}) {
    EXPECT_THROW(Json::parse(bad).as_int(), std::runtime_error) << bad;
  }
}

TEST(Json, AsInt32RejectsValuesOutsideInt) {
  EXPECT_EQ(Json::parse("2147483647").as_int32(), 2147483647);
  EXPECT_EQ(Json::parse("-2147483648").as_int32(), -2147483647 - 1);
  for (const char* bad : {"2147483648", "-2147483649", "4294967296"}) {
    EXPECT_THROW(Json::parse(bad).as_int32(), std::runtime_error) << bad;
  }
  EXPECT_THROW(Json::parse("2.5").as_int32(), std::runtime_error);
}

TEST(Json, WhitespaceTolerant) {
  const Json parsed = Json::parse("  { \"a\" :\n[ 1 , 2 ]\t} ");
  EXPECT_EQ(parsed.at("a").as_array().size(), 2u);
}

}  // namespace
}  // namespace memfp
