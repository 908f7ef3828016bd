// The one JSON layer: insertion-ordered objects, stable serialization,
// strict depth-bounded parsing, and the escaper, number formatter and
// JSONL splicer every exporter writes through.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/json.h"

namespace agrarsec::core {
namespace {

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json object = Json::object();
  object.set("zulu", Json::number(1));
  object.set("alpha", Json::number(2));
  EXPECT_EQ(object.serialize(0), "{\"zulu\":1,\"alpha\":2}");
  object.set("zulu", Json::number(3));  // replace in place, keep position
  EXPECT_EQ(object.serialize(0), "{\"zulu\":3,\"alpha\":2}");
}

TEST(Json, IntegralNumbersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json::number(42).serialize(0), "42");
  EXPECT_EQ(Json::number(-1).serialize(0), "-1");
  EXPECT_EQ(Json::number(1.5).serialize(0), "1.5");
  EXPECT_EQ(Json::number(0.1).serialize(0), "0.1");
}

TEST(Json, NumbersUseTheShortestRoundTripForm) {
  // Frozen bytes: the golden session exports contain "hi":5e+01.
  for (const auto& [value, text] :
       {std::pair{50.0, "5e+01"}, std::pair{12.5, "12.5"}, std::pair{0.1, "0.1"}}) {
    std::string out;
    append_json_number(out, value);
    EXPECT_EQ(out, text);
  }
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").serialize(0), "\"a\\\"b\\\\c\\nd\"");
  // Every control byte is escaped, never dropped.
  std::string out;
  append_json_string(out, "\r\t\x01\x1f");
  EXPECT_EQ(out, "\"\\r\\t\\u0001\\u001f\"");
}

TEST(Json, JsonlSplicesIntoAnArray) {
  const char* both = "[{\"a\":1},{\"b\":2}]";
  for (const auto& [jsonl, array] :
       {std::pair{"", "[]"}, std::pair{"{\"a\":1}\n{\"b\":2}\n", both},
        std::pair{"{\"a\":1}\n{\"b\":2}", both},            // no final newline
        std::pair{"\n{\"a\":1}\n\n\n{\"b\":2}\n", both}}) {  // blank lines
    std::string out;
    append_jsonl_as_array(out, jsonl);
    EXPECT_EQ(out, array) << "input: " << jsonl;
  }
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"version": 1, "items": ["a", "b"], "flag": true, "none": null})";
  std::string error;
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is(Json::Kind::kObject));
  ASSERT_NE(parsed->find("version"), nullptr);
  EXPECT_EQ(parsed->find("version")->as_number(), 1.0);
  ASSERT_NE(parsed->find("items"), nullptr);
  ASSERT_TRUE(parsed->find("items")->is(Json::Kind::kArray));
  ASSERT_EQ(parsed->find("items")->items().size(), 2u);
  EXPECT_EQ(parsed->find("items")->items()[0].as_string(), "a");
  EXPECT_TRUE(parsed->find("flag")->as_bool());
  EXPECT_TRUE(parsed->find("none")->is(Json::Kind::kNull));
}

TEST(Json, ParseUnicodeEscapes) {
  std::string error;
  const auto parsed = Json::parse("\"\\u00e4A\"", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->as_string(),
            "\xc3\xa4"
            "A");  // UTF-8 for U+00E4
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(Json::parse("1 trailing", &error).has_value());
  EXPECT_FALSE(Json::parse("'single'", &error).has_value());
}

TEST(Json, ParseRejectsNestingPastMaxDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  std::string error;
  EXPECT_TRUE(Json::parse(nested(Json::kMaxDepth), &error).has_value()) << error;
  EXPECT_FALSE(Json::parse(nested(Json::kMaxDepth + 1), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  // Deep enough to overflow the stack of an unbounded recursive parser.
  error.clear();
  EXPECT_FALSE(Json::parse(std::string(100000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(Json::parse("{\"a\":" + std::string(100000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(Json, SerializeParseSerializeIsStable) {
  Json inner = Json::array();
  inner.push(Json::string("x"));
  inner.push(Json::number(2));
  Json object = Json::object();
  object.set("findings", std::move(inner));
  object.set("nested", Json::object());
  const std::string once = object.serialize(2);
  std::string error;
  const auto reparsed = Json::parse(once, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->serialize(2), once);
}

}  // namespace
}  // namespace agrarsec::core
