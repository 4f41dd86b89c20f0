#include "json/value.h"

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dyno {
namespace {

TEST(ValueTest, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(-42).int_value(), -42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Null().type(), Value::Type::kNull);
  EXPECT_EQ(Value::Bool(false).type(), Value::Type::kBool);
  EXPECT_EQ(Value::Int(1).type(), Value::Type::kInt);
  EXPECT_EQ(Value::Double(1.0).type(), Value::Type::kDouble);
  EXPECT_EQ(Value::String("").type(), Value::Type::kString);
  EXPECT_EQ(Value::Array({}).type(), Value::Type::kArray);
  EXPECT_EQ(Value::Struct({}).type(), Value::Type::kStruct);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(7.1).Compare(Value::Int(7)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ArrayComparisonIsLexicographic) {
  Value a = Value::Array({Value::Int(1), Value::Int(2)});
  Value b = Value::Array({Value::Int(1), Value::Int(3)});
  Value c = Value::Array({Value::Int(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(a.Compare(c), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ValueTest, CrossTypeOrderingIsByTypeTag) {
  // null < bool < numeric < string < array < struct.
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
  EXPECT_LT(Value::String("zzz").Compare(Value::Array({})), 0);
  EXPECT_LT(Value::Array({}).Compare(Value::Struct({})), 0);
}

TEST(ValueTest, FieldLookup) {
  Value row = MakeRow({{"a", Value::Int(1)}, {"b", Value::String("x")}});
  ASSERT_NE(row.FindField("a"), nullptr);
  EXPECT_EQ(row.FindField("a")->int_value(), 1);
  EXPECT_EQ(row.FindField("missing"), nullptr);
  EXPECT_EQ(Value::Int(1).FindField("a"), nullptr);
}

TEST(ValueTest, ElementLookup) {
  Value arr = Value::Array({Value::Int(10), Value::Int(20)});
  ASSERT_NE(arr.FindElement(1), nullptr);
  EXPECT_EQ(arr.FindElement(1)->int_value(), 20);
  EXPECT_EQ(arr.FindElement(2), nullptr);
  EXPECT_EQ(Value::Int(1).FindElement(0), nullptr);
}

TEST(ValueTest, HashEqualForEqualValues) {
  Value a = MakeRow({{"k", Value::Int(7)}, {"s", Value::String("v")}});
  Value b = MakeRow({{"k", Value::Int(7)}, {"s", Value::String("v")}});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
}

TEST(ValueTest, HashDiffersForDifferentValues) {
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
  EXPECT_NE(Value::String("a").Hash(), Value::String("b").Hash());
}

TEST(ValueTest, EncodeDecodeRoundTripScalars) {
  std::vector<Value> values = {
      Value::Null(),           Value::Bool(true),
      Value::Int(0),           Value::Int(-1234567),
      Value::Int(INT64_MAX),   Value::Int(INT64_MIN),
      Value::Double(3.14159),  Value::Double(-0.0),
      Value::String(""),       Value::String("hello world"),
  };
  for (const Value& v : values) {
    std::string buf;
    v.EncodeTo(&buf);
    EXPECT_EQ(buf.size(), v.EncodedSize()) << v.ToString();
    size_t offset = 0;
    auto decoded = Value::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(decoded->Compare(v), 0) << v.ToString();
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(ValueTest, EncodeDecodeRoundTripNested) {
  Value v = MakeRow({
      {"id", Value::Int(42)},
      {"addr", Value::Array({Value::Struct({{"zip", Value::Int(94301)},
                                            {"state", Value::String("CA")}}),
                             Value::Null()})},
      {"score", Value::Double(1.5)},
  });
  std::string buf;
  v.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), v.EncodedSize());
  size_t offset = 0;
  auto decoded = Value::Decode(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Compare(v), 0);
}

TEST(ValueTest, DecodeTruncatedFails) {
  Value v = Value::String("hello");
  std::string buf;
  v.EncodeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  EXPECT_FALSE(Value::Decode(buf, &offset).ok());
}

Value RandomValue(Rng* rng, int depth) {
  switch (rng->Uniform(depth > 0 ? 7 : 5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      // Small negatives, then the full 64-bit range (ten-byte varints).
      return Value::Int(rng->Bernoulli(0.5)
                            ? -static_cast<int64_t>(rng->Uniform(1000))
                            : static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Double(rng->NextDouble() * 2e6 - 1e6);
    case 4:
      // Up to 300 bytes, so lengths take one- and two-byte varints.
      return Value::String(std::string(
          rng->Uniform(300), static_cast<char>('a' + rng->Uniform(26))));
    case 5: {
      ArrayElements elems;
      for (uint64_t n = rng->Uniform(4); n > 0; --n) {
        elems.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Array(std::move(elems));
    }
    default: {
      StructFields fields;
      for (uint64_t n = rng->Uniform(4); n > 0; --n) {
        fields.emplace_back(std::string(1 + rng->Uniform(12), 'f'),
                            RandomValue(rng, depth - 1));
      }
      return Value::Struct(std::move(fields));
    }
  }
}

/// A struct holding an array of structs, plus random nested values.
Value RandomRow(Rng* rng) {
  ArrayElements items;
  for (uint64_t n = 1 + rng->Uniform(3); n > 0; --n) {
    items.push_back(MakeRow({{"k", Value::Int(-static_cast<int64_t>(
                                       rng->Uniform(1u << 20)))},
                             {"v", RandomValue(rng, 2)}}));
  }
  return MakeRow({{"id", RandomValue(rng, 0)},
                  {"items", Value::Array(std::move(items))},
                  {"extra", RandomValue(rng, 3)}});
}

TEST(ValueTest, EveryProperPrefixOfAnEncodingFailsWithAKnownError) {
  const std::set<std::string> known = {
      "truncated value",           "truncated bool",
      "malformed varint",          "truncated double",
      "bad string",                "array count exceeds input",
      "field count exceeds input", "bad field name",
      "unknown value tag"};
  Rng rng(2014);
  for (int i = 0; i < 200; ++i) {
    Value v = RandomRow(&rng);
    std::string buf;
    v.EncodeTo(&buf);
    ASSERT_EQ(buf.size(), v.EncodedSize());
    size_t offset = 0;
    auto decoded = Value::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(offset, buf.size());
    std::string again;
    decoded->EncodeTo(&again);
    ASSERT_EQ(again, buf) << v.ToString();
    for (size_t len = 0; len < buf.size(); ++len) {
      size_t prefix_offset = 0;
      auto truncated =
          Value::Decode(std::string_view(buf).substr(0, len), &prefix_offset);
      ASSERT_FALSE(truncated.ok()) << "prefix " << len << " of " << buf.size();
      EXPECT_EQ(truncated.status().code(), StatusCode::kInternal);
      EXPECT_EQ(known.count(truncated.status().message()), 1u)
          << truncated.status().message();
    }
  }
}

TEST(ValueTest, MultipleValuesDecodeSequentially) {
  std::string buf;
  Value::Int(1).EncodeTo(&buf);
  Value::String("two").EncodeTo(&buf);
  Value::Double(3.0).EncodeTo(&buf);
  size_t offset = 0;
  EXPECT_EQ(Value::Decode(buf, &offset)->int_value(), 1);
  EXPECT_EQ(Value::Decode(buf, &offset)->string_value(), "two");
  EXPECT_DOUBLE_EQ(Value::Decode(buf, &offset)->double_value(), 3.0);
  EXPECT_EQ(offset, buf.size());
}

TEST(ValueTest, ToStringRendersJson) {
  Value v = MakeRow({{"a", Value::Int(1)},
                     {"b", Value::Array({Value::String("x")})}});
  EXPECT_EQ(v.ToString(), "{a: 1, b: [\"x\"]}");
}

TEST(ValueTest, SharedStructureIsCheapToCopy) {
  ArrayElements big;
  for (int i = 0; i < 1000; ++i) big.push_back(Value::Int(i));
  Value a = Value::Array(std::move(big));
  Value b = a;  // shares the underlying array
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_EQ(&a.array(), &b.array());
}

}  // namespace
}  // namespace dyno
