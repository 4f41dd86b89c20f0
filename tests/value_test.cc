#include "json/value.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/row_ops.h"
#include "expr/expr.h"
#include "storage/dfs.h"
#include "test_util.h"

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

// --- RowShape: struct values share interned field-name lists. ---

/// Every observable of `actual` equals the reference copy's view of
/// `expected`: wire bytes, size, hash, order and text.
void ExpectSameAsReference(const Value& actual, const Value& expected) {
  EXPECT_EQ(actual.ToString(), legacy::ToString(expected));
  std::string bytes;
  actual.EncodeTo(&bytes);
  EXPECT_EQ(bytes, legacy::Encode(expected)) << actual.ToString();
  EXPECT_EQ(actual.EncodedSize(), legacy::EncodedSize(expected));
  EXPECT_EQ(actual.Hash(), legacy::Hash(expected));
  EXPECT_EQ(actual.Compare(expected), 0);
  EXPECT_EQ(legacy::Compare(actual, expected), 0);
}

Value Row3(const char* a, const char* b, const char* c, int64_t base) {
  return MakeRow({{a, Value::Int(base)},
                  {b, Value::String("s" + std::to_string(base))},
                  {c, Value::Double(static_cast<double>(base) / 4)}});
}

TEST(RowShapeTest, EqualNameListsShareOneShape) {
  Value a = Row3("x", "y", "z", 1);
  Value b = Row3("x", "y", "z", 2);
  Value reordered = Row3("z", "y", "x", 1);
  EXPECT_EQ(&a.shape(), &b.shape());
  EXPECT_NE(&a.shape(), &reordered.shape());
  EXPECT_EQ(a.shape().size(), 3u);
  EXPECT_EQ(a.shape().name(2), "z");
  EXPECT_EQ(a.fields()[1].first, "y");
  EXPECT_EQ(a.fields()[1].second.string_value(), "s1");
  // Another thread interns into the same table.
  const RowShape* other = nullptr;
  std::thread([&other] { other = &Row3("x", "y", "z", 3).shape(); }).join();
  EXPECT_EQ(other, &a.shape());
  // The view copies out into a StructFields.
  StructFields copy = a.fields();
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0].first, "x");
  EXPECT_EQ(Value::Struct(copy).Compare(a), 0);
}

TEST(RowShapeTest, IrregularRowsInOneSplitDecodeExactly) {
  // Same field count under other names, reordered fields, fewer fields and
  // none, interleaved so the decoder's remembered shapes keep missing.
  std::vector<Value> rows;
  for (int64_t i = 0; i < 300; ++i) {
    switch (i % 7) {
      case 0:
      case 4:
        rows.push_back(Row3("a", "b", "c", i));
        break;
      case 1:
        rows.push_back(Row3("a", "b", "d", i));
        break;
      case 2:
        rows.push_back(Row3("x", "b", "c", i));
        break;
      case 3:
        rows.push_back(Row3("c", "b", "a", i));
        break;
      case 5:
        rows.push_back(MakeRow({{"a", Value::Int(i)}, {"b", Value::Null()}}));
        break;
      default:
        rows.push_back(MakeRow({}));
    }
  }
  for (SplitFormat format : {SplitFormat::kRow, SplitFormat::kColumnar}) {
    Dfs dfs;
    auto file = WriteRows(&dfs, "/irregular", rows, /*target_split_bytes=*/256,
                          format);
    ASSERT_TRUE(file.ok());
    ASSERT_GT((*file)->splits().size(), 3u);
    std::vector<Value> decoded = MustReadAll(**file);
    ASSERT_EQ(decoded.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ExpectSameAsReference(decoded[i], rows[i]);
      EXPECT_EQ(&decoded[i].shape(), &rows[i].shape()) << i;
    }
  }
}

TEST(RowShapeTest, DuplicateNamesKeepFirstFieldSemantics) {
  Value row = MakeRow({{"k", Value::Int(1)},
                       {"v", Value::Int(2)},
                       {"k", Value::Int(3)}});
  ASSERT_EQ(row.fields().size(), 3u);
  EXPECT_EQ(row.FindField("k")->int_value(), 1);
  EXPECT_EQ(FieldRef("k").Find(row)->int_value(), 1);
  std::string bytes;
  row.EncodeTo(&bytes);
  size_t offset = 0;
  Result<Value> decoded = Value::Decode(bytes, &offset);
  ASSERT_TRUE(decoded.ok());
  ExpectSameAsReference(*decoded, row);
  EXPECT_EQ(decoded->FindField("k")->int_value(), 1);

  // Wide shapes find names through a map; the first slot still wins.
  StructFields wide;
  for (int i = 0; i < 12; ++i) {
    std::string name = (i == 2 || i == 10) ? "dup" : "w" + std::to_string(i);
    wide.emplace_back(name, Value::Int(i));
  }
  Value wide_row = Value::Struct(wide);
  EXPECT_EQ(wide_row.FindField("dup")->int_value(), 2);
  EXPECT_EQ(wide_row.FindField("w11")->int_value(), 11);
  EXPECT_EQ(wide_row.FindField("w2"), nullptr);
  EXPECT_EQ(legacy::FindField(wide_row, "dup"), wide_row.FindField("dup"));

  // MergeRows keeps the left side whole, duplicates included, and adds a
  // right name only the first time it is new.
  Value left = MakeRow({{"k", Value::Int(1)},
                        {"a", Value::Int(2)},
                        {"k", Value::Int(3)}});
  Value right = MakeRow({{"a", Value::Int(9)},
                         {"z", Value::Int(4)},
                         {"z", Value::Int(5)},
                         {"k", Value::Int(7)},
                         {"y", Value::Int(6)}});
  for (int pass = 0; pass < 2; ++pass) {  // The second pass is memoized.
    Value merged = MergeRows(left, right);
    EXPECT_EQ(merged.ToString(), "{k: 1, a: 2, k: 3, z: 4, y: 6}");
  }
}

TEST(RowShapeTest, NestedStructsAndArraysRoundTrip) {
  auto addr = [](const char* zip, const char* city) {
    return MakeRow({{"zip", Value::String(zip)}, {"city", Value::String(city)}});
  };
  Value row = MakeRow(
      {{"id", Value::Int(7)},
       {"addr", Value::Array({addr("95120", "San Jose"), addr("10001", "NY")})},
       {"meta", MakeRow({{"tags", Value::Array({Value::String("x")})},
                         {"inner", MakeRow({{"zip", Value::Int(3)}})}})}});
  std::string bytes;
  row.EncodeTo(&bytes);
  size_t offset = 0;
  Result<Value> decoded = Value::Decode(bytes, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, bytes.size());
  ExpectSameAsReference(*decoded, row);
  const Value& first = decoded->FindField("addr")->array()[0];
  const Value& second = decoded->FindField("addr")->array()[1];
  EXPECT_EQ(&first.shape(), &second.shape());
  ExprPtr zip = Path({PathStep::Field("addr"), PathStep::Index(1),
                      PathStep::Field("zip")});
  EXPECT_EQ(zip->Eval(*decoded)->string_value(), "10001");
  ExprPtr inner = Path({PathStep::Field("meta"), PathStep::Field("inner"),
                        PathStep::Field("zip")});
  EXPECT_EQ(inner->Eval(*decoded)->int_value(), 3);
}

TEST(RowShapeTest, CodecMatchesReferenceCopy) {
  // Names from a small pool, so shapes repeat, reorder and duplicate.
  static const char* const kNames[] = {"a", "b", "c", "longer_field_name", ""};
  Rng rng(17);
  std::function<Value(int)> random_value = [&](int depth) -> Value {
    const uint64_t dice = rng.Uniform(depth >= 3 ? 4 : 6);
    if (dice == 4) {
      ArrayElements elems;
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        elems.push_back(random_value(depth + 1));
      }
      return Value::Array(std::move(elems));
    }
    if (dice == 5) {
      StructFields fields;
      for (uint64_t i = rng.Uniform(6); i > 0; --i) {
        fields.emplace_back(kNames[rng.Uniform(5)], random_value(depth + 1));
      }
      return Value::Struct(std::move(fields));
    }
    switch (dice) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Int(static_cast<int64_t>(rng.Uniform(1000)) - 500);
      case 2:
        return Value::Double(static_cast<double>(rng.Uniform(8)) / 2);
      default:
        return Value::String(kNames[rng.Uniform(5)]);
    }
  };
  Value previous;
  for (int i = 0; i < 2000; ++i) {
    Value v = random_value(0);
    ExpectSameAsReference(v, v);
    std::string bytes;
    v.EncodeTo(&bytes);
    size_t offset = 0;
    Result<Value> decoded = Value::Decode(bytes, &offset);
    ASSERT_TRUE(decoded.ok());
    ExpectSameAsReference(*decoded, v);
    EXPECT_EQ(v.Compare(previous), legacy::Compare(v, previous));
    EXPECT_EQ(previous.Compare(v), legacy::Compare(previous, v));
    for (const char* name : kNames) {
      EXPECT_EQ(v.FindField(name), legacy::FindField(v, name));
    }
    previous = *decoded;
  }
}

TEST(RowShapeTest, FieldRefFollowsShapeChanges) {
  const FieldRef ref("b");
  const std::vector<Value> rows = {
      Row3("a", "b", "c", 1), MakeRow({{"b", Value::Int(2)}}),
      Row3("x", "y", "z", 3), Row3("a", "b", "c", 4), Value::Int(5),
      MakeRow({{"c", Value::Int(6)}, {"b", Value::Int(7)}})};
  for (int pass = 0; pass < 2; ++pass) {
    for (const Value& row : rows) {
      EXPECT_EQ(ref.Find(row), row.FindField("b")) << row.ToString();
    }
  }
  FieldRef copy = ref;
  EXPECT_EQ(copy.Find(rows[1]), rows[1].FindField("b"));
}

TEST(RowShapeTest, ConcurrentDecodeOfOneTable) {
  // Four readers decode one table at once, sharing one FieldRef and one
  // path expression, while rows of three shapes alternate within splits.
  std::vector<Value> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    if (i % 3 == 0) {
      rows.push_back(Row3("a", "b", "c", i));
    } else if (i % 3 == 1) {
      rows.push_back(Row3("c", "b", "a", i));
    } else {
      rows.push_back(MakeRow({{"b", Row3("a", "b", "c", i)}}));
    }
  }
  std::vector<std::string> expected;
  for (const Value& row : rows) expected.push_back(legacy::Encode(row));
  Dfs dfs;
  auto file = WriteRows(&dfs, "/shared", rows, /*target_split_bytes=*/2048);
  ASSERT_TRUE(file.ok());
  const FieldRef ref("b");
  const ExprPtr path = Path({PathStep::Field("b"), PathStep::Field("a")});
  std::atomic<int> mismatches{0};
  auto reader = [&] {
    size_t index = 0;
    for (const Split& split : (*file)->splits()) {
      Result<std::vector<Value>> decoded = DecodeSplitRows(split);
      if (!decoded.ok()) {
        ++mismatches;
        return;
      }
      for (const Value& row : *decoded) {
        std::string bytes;
        row.EncodeTo(&bytes);
        Result<Value> a = path->Eval(row);
        const Value* b = legacy::FindField(row, "b");
        const Value* want_a = b == nullptr ? nullptr : legacy::FindField(*b, "a");
        if (bytes != expected[index++] || ref.Find(row) != b || !a.ok() ||
            (want_a == nullptr ? !a->is_null() : a->Compare(*want_a) != 0)) {
          ++mismatches;
        }
      }
    }
    if (index != rows.size()) ++mismatches;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(reader);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dyno
