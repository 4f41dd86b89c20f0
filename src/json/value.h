#ifndef DYNO_JSON_VALUE_H_
#define DYNO_JSON_VALUE_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dyno {

class Value;
class StructView;
class RecentShapes;  // value.cc: one thread's last-met shapes.

/// An ordered field list, the input of Value::Struct. Order is preserved
/// so serialization is stable.
using StructFields = std::vector<std::pair<std::string, Value>>;
using ArrayElements = std::vector<Value>;

/// The names of a struct's fields, kept apart from its values: the names
/// in order, a name-to-slot map and the names' wire bytes. A struct value
/// is a shape plus one value per slot.
///
/// Shapes are interned. There is one RowShape per distinct name list
/// (order and duplicates included), created on first use and kept for the
/// rest of the process, so a `const RowShape*` never dangles and two
/// structs have the same names exactly when they have the same shape. The
/// rows of a table share one shape, so a row costs its values only.
/// Interning is thread-safe; each thread first checks the few shapes it
/// met last, so a run of rows with one schema takes no lock.
class RowShape {
 public:
  RowShape(const RowShape&) = delete;
  RowShape& operator=(const RowShape&) = delete;

  /// The shape with exactly these names, in this order.
  static const RowShape* Intern(std::span<const std::string_view> names);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t slot) const { return names_[slot]; }

  /// Slot of the first field named `name`, or -1.
  int Find(std::string_view name) const;

  /// Field `slot`'s name as it is encoded on the wire: varint length, then
  /// the bytes.
  std::string_view encoded_name(size_t slot) const {
    const uint32_t begin = slot == 0 ? 0 : encoded_end_[slot - 1];
    return std::string_view(encoded_).substr(begin,
                                             encoded_end_[slot] - begin);
  }
  /// Total size of every encoded_name.
  size_t encoded_names_size() const { return encoded_.size(); }

  /// The hash Value::Hash mixes in for field `slot`'s name.
  uint64_t name_hash(size_t slot) const { return name_hashes_[slot]; }

  /// Unique per shape, from 1 up; never 0. Lets a slot memo (FieldRef)
  /// name a shape in half a word.
  uint32_t id() const { return id_; }

 private:
  RowShape(std::span<const std::string_view> names, std::string encoded,
           uint32_t id);

  std::vector<std::string> names_;
  std::string encoded_;                 ///< Every encoded name, in order.
  std::vector<uint32_t> encoded_end_;   ///< End of each slot's in encoded_.
  std::vector<uint64_t> name_hashes_;
  /// First slot of each name; built for shapes too wide for a linear scan.
  std::unordered_map<std::string_view, uint32_t> slots_;
  uint32_t id_;
};

/// The dynamic, nested value model of the query engine — the stand-in for
/// Jaql's JSON data model. Records are `Value`s of struct type; nested
/// structs/arrays are pervasive (the paper's running example filters on
/// `rs.addr[0].zip`). Values are ordered, hashable and binary-serializable,
/// which is everything the MapReduce shuffle and the statistics layer need.
class Value {
 public:
  enum class Type : uint8_t {
    kNull = 0,
    kBool = 1,
    kInt = 2,
    kDouble = 3,
    kString = 4,
    kArray = 5,
    kStruct = 6,
  };

  /// Constructs null.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Double(double d) { return Value(Rep(d)); }
  static Value String(std::string s) { return Value(Rep(std::move(s))); }
  static Value Array(ArrayElements elems);
  static Value Struct(StructFields fields);
  /// A struct with `shape`'s names, every field null, and `*values` set to
  /// its value slots, for the caller to fill in place before the value is
  /// copied or read anywhere else.
  static Value Struct(const RowShape* shape, std::span<Value>* values);

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }

  /// Scalar accessors; the caller must have checked `type()`.
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    return std::get<std::string>(rep_);
  }

  /// Numeric view: ints widen to double. Requires kInt or kDouble.
  double AsDouble() const;

  const ArrayElements& array() const { return *std::get<ArrayPtr>(rep_); }

  /// Struct accessors; the caller must have checked `type()`. `fields()`
  /// is a (name, value) view in field order; copy it into a StructFields
  /// to edit.
  const RowShape& shape() const { return *std::get<StructPtr>(rep_)->shape; }
  std::span<const Value> field_values() const {
    return std::get<StructPtr>(rep_)->values();
  }
  StructView fields() const;

  /// Looks up a struct field by name; nullptr when absent or not a struct.
  /// With duplicate names, the first field wins.
  const Value* FindField(std::string_view name) const;

  /// Array element access; nullptr when out of range or not an array.
  const Value* FindElement(size_t index) const;

  /// Total ordering across all values: by type tag first, then by content
  /// (numeric types compare cross-type by numeric value). Gives the shuffle
  /// a deterministic sort and group-by a well-defined key order.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// 64-bit content hash, equal for equal values. Numeric kInt/kDouble that
  /// compare equal hash equal.
  uint64_t Hash() const;

  /// Appends a compact binary encoding to `out`. Every byte written is
  /// accounted by the storage layer, making serialized size the unit of the
  /// simulator's I/O cost model.
  void EncodeTo(std::string* out) const;

  /// Decodes one value from `data` starting at `*offset`, advancing it.
  static Result<Value> Decode(std::string_view data, size_t* offset);

  /// Size in bytes of the binary encoding (without materializing it).
  size_t EncodedSize() const;

  /// JSON-ish human-readable rendering, for debugging and examples.
  std::string ToString() const;

 private:
  /// A struct's shape and values in one allocation: the values trail this
  /// header. Shared, immutable, by every copy of the Value.
  struct StructRep {
    const RowShape* shape;
    std::atomic<uint32_t> refs;
    uint32_t size;

    std::span<Value> values() {
      return {reinterpret_cast<Value*>(this + 1), size};
    }
    std::span<const Value> values() const {
      return {reinterpret_cast<const Value*>(this + 1), size};
    }
  };

  /// Reference-counted owner of a StructRep.
  class StructPtr {
   public:
    explicit StructPtr(StructRep* rep) : rep_(rep) {}
    StructPtr(const StructPtr& other) : rep_(other.rep_) {
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    StructPtr(StructPtr&& other) noexcept : rep_(other.rep_) {
      other.rep_ = nullptr;
    }
    StructPtr& operator=(StructPtr other) noexcept {
      std::swap(rep_, other.rep_);
      return *this;
    }
    ~StructPtr() {
      if (rep_ != nullptr) Release(rep_);
    }

    const StructRep* operator->() const { return rep_; }
    const StructRep& operator*() const { return *rep_; }

   private:
    static void Release(StructRep* rep);

    StructRep* rep_;
  };

  using ArrayPtr = std::shared_ptr<const ArrayElements>;
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           ArrayPtr, StructPtr>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  /// A StructRep of `size` null values and one reference.
  static StructRep* NewStructRep(const RowShape* shape, size_t size);

  /// Decode's recursive worker: builds the value in place in `*out` and
  /// returns nullptr, or returns the error text without a value. A struct
  /// whose names are byte-equal to a shape in `recent` takes that shape.
  static const char* DecodeInto(std::string_view data, size_t* offset,
                                Value* out, RecentShapes* recent);

  Rep rep_;
};

/// The (name, value) pairs of a struct, in field order, as Value::fields()
/// returns them. Iteration yields pairs of references, so
/// `for (const auto& [name, value] : row.fields())` reads in place.
class StructView {
 public:
  using value_type = std::pair<const std::string&, const Value&>;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StructView::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    iterator() = default;
    iterator(const RowShape* shape, const Value* values, size_t slot)
        : shape_(shape), values_(values), slot_(slot) {}
    value_type operator*() const {
      return {shape_->name(slot_), values_[slot_]};
    }
    iterator& operator++() {
      ++slot_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++slot_;
      return old;
    }
    bool operator==(const iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    const RowShape* shape_ = nullptr;
    const Value* values_ = nullptr;
    size_t slot_ = 0;
  };

  StructView(const RowShape* shape, std::span<const Value> values)
      : shape_(shape), values_(values) {}

  size_t size() const { return values_.size(); }
  value_type operator[](size_t slot) const {
    return {shape_->name(slot), values_[slot]};
  }
  iterator begin() const { return iterator(shape_, values_.data(), 0); }
  iterator end() const {
    return iterator(shape_, values_.data(), values_.size());
  }

  /// Copies the fields out, for editing and Value::Struct.
  operator StructFields() const { return StructFields(begin(), end()); }

 private:
  const RowShape* shape_;
  std::span<const Value> values_;
};

inline StructView Value::fields() const {
  const StructRep& rep = *std::get<StructPtr>(rep_);
  return StructView(rep.shape, rep.values());
}

/// One field name with its slot remembered for the last shape it met. A
/// caller that reads the same field row after row (a path step, a join-key
/// column) looks the name up once per shape instead of once per row.
/// `Find` gives exactly `row.FindField(name)`. Safe to share between
/// threads: the memo is one relaxed atomic word.
class FieldRef {
 public:
  explicit FieldRef(std::string name) : name_(std::move(name)) {}
  FieldRef(const FieldRef& other)
      : name_(other.name_), memo_(other.memo_.load(std::memory_order_relaxed)) {}

  const Value* Find(const Value& row) const;

 private:
  std::string name_;
  /// (shape id << 32) | (slot + 1); slot + 1 == 0 records "absent". Zero,
  /// an id no shape has, means nothing is remembered.
  mutable std::atomic<uint64_t> memo_{0};
};

/// Convenience builder for struct rows: `MakeRow({{"id", Value::Int(1)}})`.
Value MakeRow(StructFields fields);

}  // namespace dyno

#endif  // DYNO_JSON_VALUE_H_
