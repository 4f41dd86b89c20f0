#include "json/value.h"

#include <array>
#include <cmath>
#include <cstring>
#include <mutex>

#include "common/hash.h"
#include "common/string_util.h"

namespace dyno {

namespace {

void EncodeVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Reads one varint at `*offset`, advancing it. Returns nullptr on success,
/// else the error text.
const char* ReadVarint(std::string_view data, size_t* offset, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*offset < data.size()) {
    uint8_t b = static_cast<uint8_t>(data[(*offset)++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) {
      *out = v;
      return nullptr;
    }
    shift += 7;
    if (shift > 63) break;
  }
  return "malformed varint";
}

uint64_t DoubleHashKey(double d) {
  // Integral doubles hash as their integer value so 1 and 1.0 collide (they
  // also compare equal).
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return static_cast<uint64_t>(static_cast<int64_t>(d));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Every interned shape, by its encoded names. Never destroyed: shapes
/// outlive every Value, including those in other statics.
struct ShapeTable {
  std::mutex mu;
  std::unordered_map<std::string_view, const RowShape*> by_encoding;
  uint32_t next_id = 1;
};

ShapeTable& Shapes() {
  static ShapeTable* table = new ShapeTable();
  return *table;
}

/// Fields at or below this count are found by a linear scan.
constexpr size_t kLinearFindFields = 8;

}  // namespace

/// The last few shapes one thread met, most recent first. Intern checks
/// them by name before it takes the table's lock, and the decoder checks
/// them by wire bytes before it parses any name, so a run of rows with one
/// schema (a split, a generated table) costs no lock and no allocation.
class RecentShapes {
 public:
  static RecentShapes& ForThisThread() {
    thread_local RecentShapes recent;
    return recent;
  }

  /// A shape of `count` fields whose first encoded name starts `input`.
  /// The decoder verifies the remaining names as it reads them.
  const RowShape* Candidate(uint64_t count, std::string_view input) const {
    for (const RowShape* shape : shapes_) {
      if (shape == nullptr) break;
      if (shape->size() != count) continue;
      if (count == 0 || input.starts_with(shape->encoded_name(0))) {
        return shape;
      }
    }
    return nullptr;
  }

  /// The remembered shape with exactly `names`, moved to the front.
  const RowShape* Find(std::span<const std::string_view> names) {
    for (size_t i = 0; i < shapes_.size() && shapes_[i] != nullptr; ++i) {
      const RowShape* shape = shapes_[i];
      if (shape->size() != names.size()) continue;
      size_t slot = 0;
      while (slot < names.size() && shape->name(slot) == names[slot]) ++slot;
      if (slot == names.size()) {
        MoveToFront(i);
        return shape;
      }
    }
    return nullptr;
  }

  void Remember(const RowShape* shape) {
    shapes_.back() = shape;
    MoveToFront(shapes_.size() - 1);
  }

 private:
  void MoveToFront(size_t i) {
    const RowShape* shape = shapes_[i];
    for (; i > 0; --i) shapes_[i] = shapes_[i - 1];
    shapes_[0] = shape;
  }

  std::array<const RowShape*, 8> shapes_{};
};

RowShape::RowShape(std::span<const std::string_view> names,
                   std::string encoded, uint32_t id)
    : encoded_(std::move(encoded)), id_(id) {
  names_.reserve(names.size());
  encoded_end_.reserve(names.size());
  name_hashes_.reserve(names.size());
  uint32_t end = 0;
  for (std::string_view name : names) {
    names_.emplace_back(name);
    end += static_cast<uint32_t>(VarintSize(name.size()) + name.size());
    encoded_end_.push_back(end);
    name_hashes_.push_back(HashBytes(name, 0));
  }
  if (names_.size() > kLinearFindFields) {
    // emplace keeps the first slot of a duplicate name.
    for (size_t i = 0; i < names_.size(); ++i) {
      slots_.emplace(names_[i], static_cast<uint32_t>(i));
    }
  }
}

const RowShape* RowShape::Intern(std::span<const std::string_view> names) {
  RecentShapes& recent = RecentShapes::ForThisThread();
  if (const RowShape* shape = recent.Find(names)) return shape;
  std::string encoded;
  for (std::string_view name : names) {
    EncodeVarint(name.size(), &encoded);
    encoded.append(name);
  }
  ShapeTable& table = Shapes();
  const RowShape* shape = nullptr;
  {
    std::lock_guard<std::mutex> lock(table.mu);
    auto it = table.by_encoding.find(encoded);
    if (it != table.by_encoding.end()) {
      shape = it->second;
    } else {
      shape = new RowShape(names, std::move(encoded), table.next_id++);
      table.by_encoding.emplace(shape->encoded_, shape);
    }
  }
  recent.Remember(shape);
  return shape;
}

int RowShape::Find(std::string_view name) const {
  if (names_.size() <= kLinearFindFields) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  auto it = slots_.find(name);
  return it == slots_.end() ? -1 : static_cast<int>(it->second);
}

const Value* FieldRef::Find(const Value& row) const {
  if (row.type() != Value::Type::kStruct) return nullptr;
  const RowShape& shape = row.shape();
  const uint64_t memo = memo_.load(std::memory_order_relaxed);
  int slot;
  if ((memo >> 32) == shape.id()) {
    slot = static_cast<int>(static_cast<uint32_t>(memo)) - 1;
  } else {
    slot = shape.Find(name_);
    memo_.store((static_cast<uint64_t>(shape.id()) << 32) |
                    static_cast<uint32_t>(slot + 1),
                std::memory_order_relaxed);
  }
  return slot < 0 ? nullptr : &row.field_values()[slot];
}

Value Value::Array(ArrayElements elems) {
  return Value(Rep(std::make_shared<const ArrayElements>(std::move(elems))));
}

Value Value::Struct(StructFields fields) {
  std::vector<std::string_view> names;
  names.reserve(fields.size());
  for (const auto& [name, value] : fields) names.push_back(name);
  std::span<Value> values;
  Value out = Struct(RowShape::Intern(names), &values);
  for (size_t i = 0; i < fields.size(); ++i) {
    values[i] = std::move(fields[i].second);
  }
  return out;
}

Value Value::Struct(const RowShape* shape, std::span<Value>* values) {
  StructRep* rep = NewStructRep(shape, shape->size());
  *values = rep->values();
  return Value(Rep(StructPtr(rep)));
}

Value::StructRep* Value::NewStructRep(const RowShape* shape, size_t size) {
  static_assert(sizeof(StructRep) % alignof(Value) == 0);
  void* memory = ::operator new(sizeof(StructRep) + size * sizeof(Value));
  auto* rep = new (memory) StructRep{shape, {1}, static_cast<uint32_t>(size)};
  for (Value& slot : rep->values()) new (&slot) Value();
  return rep;
}

void Value::StructPtr::Release(StructRep* rep) {
  if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  for (Value& value : rep->values()) value.~Value();
  rep->~StructRep();
  ::operator delete(rep);
}

Value::Type Value::type() const {
  return static_cast<Type>(rep_.index());
}

double Value::AsDouble() const {
  if (type() == Type::kInt) return static_cast<double>(int_value());
  return double_value();
}

const Value* Value::FindField(std::string_view name) const {
  if (type() != Type::kStruct) return nullptr;
  const StructRep& rep = *std::get<StructPtr>(rep_);
  const int slot = rep.shape->Find(name);
  return slot < 0 ? nullptr : &rep.values()[slot];
}

const Value* Value::FindElement(size_t index) const {
  if (type() != Type::kArray) return nullptr;
  const auto& elems = array();
  if (index >= elems.size()) return nullptr;
  return &elems[index];
}

int Value::Compare(const Value& other) const {
  Type a = type();
  Type b = other.type();
  // Numeric types compare by value across kInt/kDouble.
  bool a_num = (a == Type::kInt || a == Type::kDouble);
  bool b_num = (b == Type::kInt || b == Type::kDouble);
  if (a_num && b_num) {
    double x = AsDouble();
    double y = other.AsDouble();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a != b) return a < b ? -1 : 1;
  switch (a) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return static_cast<int>(bool_value()) -
             static_cast<int>(other.bool_value());
    case Type::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kArray: {
      const auto& x = array();
      const auto& y = other.array();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = x[i].Compare(y[i]);
        if (c != 0) return c;
      }
      if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
      return 0;
    }
    case Type::kStruct: {
      const StructRep& x = *std::get<StructPtr>(rep_);
      const StructRep& y = *std::get<StructPtr>(other.rep_);
      // Interned shapes: one pointer means equal names throughout.
      const bool same_names = x.shape == y.shape;
      size_t n = std::min(x.size, y.size);
      for (size_t i = 0; i < n; ++i) {
        if (!same_names) {
          int c = x.shape->name(i).compare(y.shape->name(i));
          if (c != 0) return c < 0 ? -1 : 1;
        }
        int c = x.values()[i].Compare(y.values()[i]);
        if (c != 0) return c;
      }
      if (x.size != y.size) return x.size < y.size ? -1 : 1;
      return 0;
    }
    default:
      return 0;  // kInt/kDouble handled above.
  }
}

uint64_t Value::Hash() const {
  switch (type()) {
    case Type::kNull:
      return 0x6e756c6cULL;
    case Type::kBool:
      return bool_value() ? 0x74727565ULL : 0x66616c73ULL;
    case Type::kInt:
      return Mix64(static_cast<uint64_t>(int_value()));
    case Type::kDouble:
      return Mix64(DoubleHashKey(double_value()));
    case Type::kString:
      return HashBytes(string_value(), /*seed=*/0x737472ULL);
    case Type::kArray: {
      uint64_t h = 0x617272ULL;
      for (const auto& e : array()) h = HashCombine(h, e.Hash());
      return h;
    }
    case Type::kStruct: {
      const StructRep& rep = *std::get<StructPtr>(rep_);
      uint64_t h = 0x6f626aULL;
      for (size_t i = 0; i < rep.size; ++i) {
        h = HashCombine(h, rep.shape->name_hash(i));
        h = HashCombine(h, rep.values()[i].Hash());
      }
      return h;
    }
  }
  return 0;
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type()));
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      out->push_back(bool_value() ? 1 : 0);
      break;
    case Type::kInt: {
      // Zigzag so small negative ints stay short.
      int64_t v = int_value();
      uint64_t zz =
          (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
      EncodeVarint(zz, out);
      break;
    }
    case Type::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &std::get<double>(rep_), sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
      }
      break;
    }
    case Type::kString: {
      const std::string& s = string_value();
      EncodeVarint(s.size(), out);
      out->append(s);
      break;
    }
    case Type::kArray: {
      const auto& elems = array();
      EncodeVarint(elems.size(), out);
      for (const auto& e : elems) e.EncodeTo(out);
      break;
    }
    case Type::kStruct: {
      const StructRep& rep = *std::get<StructPtr>(rep_);
      EncodeVarint(rep.size, out);
      for (size_t i = 0; i < rep.size; ++i) {
        out->append(rep.shape->encoded_name(i));
        rep.values()[i].EncodeTo(out);
      }
      break;
    }
  }
}

Result<Value> Value::Decode(std::string_view data, size_t* offset) {
  Value v;
  if (const char* error =
          DecodeInto(data, offset, &v, &RecentShapes::ForThisThread())) {
    return Status::Internal(error);
  }
  return v;
}

const char* Value::DecodeInto(std::string_view data, size_t* offset,
                              Value* out, RecentShapes* recent) {
  if (*offset >= data.size()) return "truncated value";
  Type t = static_cast<Type>(data[(*offset)++]);
  uint64_t n = 0;
  switch (t) {
    case Type::kNull:
      out->rep_.emplace<std::monostate>();
      return nullptr;
    case Type::kBool:
      if (*offset >= data.size()) return "truncated bool";
      out->rep_.emplace<bool>(data[(*offset)++] != 0);
      return nullptr;
    case Type::kInt: {
      if (const char* error = ReadVarint(data, offset, &n)) return error;
      int64_t v = static_cast<int64_t>(n >> 1);
      if (n & 1) v = ~v;
      out->rep_.emplace<int64_t>(v);
      return nullptr;
    }
    case Type::kDouble: {
      if (*offset + 8 > data.size()) return "truncated double";
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(
                    static_cast<uint8_t>(data[*offset + i]))
                << (8 * i);
      }
      *offset += 8;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      out->rep_.emplace<double>(d);
      return nullptr;
    }
    case Type::kString:
      if (const char* error = ReadVarint(data, offset, &n)) return error;
      if (n > data.size() - *offset) return "bad string";
      out->rep_.emplace<std::string>(data.data() + *offset, n);
      *offset += n;
      return nullptr;
    case Type::kArray: {
      if (const char* error = ReadVarint(data, offset, &n)) return error;
      // Each element encodes to at least one byte; a count beyond the
      // remaining input is corruption, not a reason to allocate.
      if (n > data.size() - *offset) return "array count exceeds input";
      auto elems = std::make_shared<ArrayElements>(n);
      for (Value& e : *elems) {
        if (const char* error = DecodeInto(data, offset, &e, recent)) {
          return error;
        }
      }
      out->rep_ = ArrayPtr(std::move(elems));
      return nullptr;
    }
    case Type::kStruct: {
      if (const char* error = ReadVarint(data, offset, &n)) return error;
      if (n > data.size() - *offset) return "field count exceeds input";
      // The slots are allocated before the names are known: only the
      // count sizes them.
      StructRep* rep = NewStructRep(nullptr, n);
      StructPtr owner(rep);
      // Names byte-equal to a recent shape's are skipped, not parsed; from
      // the first name that differs, names are parsed and interned.
      const RowShape* shape = recent->Candidate(n, data.substr(*offset));
      std::vector<std::string_view> names;
      if (shape == nullptr) names.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (shape != nullptr) {
          std::string_view expected = shape->encoded_name(i);
          if (data.substr(*offset).starts_with(expected)) {
            *offset += expected.size();
          } else {
            names.reserve(n);
            for (size_t j = 0; j < i; ++j) names.push_back(shape->name(j));
            shape = nullptr;
          }
        }
        if (shape == nullptr) {
          uint64_t len = 0;
          if (const char* error = ReadVarint(data, offset, &len)) return error;
          if (len > data.size() - *offset) return "bad field name";
          names.push_back(data.substr(*offset, len));
          *offset += len;
        }
        if (const char* error =
                DecodeInto(data, offset, &rep->values()[i], recent)) {
          return error;
        }
      }
      rep->shape = shape != nullptr ? shape : RowShape::Intern(names);
      out->rep_ = std::move(owner);
      return nullptr;
    }
  }
  return "unknown value tag";
}

size_t Value::EncodedSize() const {
  switch (type()) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 2;
    case Type::kInt: {
      int64_t v = int_value();
      uint64_t zz =
          (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
      return 1 + VarintSize(zz);
    }
    case Type::kDouble:
      return 9;
    case Type::kString:
      return 1 + VarintSize(string_value().size()) + string_value().size();
    case Type::kArray: {
      size_t n = 1 + VarintSize(array().size());
      for (const auto& e : array()) n += e.EncodedSize();
      return n;
    }
    case Type::kStruct: {
      const StructRep& rep = *std::get<StructPtr>(rep_);
      size_t n = 1 + VarintSize(rep.size) +
                 rep.shape->encoded_names_size();
      for (const Value& value : rep.values()) n += value.EncodedSize();
      return n;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_value() ? "true" : "false";
    case Type::kInt:
      return StrFormat("%lld", static_cast<long long>(int_value()));
    case Type::kDouble:
      return StrFormat("%g", double_value());
    case Type::kString:
      return "\"" + string_value() + "\"";
    case Type::kArray: {
      std::string out = "[";
      const auto& elems = array();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString();
      }
      out += "]";
      return out;
    }
    case Type::kStruct: {
      std::string out = "{";
      const StructRep& rep = *std::get<StructPtr>(rep_);
      for (size_t i = 0; i < rep.size; ++i) {
        if (i > 0) out += ", ";
        out += rep.shape->name(i) + ": " + rep.values()[i].ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

Value MakeRow(StructFields fields) { return Value::Struct(std::move(fields)); }

}  // namespace dyno
