// The one JSON layer.
//
// Writer: every JSON byte in src goes through it.  It keeps the comma and
// nesting state, escapes strings in one place, and prints numbers with the
// stream's own operator<<, so the stream's precision and flags apply and a
// value comes out exactly as `os << v` prints it.
//
// Parse: a strict RFC 8259 reader into a small value tree.  It rejects
// trailing bytes, duplicate keys, numbers a double cannot hold (overflow,
// or underflow to zero), and nesting deeper than kMaxDepth.  Escapes are
// decoded (\u to UTF-8, surrogate pairs checked); raw bytes >= 0x80 pass
// through unvalidated.
#pragma once

#include <charconv>
#include <concepts>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace arlo::json {

class Writer {
 public:
  /// kLines starts every member of the container, and its closing bracket,
  /// on a line of its own (the Chrome trace and metrics snapshot files).
  enum class Layout { kCompact, kLines };

  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& BeginObject(Layout layout = Layout::kCompact) {
    return Open('{', layout);
  }
  Writer& EndObject() { return Close('}'); }
  Writer& BeginArray(Layout layout = Layout::kCompact) {
    return Open('[', layout);
  }
  Writer& EndArray() { return Close(']'); }

  /// The next object member's key; its value is the next thing written.
  Writer& Key(std::string_view key) {
    String(key);
    os_ << ':';
    after_key_ = true;
    return *this;
  }
  Writer& String(std::string_view s);
  Writer& Bool(bool b) { return Raw(b ? "true" : "false"); }
  Writer& Null() { return Raw("null"); }
  /// One already-serialized JSON value, copied as is (a block another
  /// module wrote, or a number pre-formatted to a fixed precision).
  Writer& Raw(std::string_view json) {
    BeforeValue();
    os_ << json;
    return *this;
  }
  /// An arithmetic value; the unary + prints character types as numbers.
  template <typename T>
  Writer& Number(T v) {
    BeforeValue();
    os_ << +v;
    return *this;
  }
  /// Key, then Bool for bool, Number for other arithmetic types, else
  /// String.
  template <typename T>
  Writer& Field(std::string_view key, const T& value) {
    Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      return Bool(value);
    } else if constexpr (std::is_arithmetic_v<T>) {
      return Number(value);
    } else {
      return String(value);
    }
  }
  template <typename Range>
  Writer& NumberArray(const Range& values) {
    BeginArray();
    for (const auto& v : values) Number(v);
    return EndArray();
  }

 private:
  struct Level {
    bool lines;
    bool empty;
  };

  /// The separator owed before a value or a key: none right after a key,
  /// else a comma unless first in its container, then the kLines newline.
  void BeforeValue();
  Writer& Open(char bracket, Layout layout);
  Writer& Close(char bracket);

  std::ostream& os_;
  std::vector<Level> levels_;
  bool after_key_ = false;
};

/// `{"key":value}` — the admin planes' one-member bodies.
template <typename T>
std::string OneMemberObject(std::string_view key, const T& value) {
  std::ostringstream os;
  Writer(os).BeginObject().Field(key, value).EndObject();
  return os.str();
}

/// Containers nested deeper than this are rejected by Parse.
inline constexpr int kMaxDepth = 64;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }

  /// Typed reads: false, with `out` untouched, on a type mismatch.  An
  /// integer read also fails for a number written with a fraction or an
  /// exponent, or outside T's range.
  bool Get(bool& out) const { return Read(Type::kBool, bool_, out); }
  bool Get(double& out) const { return Read(Type::kNumber, number_, out); }
  bool Get(std::string& out) const { return Read(Type::kString, text_, out); }
  template <std::integral T>
    requires(!std::is_same_v<T, bool>)
  bool Get(T& out) const {
    T v{};
    const char* end = source_.data() + source_.size();
    const auto [ptr, ec] = std::from_chars(source_.data(), end, v);
    return type_ == Type::kNumber && ec == std::errc() && ptr == end &&
           Read(Type::kNumber, v, out);
  }

  /// Array elements, or object member values in document order.
  const std::vector<Value>& Items() const { return items_; }
  /// The member `key` of an object; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;
  /// The value's exact source text: a view into the text Parse read, valid
  /// only while that text lives.
  std::string_view Source() const { return source_; }

 private:
  friend class Parser;

  template <typename T>
  bool Read(Type type, const T& from, T& out) const {
    if (type_ != type) return false;
    out = from;
    return true;
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  ///< a string's decoded bytes
  std::string_view source_;
  std::vector<std::string> keys_;  ///< object member keys, parallel to items_
  std::vector<Value> items_;
};

/// Parses exactly one JSON document; whitespace may surround it.  Returns
/// false on any deviation from RFC 8259 and on the rejections listed at the
/// top of this file; `out` is then unspecified.
bool Parse(std::string_view text, Value& out);

}  // namespace arlo::json
