#include "common/json.h"

#include <algorithm>
#include <cstdint>

namespace arlo::json {
namespace {

// The two-character escapes, decoded and escaped.  The writer leaves '/',
// the last, as it is.
constexpr std::string_view kDecoded = "\"\\\b\f\n\r\t/";
constexpr std::string_view kEscaped = "\"\\bfnrt/";

}  // namespace

void Writer::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (levels_.empty()) return;
  Level& level = levels_.back();
  if (!level.empty) os_ << ',';
  level.empty = false;
  if (level.lines) os_ << '\n';
}

Writer& Writer::Open(char bracket, Layout layout) {
  BeforeValue();
  os_ << bracket;
  levels_.push_back(Level{layout == Layout::kLines, true});
  return *this;
}

Writer& Writer::Close(char bracket) {
  if (levels_.back().lines) os_ << '\n';
  os_ << bracket;
  levels_.pop_back();
  return *this;
}

Writer& Writer::String(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  BeforeValue();
  os_ << '"';
  std::size_t run = 0;  // start of the bytes not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    os_.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    const std::size_t escape = kDecoded.substr(0, 7).find(c);
    if (escape != std::string_view::npos) {
      os_ << '\\' << kEscaped[escape];
    } else {
      os_ << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
  }
  os_.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os_ << '"';
  return *this;
}

const Value* Value::Find(std::string_view key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Document(Value& out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  /// Consumes a run of digits; false when there is none.
  bool Digits() {
    const std::size_t start = pos_;
    while (Peek() >= '0' && Peek() <= '9') ++pos_;
    return pos_ > start;
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  void SkipSpace() {
    // At the end Peek() is '\0', which the set does not hold.
    while (std::string_view(" \t\n\r").find(Peek()) != std::string_view::npos) {
      ++pos_;
    }
  }

  bool ParseValue(Value& out, int depth) {
    SkipSpace();
    const std::size_t start = pos_;
    bool ok = false;
    switch (Peek()) {
      case '{': ok = ParseContainer(out, depth + 1, /*object=*/true); break;
      case '[': ok = ParseContainer(out, depth + 1, /*object=*/false); break;
      case '"':
        out.type_ = Value::Type::kString;
        ok = ParseString(out.text_);
        break;
      case 't':
        out.type_ = Value::Type::kBool;
        ok = out.bool_ = Literal("true");
        break;
      case 'f':
        out.type_ = Value::Type::kBool;
        ok = Literal("false");
        break;
      case 'n': ok = Literal("null"); break;
      default: ok = ParseNumber(out);
    }
    out.source_ = text_.substr(start, pos_ - start);
    return ok;
  }

  bool ParseContainer(Value& out, int depth, bool object) {
    if (depth > kMaxDepth) return false;
    ++pos_;  // '{' or '['
    out.type_ = object ? Value::Type::kObject : Value::Type::kArray;
    const char close = object ? '}' : ']';
    SkipSpace();
    if (Consume(close)) return true;
    do {
      if (object) {
        SkipSpace();
        if (Peek() != '"' || !ParseString(out.keys_.emplace_back())) {
          return false;
        }
        SkipSpace();
        if (!Consume(':')) return false;
      }
      if (!ParseValue(out.items_.emplace_back(), depth)) return false;
      SkipSpace();
    } while (Consume(','));
    if (!Consume(close)) return false;
    // Members are parsed by now, so nested objects are done with keys_.
    keys_.assign(out.keys_.begin(), out.keys_.end());
    std::sort(keys_.begin(), keys_.end());
    return std::adjacent_find(keys_.begin(), keys_.end()) == keys_.end();
  }

  bool ParseString(std::string& out) {
    ++pos_;  // '"'
    while (!AtEnd()) {
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
             static_cast<unsigned char>(text_[end]) >= 0x20) {
        ++end;
      }
      out.append(text_.substr(pos_, end - pos_));
      pos_ = end;
      if (AtEnd()) return false;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return false;  // a raw control byte
      const std::size_t escape = kEscaped.find(Peek());
      if (escape != std::string_view::npos) {
        out += kDecoded[escape];
        ++pos_;
      } else if (!Consume('u') || !ParseCodePoint(out)) {
        return false;
      }
    }
    return false;
  }

  bool Hex4(std::uint32_t& out) {
    if (text_.size() - pos_ < 4) return false;
    const char* begin = text_.data() + pos_;
    pos_ += 4;
    const auto [end, ec] = std::from_chars(begin, begin + 4, out, 16);
    return ec == std::errc() && end == begin + 4;
  }

  /// The XXXX of \uXXXX, appended as UTF-8.  A high surrogate must be
  /// followed by an escaped low one; a lone surrogate is rejected.
  bool ParseCodePoint(std::string& out) {
    std::uint32_t cp = 0;
    std::uint32_t low = 0;
    if (!Hex4(cp) || (cp >= 0xdc00 && cp < 0xe000)) return false;
    if (cp >= 0xd800 && cp < 0xdc00) {
      if (!Literal("\\u") || !Hex4(low) || low < 0xdc00 || low >= 0xe000) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    static constexpr std::uint32_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?  A leading zero
  /// followed by digits fails at the caller, which finds a digit where a
  /// separator belongs.
  bool ParseNumber(Value& out) {
    const std::size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !Digits()) return false;
    if (Consume('.') && !Digits()) return false;
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return false;
    }
    out.type_ = Value::Type::kNumber;
    // The grammar is checked, so the whole token converts.  A number no
    // double holds (1e999, and 1e-400, which would round to zero) fails.
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, end, out.number_);
    return ec == std::errc() && ptr == end;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<std::string_view> keys_;  ///< duplicate-key check scratch
};

bool Parse(std::string_view text, Value& out) {
  out = Value();
  return Parser(text).Document(out);
}

}  // namespace arlo::json
