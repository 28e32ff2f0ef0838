#include "socet/obs/jsonin.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace socet::obs {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage");
    return true;
  }

 private:
  // Containers recurse through parse_value; a hostile input of 100k
  // '[' characters would otherwise turn into 100k stack frames.
  static constexpr int kMaxDepth = 96;

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        return parse_object(out);
      case '[':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        return parse_array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parse_string(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return expect_word("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return expect_word("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return expect_word("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object_value.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array_value.push_back(std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Our emitter writes \u00XX for control bytes and \ufffd for
          // bytes that are not UTF-8; encode any code point as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return true;
  }

  bool expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::to_uint32(std::uint32_t* out) const {
  if (!is_number() || !(number_value >= 0) || number_value > UINT32_MAX ||
      std::floor(number_value) != number_value) {
    return false;
  }
  *out = static_cast<std::uint32_t>(number_value);
  return true;
}

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text, error).parse_document(out);
}

}  // namespace socet::obs
