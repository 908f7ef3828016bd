#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace agrarsec::core {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double v) {
  // Precision 17 always round-trips; shorter precisions are tried first
  // so 0.1 prints as "0.1" rather than "0.10000000000000001".
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void append_jsonl_as_array(std::string& out, std::string_view jsonl) {
  out.push_back('[');
  bool first = true;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string_view::npos) nl = jsonl.size();
    if (nl > pos) {
      if (!first) out.push_back(',');
      first = false;
      out.append(jsonl, pos, nl - pos);
    }
    pos = nl + 1;
  }
  out.push_back(']');
}

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  return j;
}

Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

void Json::push(Json value) { items_.push_back(std::move(value)); }

void Json::set(std::string key, Json value) {
  for (auto& [existing, held] : members_) {
    if (existing == key) {
      held = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [existing, held] : members_) {
    if (existing == key) return &held;
  }
  return nullptr;
}

namespace {

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::serialize_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber:
      // Integral values (counts, versions) print without a decimal point.
      if (std::floor(number_) == number_ && std::abs(number_) < 1e15) {
        out += std::to_string(static_cast<long long>(number_));
      } else {
        append_json_number(out, number_);
      }
      return;
    case Kind::kString: append_json_string(out, string_); return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        append_indent(out, indent, depth + 1);
        items_[i].serialize_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        append_indent(out, indent, depth + 1);
        append_json_string(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.serialize_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::serialize(int indent) const {
  std::string out;
  serialize_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    auto value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after value");
        value.reset();
      }
    }
    if (!value && error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return value;
  }

 private:
  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string_body() {
    // pos_ is just past the opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return std::nullopt;
              }
            }
            // Basic-multilingual-plane only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxDepth) {  // refuse before recursing deeper
        fail("nesting deeper than " + std::to_string(Json::kMaxDepth) + " levels");
        return std::nullopt;
      }
      ++depth_;
      auto value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') {
      ++pos_;
      auto body = parse_string_body();
      if (!body) return std::nullopt;
      return Json::string(std::move(*body));
    }
    if (literal("true")) return Json::boolean(true);
    if (literal("false")) return Json::boolean(false);
    if (literal("null")) return Json();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc{} || result.ptr != text_.data() + pos_) {
      fail("malformed number");
      return std::nullopt;
    }
    return Json::number(value);
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push(std::move(*value));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      if (!consume('"')) {
        fail("expected object key");
        return std::nullopt;
      }
      auto key = parse_string_body();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after key");
        return std::nullopt;
      }
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.set(std::move(*key), std::move(*value));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers currently open
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace agrarsec::core
