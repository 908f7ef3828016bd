// The stack's one JSON layer: every exporter (analyzer reports, telemetry,
// console and HTTP bodies) writes through the three append_* helpers, and
// every reader (baseline files, JSON-RPC) parses through Json. Json
// objects preserve insertion order, so serialization is a pure function
// of construction order — the property the analyzer's byte-identical
// --format=json guarantee and the baseline round-trip rest on. Parsing
// accepts standard JSON (no comments, no trailing commas, nesting at most
// kMaxDepth deep); numbers are doubles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace agrarsec::core {

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// \n \r \t by name, every other byte below 0x20 as \u00XX, all other
/// bytes verbatim.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` in the shortest `%.*g` form (precision 1..17) that parses
/// back to exactly `v`: 12.5 -> "12.5", 0.1 -> "0.1", 50 -> "5e+01". The
/// bytes are frozen: the golden session exports contain them and
/// fleetbench's expected digests hash them.
void append_json_number(std::string& out, double v);

/// Appends newline-separated JSON lines as one JSON array of those lines,
/// verbatim. Blank lines are skipped; the final newline is optional.
void append_jsonl_as_array(std::string& out, std::string_view jsonl);

class Json {
 public:
  /// Deepest container nesting parse() accepts. Parsing recurses once per
  /// level, and the console parses untrusted frames of up to 1 MiB on its
  /// control thread, so the bound keeps hostile input off the stack.
  static constexpr int kMaxDepth = 64;

  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool = 1,
    kNumber = 2,
    kString = 3,
    kArray = 4,
    kObject = 5,
  };

  Json() = default;  ///< null
  static Json boolean(bool value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is(Kind kind) const { return kind_ == kind; }

  // Scalar access (callers must check kind() first).
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }

  // Array access.
  void push(Json value);
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }

  // Object access (insertion-ordered; set() replaces an existing key
  // in place to keep ordering stable).
  void set(std::string key, Json value);
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Pretty serialization with `indent` spaces per level (0 = compact).
  /// Integral numbers below 1e15 in magnitude print as integers; every
  /// other number goes through append_json_number.
  [[nodiscard]] std::string serialize(int indent = 2) const;

  /// Strict parse; on failure returns nullopt and (when non-null) fills
  /// `error` with a position-annotated message.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  void serialize_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace agrarsec::core
