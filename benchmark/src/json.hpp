// A minimal JSON reader: enough for BENCHMARK.json, chaos_bench result
// files and the Chrome traces chaos_bench writes. Throws std::runtime_error
// on malformed input.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench::json {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Member @p key of an object, or nullptr.
  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value parse() {
    Value v = value(0);
    skip();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(i_));
  }
  void skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip();
    if (i_ >= s_.size()) fail("unexpected end");
    Value v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.type = Value::Type::Object;
      if (eat('}')) return v;
      do {
        skip();
        std::string key = str();
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.type = Value::Type::Array;
      if (eat(']')) return v;
      do {
        v.array.push_back(value(depth + 1));
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.type = Value::Type::String;
      v.string = str();
    } else if (literal("true")) {
      v.type = Value::Type::Bool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Value::Type::Bool;
    } else if (literal("null")) {
      v.type = Value::Type::Null;
    } else {
      v.type = Value::Type::Number;
      const std::size_t start = i_;
      while (i_ < s_.size() &&
             std::string_view("+-0123456789.eE").find(s_[i_]) !=
                 std::string_view::npos) {
        ++i_;
      }
      if (start == i_) fail("unexpected character");
      const std::string num(s_.substr(start, i_ - start));
      char* end = nullptr;
      v.number = std::strtod(num.c_str(), &end);
      if (end != num.c_str() + num.size()) fail("bad number");
    }
    return v;
  }

  std::string str() {
    if (i_ >= s_.size() || s_[i_] != '"') fail("expected a string");
    ++i_;
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          // Only ASCII escapes occur in the files this reads.
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          out += static_cast<char>(
              std::strtol(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16));
          i_ += 4;
          break;
        default: out += e; break;
      }
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

inline Value parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace bench::json
