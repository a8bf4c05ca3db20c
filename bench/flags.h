// The one command-line parser of the bench mains. A flag is either
// --name=VALUE, bound to a variable, or a bare --name switch, bound to a
// callback; flags apply in command-line order. Numeric values must be
// positive, finite numbers. --help prints the usage and exits 0; an
// unknown flag or a malformed value prints a message and the usage to
// stderr and exits 2.
#ifndef PTSB_BENCH_FLAGS_H_
#define PTSB_BENCH_FLAGS_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <type_traits>

#include "util/parse.h"

namespace ptsb::bench {

class FlagParser {
 public:
  // --name=N for a number, --name=ID for a non-empty string. The usage
  // shows a number's value at registration as its default, unless 0.
  template <typename T>
  void Value(const std::string& name, T* out, std::string help) {
    constexpr bool kNumber = std::is_arithmetic_v<T>;
    if constexpr (kNumber) {
      if (*out > 0) help += " (default " + std::to_string(*out) + ")";
    }
    Add(name, kNumber ? "=N" : "=ID", help, [out](const std::string& s) {
      if constexpr (kNumber) {
        return ParseValue(s, out) && *out > 0 &&
               std::isfinite(static_cast<double>(*out));
      } else {
        *out = s;
        return !s.empty();
      }
    });
  }

  void Switch(const std::string& name, const std::string& help,
              std::function<void()> on) {
    Add(name, "", help, nullptr);
    switches_[name] = std::move(on);
  }

  // `epilogue` follows the flag list in the usage text.
  void Parse(int argc, char** argv, const std::string& epilogue = "") {
    usage_ += epilogue;
    for (int i = 1; i < argc; i++) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        std::printf("%s", usage_.c_str());
        std::exit(0);
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      if (eq != std::string::npos && values_.count(name) != 0) {
        if (!values_[name](arg.substr(eq + 1))) Fail("bad value: " + arg);
      } else if (eq == std::string::npos && switches_.count(name) != 0) {
        switches_[name]();
      } else {
        Fail("unknown flag: " + arg);
      }
    }
  }

  // Reports a command-line error the way Parse does: message, usage, 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n%s", message.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  void Add(const std::string& name, const char* value, const std::string& help,
           std::function<bool(const std::string&)> set) {
    std::string flag = name + value;
    flag.resize(std::max<size_t>(flag.size() + 1, 24), ' ');
    usage_ += "  " + flag + help + "\n";
    if (set) values_[name] = std::move(set);
  }

  std::string usage_ = "flags:\n";
  std::map<std::string, std::function<bool(const std::string&)>> values_;
  std::map<std::string, std::function<void()>> switches_;
};

}  // namespace ptsb::bench

#endif  // PTSB_BENCH_FLAGS_H_
