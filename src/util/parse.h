// The one text-to-value parser: engine params, run_experiment's flags and
// the bench flags all read their numbers through ParseValue.
#ifndef PTSB_UTIL_PARSE_H_
#define PTSB_UTIL_PARSE_H_

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ptsb {

// Parses all of `s` as a T into *out and returns true, or returns false
// and leaves *out alone. An integer is decimal and must fit T: "-1" fails
// for an unsigned T instead of wrapping, and "4294967296" fails for an
// int instead of narrowing. A double is any std::from_chars form. A bool
// is "1", "0", "true" or "false". Leading spaces and trailing junk fail.
template <typename T>
bool ParseValue(std::string_view s, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (s != "1" && s != "0" && s != "true" && s != "false") return false;
    *out = s == "1" || s == "true";
    return true;
  } else {
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size()) return false;
    *out = v;
    return true;
  }
}

}  // namespace ptsb

#endif  // PTSB_UTIL_PARSE_H_
