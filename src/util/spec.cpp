#include "util/spec.hpp"

namespace oracle::util {

std::string spec_expected(std::string_view what, double min, double max) {
  std::string out(what);
  if (min > -kNoLimit && max < kNoLimit)
    return out + " in [" + format_spec_value(min) + ", " +
           format_spec_value(max) + "]";
  if (min > -kNoLimit) return out + " >= " + format_spec_value(min);
  if (max < kNoLimit) return out + " <= " + format_spec_value(max);
  return out;
}

std::vector<std::string> split_spec_list(std::string_view list) {
  std::vector<std::string> out;
  for (const std::string& item : split(list, ',')) {
    const std::string_view t = trim(item);
    if (t.empty()) continue;
    const bool continues = t.find('=') != std::string_view::npos &&
                           t.find(':') == std::string_view::npos;
    if (continues && !out.empty())
      (out.back() += ',') += t;
    else
      out.emplace_back(t);
  }
  return out;
}

}  // namespace oracle::util
