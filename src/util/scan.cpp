#include "util/scan.hpp"

#include <istream>

namespace kstable::util {

bool LineReader::next_raw(std::string_view& line) {
  if (stream_ != nullptr) {
    if (!std::getline(*stream_, buffer_)) return false;
    line = buffer_;
    return true;
  }
  if (text_.empty()) return false;
  const std::size_t newline = text_.find('\n');
  if (newline == std::string_view::npos) {
    line = text_;
    text_ = {};
  } else {
    line = text_.substr(0, newline);
    text_.remove_prefix(newline + 1);
  }
  return true;
}

std::optional<std::string_view> LineReader::next() {
  std::string_view line;
  while (next_raw(line)) {
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && is_blank(line.back())) line.remove_suffix(1);
    while (!line.empty() && is_blank(line.front())) line.remove_prefix(1);
    if (!line.empty()) return line;
  }
  return std::nullopt;
}

}  // namespace kstable::util
