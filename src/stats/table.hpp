// Console table and CSV rendering for bench harness output.
//
// The bench binaries print the paper's figures as aligned text tables
// (stdout) and optionally CSV for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace brb::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a rule under the header.
  void print(std::ostream& os) const;

  /// Comma-separated form with the same content.
  void print_csv(std::ostream& os) const;

  const std::vector<std::string>& headers() const noexcept { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting helpers for table cells.
std::string fmt_double(double v, int precision = 3);
std::string fmt_millis(double millis, int precision = 3);
std::string fmt_ratio(double v, int precision = 2);

}  // namespace brb::stats
