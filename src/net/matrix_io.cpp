#include "net/matrix_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace qp::net {

namespace {

// Strips '#' comments and returns whitespace-separated tokens, streaming
// across lines so rows may be wrapped arbitrarily.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) : in_(in) {}

  bool next(std::string& token) {
    for (;;) {
      if (line_stream_ >> token) return true;
      std::string line;
      if (!std::getline(in_, line)) return false;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      line_stream_.clear();
      line_stream_.str(line);
    }
  }

 private:
  std::istream& in_;
  std::istringstream line_stream_;
};

double parse_double(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument{token};
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error{std::string{"matrix_io: bad "} + what + ": '" + token + "'"};
  }
}

bool looks_numeric(const std::string& token) {
  try {
    std::size_t pos = 0;
    (void)std::stod(token, &pos);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

LatencyMatrix read_matrix(std::istream& in) {
  TokenReader reader{in};
  std::string token;
  if (!reader.next(token)) throw std::runtime_error{"matrix_io: empty input"};
  // A positive integer, bounded so that the conversion is exact and defined.
  const double count = parse_double(token, "site count");
  if (!(count >= 1.0 && count <= 0x1p53 && count == std::floor(count))) {
    throw std::runtime_error{"matrix_io: site count must be a positive integer: '" + token + "'"};
  }
  const auto n = static_cast<std::size_t>(count);

  if (!reader.next(token)) throw std::runtime_error{"matrix_io: truncated input"};

  // The names line is optional: if the first token after N is numeric we
  // assume the matrix follows immediately.
  std::vector<std::string> names;
  if (!looks_numeric(token)) {
    names.push_back(token);
    for (std::size_t i = 1; i < n; ++i) {
      if (!reader.next(token)) throw std::runtime_error{"matrix_io: truncated name list"};
      names.push_back(token);
    }
    if (!reader.next(token)) throw std::runtime_error{"matrix_io: missing matrix body"};
  }

  // Rows are appended as their entries parse, so a header claiming more
  // sites than the body holds fails as truncated without allocating n^2.
  std::vector<std::vector<double>> rtt;
  for (std::size_t i = 0; i < n; ++i) {
    rtt.emplace_back();
    for (std::size_t j = 0; j < n; ++j) {
      if (i != 0 || j != 0) {
        if (!reader.next(token)) throw std::runtime_error{"matrix_io: truncated matrix body"};
      }
      rtt.back().push_back(parse_double(token, "matrix entry"));
    }
  }
  try {
    return LatencyMatrix{std::move(rtt), std::move(names), /*symmetry_tolerance=*/1e-3};
  } catch (const std::invalid_argument& err) {
    throw std::runtime_error{std::string{"matrix_io: "} + err.what()};
  }
}

LatencyMatrix read_matrix_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"matrix_io: cannot open '" + path + "'"};
  return read_matrix(in);
}

}  // namespace qp::net
