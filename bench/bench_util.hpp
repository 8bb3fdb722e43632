// Shared output helpers for the paper-reproduction benches. Each bench binary
// prints (a) a human-readable table mirroring the paper's table/figure and
// (b) machine-readable CSV lines prefixed with "csv," for downstream plotting.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace colza::bench {

inline void headline(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::printf("note: ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print(const std::string& csv_tag) const {
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
      width[c] = columns_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
      std::printf("\n");
    };
    print_row(columns_);
    std::string sep;
    for (std::size_t c = 0; c < columns_.size(); ++c)
      sep += std::string(width[c], '-') + "  ";
    std::printf("%s\n", sep.c_str());
    for (const auto& r : rows_) print_row(r);
    // CSV block.
    std::printf("csv,%s", csv_tag.c_str());
    for (const auto& col : columns_) std::printf(",%s", col.c_str());
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("csv,%s", csv_tag.c_str());
      for (const auto& cell : r) std::printf(",%s", cell.c_str());
      std::printf("\n");
    }
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

inline std::string fmt_ms(double ms) { return fmt("%.3f", ms); }

// For a bench whose only option is `--smoke` (its small size, run by the
// tier-1 bench-smoke tests): true when given; exits with usage on anything
// else.
inline bool smoke_option(int argc, char** argv) {
  const bool smoke = argc == 2 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc > 1 && !smoke) {
    std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
    std::exit(2);
  }
  return smoke;
}

// Catalyst configuration of the Mandelbulb pipeline at image x image.
inline std::string mandelbulb_pipeline_json(int image) {
  return R"({"preset":"mandelbulb","width":)" + std::to_string(image) +
         R"(,"height":)" + std::to_string(image) + "}";
}

}  // namespace colza::bench
