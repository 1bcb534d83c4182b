// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints the same rows/series the paper's figure plots, plus a
// "paper" column where the paper reports a number, so each row can be read
// against the paper's figure directly. Flags: --csv emits CSV instead of
// the aligned table; --json emits one JSON array of row objects per table;
// --quick shortens simulated durations. Unknown, mistyped or inapplicable
// flags are an error: Parse prints usage and exits non-zero instead of
// silently ignoring them.
#ifndef BENCH_BENCH_COMMON_HPP_
#define BENCH_BENCH_COMMON_HPP_

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/stats/table.hpp"

namespace lockin {

struct BenchOptions {
  bool csv = false;
  bool json = false;
  bool quick = false;

  static void PrintUsage(const char* prog, std::ostream& out) {
    out << "usage: " << prog << " [--csv] [--json] [--quick]\n"
        << "  [--help]             print this message\n";
  }

  // Parses the shared flags. Anything else prints usage and exits 2 --
  // mistyped or inapplicable flags must not be silently ignored.
  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions options;
    auto fail = [&](const std::string& message) {
      std::cerr << argv[0] << ": " << message << "\n";
      PrintUsage(argv[0], std::cerr);
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        options.csv = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        options.json = true;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        options.quick = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        PrintUsage(argv[0], std::cout);
        std::exit(0);
      } else {
        fail(std::string("unrecognized argument: ") + argv[i]);
      }
    }
    return options;
  }
};

inline void EmitTable(const TextTable& table, const BenchOptions& options,
                      const std::string& title) {
  if (options.json) {
    table.PrintJson(std::cout);
  } else if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    std::cout << "=== " << title << " ===\n";
    table.Print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace lockin

#endif  // BENCH_BENCH_COMMON_HPP_
