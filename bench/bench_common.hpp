// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints the same rows/series the paper's figure plots, plus a
// "paper" column where the paper reports a number, so EXPERIMENTS.md can be
// regenerated by running build/bench/*. Flags: --csv emits CSV instead of
// the aligned table; --json emits one JSON array of row objects per table;
// --quick shortens simulated durations. Unknown, mistyped or inapplicable
// flags are an error: Parse prints usage and exits non-zero instead of
// silently ignoring them.
#ifndef BENCH_BENCH_COMMON_HPP_
#define BENCH_BENCH_COMMON_HPP_

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "src/stats/table.hpp"

namespace lockin {

struct BenchOptions {
  bool csv = false;
  bool json = false;
  bool quick = false;
  // Per-binary boolean flags matched from Parse's `extra_flags` (e.g.
  // fig08's --no-grace ablation switch).
  std::vector<std::string> extras;

  bool HasExtra(const char* flag) const {
    for (const std::string& extra : extras) {
      if (extra == flag) {
        return true;
      }
    }
    return false;
  }

  static void PrintUsage(const char* prog, std::ostream& out,
                         std::initializer_list<const char*> extra_flags = {}) {
    out << "usage: " << prog << " [--csv] [--json] [--quick]\n"
        << "  [--help]             print this message\n";
    for (const char* flag : extra_flags) {
      out << "  [" << flag << "]     (this binary)\n";
    }
  }

  // Parses the shared flags; `extra_flags` names additional boolean flags
  // this binary accepts (surfaced via HasExtra). Anything else prints usage
  // and exits 2 -- mistyped or inapplicable flags must not be silently
  // ignored.
  static BenchOptions Parse(int argc, char** argv,
                            std::initializer_list<const char*> extra_flags = {}) {
    BenchOptions options;
    auto fail = [&](const std::string& message) {
      std::cerr << argv[0] << ": " << message << "\n";
      PrintUsage(argv[0], std::cerr, extra_flags);
      std::exit(2);
    };
    auto is_extra = [&](const char* arg) {
      for (const char* flag : extra_flags) {
        if (std::strcmp(arg, flag) == 0) {
          return true;
        }
      }
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        options.csv = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        options.json = true;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        options.quick = true;
      } else if (is_extra(argv[i])) {
        options.extras.push_back(argv[i]);
      } else if (std::strcmp(argv[i], "--help") == 0) {
        PrintUsage(argv[0], std::cout, extra_flags);
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
