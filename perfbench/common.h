// Shared plumbing of the benchmark binary: run options, the result record
// printed as the last line of stdout, and the small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace asppi {}

namespace perfbench {

// The benchmark speaks the program's vocabulary (topo::, bgp::, attack::...).
using namespace asppi;

using Clock = std::chrono::steady_clock;

// Captured during static initialization, before main: the start of the
// cold set-up that `setup_s` measures.
Clock::time_point ProcessStart();

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point start, Clock::time_point end);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for prepared inputs and trace files (inside the checkout).
  std::string work_dir = ".";
  // Thread budget for load and sweeps (the machine's hardware concurrency).
  unsigned threads = 1;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  // Output-check failures, one line each (printed to stderr).
  std::vector<std::string> violations;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Folds a check's violation lines into the verdict.
  void Check(const std::string& what, const std::vector<std::string>& lines);
  // The single JSON line the benchmark contract asks for.
  std::string ToJson() const;
};

// util::Quantile (the smallest sample s with P[X <= s] >= q), with 0 for an
// empty sample where util::Quantile would abort.
double Quantile(std::vector<double> values, double q);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench
