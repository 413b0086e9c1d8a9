// Reporting helpers for the benchmark: distribution summaries, the
// determinism fingerprint, the host-span log, and the one-line JSON result
// the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

[[nodiscard]] double median(std::vector<double> values);

/// Summary of one distribution: sample count, median, p99, and the
/// highest percentile that still has at least ten samples beyond it
/// (`top_pct`, with its value `top`). With fewer than 20 samples the top
/// percentile is the median.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double top_pct = 0;
  double top = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] std::string format_number(double v);

/// The benchmark's last stdout line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
[[nodiscard]] std::string result_line(bool correct, long attempted,
                                      long failed,
                                      const std::vector<Metric>& metrics);

/// Order-sensitive 64-bit FNV-1a hash over (name, exact value bits)
/// pairs: equal only when every virtual metric and count is bit-identical.
class Fingerprint {
 public:
  void add(std::string_view name, double value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(const void* data, std::size_t bytes);
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Host spans the benchmark records around its calls into the library.
/// Kept in memory; written once, as Chrome trace-event JSON, at exit.
class SpanLog {
 public:
  void add(std::string name, std::string job, Clock::time_point start,
           Clock::time_point end);
  /// Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string job;
    double start_us;
    double dur_us;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
