#include "perfbench/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double pct) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 50);
  s.p99 = percentile(samples, 99);
  s.top_pct = 50;
  if (s.n >= 20) {
    s.top_pct = 100.0 * (1.0 - 10.0 / static_cast<double>(s.n));
  }
  s.top = percentile(samples, s.top_pct);
  return s;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_line(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void Fingerprint::mix(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(std::string_view name, double value) {
  mix(name.data(), name.size());
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  mix(&bits, sizeof bits);
}

void SpanLog::add(std::string name, std::string job, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back({std::move(name), std::move(job),
                    seconds_between(origin_, start) * 1e6,
                    seconds_between(start, end) * 1e6});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0"
       << ", \"ts\": " << format_number(s.start_us)
       << ", \"dur\": " << format_number(s.dur_us) << ", \"args\": {\"job\": \""
       << s.job << "\"}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
