// odmpi host-time benchmark.
//
//   perfbench --workload <nas_comm|nas_compute|conn_scale> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|tiny] [--spans <file>]
//   perfbench --self-test
//
// --trace 0 repeats the workload's job list until --seconds is spent and
// prints the end-to-end metrics (medians over rounds). --trace 1 runs the
// layer microloops, one untraced and one traced pass of the job list, and
// prints the per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code
// is non-zero when any output check failed. Everything runs on this
// thread, one World after another.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/report.h"
#include "perfbench/workloads.h"

using namespace perfbench;
using odmpi::nas::Class;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string spans_path;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--spans <file>]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size is full or tiny");
      a.size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.self_test && a.workload.empty()) usage("--workload is required");
  return a;
}

double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

// One pass over a workload's job list.
struct Pass {
  std::vector<JobResult> jobs;
  long failed = 0;

  [[nodiscard]] double sum(double (*f)(const JobResult&)) const {
    double s = 0;
    for (const JobResult& r : jobs) s += f(r);
    return s;
  }
  [[nodiscard]] double wall_s() const {
    return sum([](const JobResult& r) { return r.wall_s(); });
  }
  [[nodiscard]] double setup_s() const {
    return sum([](const JobResult& r) { return r.setup_s; });
  }
  [[nodiscard]] std::int64_t count(const std::string& name) const {
    std::int64_t s = 0;
    for (const JobResult& r : jobs) s += r.counts.at(name);
    return s;
  }
  [[nodiscard]] std::uint64_t fingerprint() const {
    Fingerprint fp;
    for (const JobResult& r : jobs) fingerprint_job(r, &fp);
    return fp.value();
  }
  // Every job's samples of one distribution, pooled.
  [[nodiscard]] std::vector<double> samples(
      std::vector<double> JobResult::*field) const {
    std::vector<double> all;
    for (const JobResult& r : jobs) {
      all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
  }
};

Pass run_pass(const Workload& w, bool traced, SpanLog* spans) {
  Pass p;
  for (const JobSpec& job : w.jobs) {
    p.jobs.push_back(run_job(job, {traced, /*setup_only=*/false, spans}));
    if (!p.jobs.back().passed) ++p.failed;
  }
  return p;
}

void print_jobs(const char* title, const Pass& p) {
  std::printf("# %s\n", title);
  std::printf("# %-38s %5s %8s %8s %8s %11s %9s %6s %9s %8s %8s %8s %10s\n",
              "job", "check", "setup_s", "run_s", "down_s", "virt_s",
              "init_us", "vis", "pinned_kb", "sends", "rc_hits", "rc_miss",
              "rss_kb/rk");
  for (const JobResult& r : p.jobs) {
    std::printf("# %-38s %5s %8.4f %8.4f %8.4f %11.6f %9.2f %6.2f %9.1f "
                "%8" PRId64 " %8" PRId64 " %8" PRId64 " %10.1f\n",
                r.label.c_str(), r.passed ? "ok" : "FAIL", r.setup_s, r.run_s,
                r.teardown_s, r.completion_s, r.init_us, r.peak_vis,
                r.pinned_bytes / 1024, r.counts.at("mpi.sends"),
                r.counts.at("mpi.reg_cache_hits"),
                r.counts.at("mpi.reg_cache_misses"),
                r.rss_growth_kb / r.nranks);
    if (!r.passed) std::printf("#   failure: %s\n", r.failure.c_str());
  }
}

void print_distribution(const char* name, const Summary& s) {
  std::printf("# %-18s n=%zu p50=%.3f p99=%.3f p%.2f=%.3f (virt us)\n", name,
              s.n, s.p50, s.p99, s.top_pct, s.top);
}

int max_ranks(const Workload& w) {
  int n = 1;
  for (const JobSpec& j : w.jobs) n = std::max(n, j.nranks);
  return n;
}

double mean_of(const Pass& p, double JobResult::*field) {
  double s = 0;
  for (const JobResult& r : p.jobs) s += r.*field;
  return s / static_cast<double>(p.jobs.size());
}

int finish(bool correct, long attempted, long failed,
           const std::vector<Metric>& metrics, const SpanLog& spans,
           const std::string& spans_path) {
  if (!spans_path.empty() && !spans.write_chrome_json(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  std::printf("# failed_jobs %ld/%ld\n", failed, attempted);
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- --trace 0: end-to-end metrics -----------------------------------------

constexpr std::size_t kSetupSamples = 5;
// A median needs more than one sample; nas_comm's round is about half the
// budget, so on a slow host two rounds may overrun --seconds slightly.
constexpr std::size_t kMinRounds = 2;

int timed_run(const Workload& w, const Args& args) {
  SpanLog spans;
  const Clock::time_point start = Clock::now();
  std::vector<Pass> rounds;
  std::vector<std::vector<double>> setup_samples(w.jobs.size());
  long attempted = 0;
  long failed = 0;

  // Whole rounds while the next one (plus the set-up-only runs still owed)
  // fits in the budget; always at least kMinRounds.
  for (;;) {
    rounds.push_back(run_pass(w, false, &spans));
    const Pass& p = rounds.back();
    attempted += static_cast<long>(p.jobs.size());
    failed += p.failed;
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      setup_samples[i].push_back(p.jobs[i].setup_s);
    }
    const std::size_t owed =
        kSetupSamples > rounds.size() + 1 ? kSetupSamples - rounds.size() - 1
                                          : 0;
    const double setup_cost =
        static_cast<double>(owed) *
        rounds.front().sum([](const JobResult& r) {
          return r.setup_s + r.teardown_s;
        });
    const double elapsed = seconds_between(start, Clock::now());
    if (rounds.size() >= kMinRounds &&
        elapsed + p.wall_s() + setup_cost > args.seconds) {
      break;
    }
  }
  // Set-up is short next to a round, so top every job up to kSetupSamples
  // samples with empty-body Worlds and report the per-job median.
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    while (setup_samples[i].size() < kSetupSamples) {
      const JobResult r = run_job(w.jobs[i], {false, true, &spans});
      ++attempted;
      if (!r.passed) ++failed;
      setup_samples[i].push_back(r.setup_s);
    }
  }
  const double rss_kib = peak_rss_kib();

  std::vector<double> walls, rates;
  for (const Pass& p : rounds) {
    walls.push_back(p.wall_s());
    rates.push_back(static_cast<double>(p.count("mpi.sends")) /
                    (p.wall_s() - p.setup_s()));
  }
  double setup_s = 0;
  for (const auto& samples : setup_samples) setup_s += median(samples);

  // Virtual metrics come from the first round, which runs in the same
  // process state on every invocation.
  const Pass& first = rounds.front();
  const Summary first_msg =
      summarize(first.samples(&JobResult::first_msg_us));
  const std::uint64_t fp = first.fingerprint();
  std::size_t drifted = 0;
  for (const Pass& p : rounds) drifted += p.fingerprint() != fp;

  print_jobs("round 1", first);
  std::printf("# rounds=%zu setup_samples/job=%zu wall_s/round:", rounds.size(),
              kSetupSamples);
  for (double v : walls) std::printf(" %.4f", v);
  std::printf("\n");
  print_distribution("first_msg_us", first_msg);
  std::printf("# virt_init_us %.4f (per-layer metric: it does not vary "
              "with the seed)\n",
              mean_of(first, &JobResult::init_us));
  std::printf("# fingerprint %s %016" PRIx64 "\n", w.name.c_str(), fp);
  if (drifted > 0) {
    std::printf(
        "# note: %zu later rounds differ from round 1 in virtual metrics\n",
        drifted);
  }

  const std::vector<Metric> metrics = {
      {"wall_s", median(walls), "s"},
      {"setup_s", setup_s, "s"},
      {"sim_msgs_per_s", median(rates), "msg/s"},
      {"peak_rss_mb", rss_kib / 1024, "MiB"},
      {"virt_s", first.sum([](const JobResult& r) { return r.completion_s; }),
       "virt-s"},
      {"vis_per_proc", mean_of(first, &JobResult::peak_vis), "VIs"},
      {"pinned_kb_per_proc", mean_of(first, &JobResult::pinned_bytes) / 1024,
       "KiB"},
      {"first_msg_us.p50", first_msg.p50, "virt-us"},
      {"first_msg_us.p99", first_msg.p99, "virt-us"},
  };
  return finish(failed == 0, attempted, failed, metrics, spans,
                args.spans_path);
}

// --- --trace 1: per-layer metrics ------------------------------------------

// Host time of one NAS kernel on a one-rank World: numerics, no messages.
double numerics_s(const char* kernel, Class cls, long* attempted,
                  long* failed) {
  JobSpec job;
  job.label = std::string(kernel) + "." + odmpi::nas::to_string(cls) + ".1";
  job.nranks = 1;
  job.kernel = kernel;
  job.cls = cls;
  const JobResult r = run_job(job, {});
  ++*attempted;
  if (!r.passed) ++*failed;
  return r.run_s;
}

int traced_run(const Workload& w, const Args& args) {
  SpanLog spans;
  long attempted = 0;
  long failed = 0;
  // The first pass runs in a fresh process, like round 1 of --trace 0, so
  // its virtual metrics, counts and fingerprint are the same.
  const Pass plain = run_pass(w, false, &spans);
  const LayerCosts lc = measure_layers(max_ranks(w));
  ++attempted;
  if (!lc.packets_delivered) {
    ++failed;
    std::printf("# FAIL: a via microloop packet did not arrive intact\n");
  }
  const Class cls = args.size == Size::kTiny ? Class::S : Class::B;
  const double numerics_cg = numerics_s("CG", cls, &attempted, &failed);
  const double numerics_is = numerics_s("IS", cls, &attempted, &failed);
  const double numerics_mg = numerics_s("MG", cls, &attempted, &failed);
  // Host phases and the tracing overhead compare two warm passes.
  const Pass traced = run_pass(w, true, &spans);
  const Pass warm = run_pass(w, false, &spans);
  for (const Pass* p : {&plain, &traced, &warm}) {
    attempted += static_cast<long>(p->jobs.size());
    failed += p->failed;
  }

  // Counts from the first pass; distributions from the traced one.
  const double wall = warm.wall_s();
  const Summary wire = summarize(traced.samples(&JobResult::wire_us));
  const Summary handshake =
      summarize(traced.samples(&JobResult::handshake_us));
  const Summary park = summarize(traced.samples(&JobResult::park_us));
  const Summary send = summarize(traced.samples(&JobResult::send_us));
  const Summary first_msg =
      summarize(plain.samples(&JobResult::first_msg_us));
  std::int64_t doorbells = 0;
  for (const JobResult& r : traced.jobs) doorbells += r.doorbell_scans;
  auto kernel_virt = [&](const char* k) {
    double s = 0;
    for (const JobResult& r : plain.jobs) {
      if (r.kernel == k) s += r.kernel_virt_s;
    }
    return s;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  const auto packets = static_cast<double>(plain.count("fabric.packets"));
  const auto bytes = static_cast<double>(plain.count("fabric.bytes"));
  const auto sends = static_cast<double>(plain.count("mpi.sends"));
  const auto recvs = static_cast<double>(plain.count("mpi.recvs"));
  const auto hits = static_cast<double>(plain.count("mpi.reg_cache_hits"));
  const auto misses =
      static_cast<double>(plain.count("mpi.reg_cache_misses"));
  const auto vis = static_cast<double>(plain.count("vi.created"));
  double ranks = 0;
  double rss_kb_per_rank = 0;  // the largest of any job in the pass
  for (const JobResult& r : plain.jobs) {
    ranks += r.nranks;
    rss_kb_per_rank = std::max(rss_kb_per_rank, r.rss_growth_kb / r.nranks);
  }
  // Estimated host share of each layer: count x unit cost / wall_s. NIC
  // cost is linear in packet size between the 64 B and 64 KiB points.
  const odmpi::mpi::DeviceConfig dc;
  const double nic_ns =
      packets * lc.packet_ns_64b +
      std::max(0.0, bytes - 64 * packets) / (65536.0 - 64) *
          (lc.packet_ns_64k - lc.packet_ns_64b);
  const double registrations = misses + vis * dc.credits +
                               ranks * dc.send_pool_size;

  print_jobs("untraced pass", plain);
  std::printf("# wall_s: first pass %.4f, traced %.4f, warm untraced %.4f\n",
              plain.wall_s(), traced.wall_s(), wall);
  print_distribution("first_msg_us", first_msg);
  print_distribution("via.wire_us", wire);
  print_distribution("mpi.handshake_us", handshake);
  print_distribution("mpi.park_us", park);
  print_distribution("mpi.send_us", send);
  std::printf("# reg_cache base: %.0f lookups; unexpected base: %.0f recvs\n",
              hits + misses, recvs);
  std::printf("# fiber/engine event counts are not observable through the "
              "public API; their shares are not estimated\n");
  std::printf("# fingerprint %s %016" PRIx64 "\n", w.name.c_str(),
              plain.fingerprint());
  if (traced.fingerprint() != plain.fingerprint()) {
    std::printf("# note: traced pass differs from untraced in virtual "
                "metrics\n");
  }
  std::printf("# peak RSS with tracing: %.1f MiB\n", peak_rss_kib() / 1024);

  std::vector<Metric> metrics = {
      {"virt_init_us", mean_of(plain, &JobResult::init_us), "virt-us"},
      {"world.setup_s", warm.setup_s(), "s"},
      {"world.run_s", warm.sum([](const JobResult& r) { return r.run_s; }),
       "s"},
      {"world.teardown_s",
       warm.sum([](const JobResult& r) { return r.teardown_s; }), "s"},
      {"trace.overhead", ratio(traced.wall_s(), wall), "ratio"},
      {"sim.fiber.switch_ns", lc.fiber_switch_ns, "ns"},
      {"sim.engine.event_ns", lc.engine_event_ns, "ns"},
      {"via.registry.covers_ns", lc.covers_ns, "ns"},
      {"via.registry.register_ns", lc.register_ns, "ns"},
      {"via.nic.packet_ns.64b", lc.packet_ns_64b, "ns"},
      {"via.nic.packet_ns.64k", lc.packet_ns_64k, "ns"},
      {"mpi.match_ns", lc.match_ns, "ns"},
      {"via.packets", packets, "count"},
      {"via.bytes", bytes, "bytes"},
      {"via.vis_created", vis, "count"},
      {"via.conn.established",
       static_cast<double>(plain.count("conn.established")), "count"},
      {"via.conn.retries", static_cast<double>(plain.count("conn.retries")),
       "count"},
      {"via.doorbell_scans", static_cast<double>(doorbells), "count"},
      {"mpi.sends", sends, "count"},
      {"mpi.eager_sends", static_cast<double>(plain.count("mpi.eager_sends")),
       "count"},
      {"mpi.rndv_sends", static_cast<double>(plain.count("mpi.rndv_sends")),
       "count"},
      {"mpi.recvs", recvs, "count"},
      {"mpi.unexpected_ratio",
       ratio(static_cast<double>(plain.count("mpi.unexpected_msgs")), recvs),
       "share"},
      {"mpi.reg_cache.lookups", hits + misses, "count"},
      {"mpi.reg_cache.hit_ratio", ratio(hits, hits + misses), "share"},
      {"mpi.ondemand_connects",
       static_cast<double>(plain.count("mpi.ondemand_connects")), "count"},
      {"mpi.parked_sends", static_cast<double>(plain.count("mpi.parked_sends")),
       "count"},
      {"mpi.evictions", static_cast<double>(plain.count("mpi.evictions")),
       "count"},
      {"mpi.reconnects", static_cast<double>(plain.count("mpi.reconnects")),
       "count"},
      {"nas.kernel_virt_s.CG", kernel_virt("CG"), "virt-s"},
      {"nas.kernel_virt_s.IS", kernel_virt("IS"), "virt-s"},
      {"nas.kernel_virt_s.MG", kernel_virt("MG"), "virt-s"},
      {"nas.numerics_s.CG", numerics_cg, "s"},
      {"nas.numerics_s.IS", numerics_is, "s"},
      {"nas.numerics_s.MG", numerics_mg, "s"},
      {"host.rss_kb_per_rank", rss_kb_per_rank, "KiB"},
      {"est.via.nic_share", ratio(nic_ns * 1e-9, wall), "share"},
      {"est.via.covers_share", ratio(2 * packets * lc.covers_ns * 1e-9, wall),
       "share"},
      {"est.via.register_share",
       ratio(registrations * lc.register_ns * 1e-9, wall), "share"},
      {"est.mpi.match_share",
       ratio((sends + recvs) * lc.match_ns * 1e-9, wall), "share"},
  };
  const std::pair<const char*, const Summary*> dists[] = {
      {"first_msg_us", &first_msg}, {"via.wire_us", &wire},
      {"mpi.handshake_us", &handshake}, {"mpi.park_us", &park},
      {"mpi.send_us", &send}};
  for (const auto& [name, s] : dists) {
    const std::string base = name;
    if (base != "first_msg_us") {  // its p50/p99 are end-to-end metrics
      metrics.push_back({base + ".p50", s->p50, "virt-us"});
      metrics.push_back({base + ".p99", s->p99, "virt-us"});
    }
    metrics.push_back({base + ".top", s->top, "virt-us"});
    metrics.push_back({base + ".n", static_cast<double>(s->n), "count"});
  }
  metrics.push_back({"failed_jobs",
                     ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "share"});
  return finish(failed == 0, attempted, failed, metrics, spans,
                args.spans_path);
}

// --- --self-test -------------------------------------------------------------

int self_test() {
  int problems = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("self-test: %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++problems;
  };
  for (const std::string& name : workload_names()) {
    Workload w;
    (void)make_workload(name, 1, Size::kTiny, &w);
    const Pass a = run_pass(w, false, nullptr);
    const Pass b = run_pass(w, false, nullptr);
    check(a.failed == 0 && b.failed == 0, name + ": every job passes");
    const std::string what =
        name + ": fingerprint equal across two passes in one process";
    if (a.fingerprint() != b.fingerprint() && a.count("mpi.rndv_sends") > 0) {
      // Known library defect, reported rather than failed: the device's
      // registration cache is keyed by heap address, so with rendezvous
      // sends the hits (and the registration time charged) depend on the
      // malloc layout earlier jobs in the process left behind.
      std::printf("self-test: KNOWN %s (rendezvous registration cache is "
                  "keyed by heap address)\n",
                  what.c_str());
      continue;
    }
    check(a.fingerprint() == b.fingerprint(), what);
  }
  Workload w;
  (void)make_workload("conn_scale", 1, Size::kTiny, &w);
  w.jobs.resize(1);
  w.jobs[0].corrupt = true;
  const Pass p = run_pass(w, false, nullptr);
  check(p.failed == 1 &&
            p.jobs[0].failure.find("payload") != std::string::npos,
        "corrupted conn_scale payload is counted in failed_jobs");
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.self_test) return self_test();
  Workload w;
  if (!make_workload(args.workload, args.seed, args.size, &w)) {
    usage(("unknown workload " + args.workload).c_str());
  }
  return args.trace ? traced_run(w, args) : timed_run(w, args);
}
