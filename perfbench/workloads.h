// The benchmark's workloads and the job runner.
//
// A workload is a fixed list of jobs; a job is one mpi::World run to
// completion on this thread. Jobs are either a NAS kernel cell from the
// paper's Figures 6-7 or a "contact" body written by the benchmark:
// every rank exchanges with k seeded strides (first contact), repeats
// those exchanges (steady state), then sends to rank 0, which receives
// everything with MPI_ANY_SOURCE (fan-in). Every job is a closed loop:
// each rank blocks on its own messages.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/nas/common.h"
#include "src/odmpi.h"

namespace perfbench {

enum class Size {
  kFull,  // the measured sizes
  kTiny,  // self-test sizes: class S, a few ranks
};

struct JobSpec {
  std::string label;
  int nranks = 0;
  odmpi::mpi::JobOptions options;
  std::string kernel;  // NAS kernel name; empty for a contact job
  odmpi::nas::Class cls = odmpi::nas::Class::S;
  // Contact jobs: distinct strides in [1, (nranks-1)/2], so no two of a
  // rank's first-contact peers coincide, a payload size per stride, and
  // steady-state repetitions.
  std::vector<int> strides;
  std::vector<std::size_t> payload_bytes;  // one seeded size per stride
  int reps = 0;
  bool corrupt = false;  // self-test: rank 1 sends one wrong payload
};

struct Workload {
  std::string name;
  std::vector<JobSpec> jobs;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Size size,
                   Workload* out);

struct JobResult {
  std::string label;
  int nranks = 0;
  std::string kernel;

  // Output checks: status kOk, NAS verified on every rank, contact
  // payloads. `failure` names the first failed check.
  bool passed = false;
  std::string failure;

  // Host phases in seconds, measured around the library calls.
  double setup_s = 0;     // World construction -> every rank in the body
  double run_s = 0;       // every rank in the body -> run_job returned
  double teardown_s = 0;  // World destruction
  [[nodiscard]] double wall_s() const { return setup_s + run_s + teardown_s; }
  // Resident-set growth from before World construction to the last rank
  // leaving the body, KiB. A lower bound when the job reuses pages an
  // earlier job freed.
  double rss_growth_kb = 0;

  // Virtual-clock results.
  double completion_s = 0;
  double init_us = 0;
  double peak_vis = 0;
  double pinned_bytes = 0;
  double kernel_virt_s = 0;
  double checksum = 0;
  std::vector<double> first_msg_us;  // contact jobs: one per first exchange
  // Selected World::aggregate_stats counters (mpi.sends, fabric.packets,
  // vi.created, ...), keyed by counter name.
  std::map<std::string, std::int64_t> counts;

  // Traced runs only: distributions read back from sim::Tracer (virtual
  // microseconds) and the Berkeley-VIA doorbell-scan count.
  std::vector<double> wire_us, handshake_us, park_us, send_us;
  std::int64_t doorbell_scans = 0;
};

struct RunOptions {
  bool traced = false;
  bool setup_only = false;     // empty body: times set-up and teardown only
  SpanLog* spans = nullptr;    // host spans are appended here when set
};

[[nodiscard]] JobResult run_job(const JobSpec& job, const RunOptions& opt);

/// Adds a job's virtual metrics and counts to `fp`.
void fingerprint_job(const JobResult& r, Fingerprint* fp);

}  // namespace perfbench
