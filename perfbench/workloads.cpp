#include "perfbench/workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

namespace perfbench {

using namespace odmpi;

namespace {

// Current resident set, KiB, from /proc/self/statm. Read with plain
// syscalls into a stack buffer so the reading allocates nothing: the heap
// layout feeds the device's registration cache and so the virtual metrics.
double resident_kib() {
  char buf[128];
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  long total = 0;
  long resident = 0;
  if (std::sscanf(buf, "%ld %ld", &total, &resident) != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024;
}

// --- Seeded inputs --------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// k distinct strides from [1, (n-1)/2] (a partial Fisher-Yates shuffle),
// each with a payload size in [kMinPayload, kMaxPayload]. Keeping every
// stride below n/2 means s_i + s_j < n, so rank r's peers r+s_i and r-s_j
// never coincide and every first exchange is a new pair.
constexpr std::size_t kMinPayload = 16;
constexpr std::size_t kMaxPayload = 2048;  // eager on every profile

void seeded_strides(int nranks, int k, std::uint64_t seed,
                    std::uint64_t stream, JobSpec* job) {
  std::vector<int> pool;
  for (int s = 1; s <= (nranks - 1) / 2; ++s) pool.push_back(s);
  std::uint64_t state = seed * 0x2545F4914F6CDD1DULL + stream;
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(k),
                                          pool.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + splitmix64(state) % (pool.size() - i);
    std::swap(pool[i], pool[j]);
    job->payload_bytes.push_back(
        kMinPayload + splitmix64(state) % (kMaxPayload - kMinPayload + 1));
  }
  pool.resize(take);
  job->strides = std::move(pool);
}

// --- Job configurations ---------------------------------------------------

enum class Net { kClan, kBvia };
enum class Cm { kOnDemand, kStaticPolling };

mpi::JobOptions options_for(Net net, Cm cm, int max_vis = 0) {
  mpi::JobOptions o;
  o.profile = net == Net::kClan ? via::DeviceProfile::clan()
                                : via::DeviceProfile::bvia();
  // Both configurations poll, as in the paper's on-demand vs
  // static-polling comparison (Figures 6-7).
  o.device.wait_policy = mpi::WaitPolicy::polling();
  o.device.connection_model = cm == Cm::kOnDemand
                                  ? mpi::ConnectionModel::kOnDemand
                                  : mpi::ConnectionModel::kStaticPeerToPeer;
  o.device.max_vis = max_vis;
  return o;
}

std::string config_label(Net net, Cm cm, int max_vis) {
  std::string s = net == Net::kClan ? "clan" : "bvia";
  s += cm == Cm::kOnDemand ? "/on-demand" : "/static-polling";
  if (max_vis > 0) s += "/max_vis=" + std::to_string(max_vis);
  return s;
}

JobSpec nas_job(const char* kernel, nas::Class cls, int n, Net net, Cm cm) {
  JobSpec j;
  j.label = std::string(kernel) + "." + nas::to_string(cls) + "." +
            std::to_string(n) + "/" + config_label(net, cm, 0);
  j.nranks = n;
  j.options = options_for(net, cm);
  j.kernel = kernel;
  j.cls = cls;
  return j;
}

JobSpec contact_job(int n, Net net, Cm cm, int max_vis, int k, int reps,
                    std::uint64_t seed, std::uint64_t stream) {
  JobSpec j;
  j.label = "contact." + std::to_string(n) + "/" +
            config_label(net, cm, max_vis);
  j.nranks = n;
  j.options = options_for(net, cm, max_vis);
  seeded_strides(n, k, seed, stream, &j);
  j.reps = reps;
  return j;
}

// --- Contact body ---------------------------------------------------------

// Every contact message starts with this header; the rest of the payload
// is filler derived from (sender, stride), checked byte for byte.
struct ContactMsg {
  std::int32_t sender = -1;
  std::int32_t stride = -1;
  std::int32_t round = -1;
  std::int32_t pad = 0;
};
constexpr int kMsgInts = sizeof(ContactMsg) / sizeof(std::int32_t);
constexpr mpi::Tag kFanInTag = 1 << 20;

std::byte filler(int sender, int stride, std::size_t at) {
  return static_cast<std::byte>((sender * 31 + stride * 7 + at) & 0xFF);
}

struct ContactState {
  std::vector<double> first_msg_us;
  long payload_errors = 0;
};

void contact_body(mpi::Comm& c, const JobSpec& job, ContactState& st) {
  const int n = c.size();
  const int me = c.rank();
  std::vector<std::byte> out_buf(kMaxPayload);
  std::vector<std::byte> in_buf(kMaxPayload);
  auto exchange = [&](std::size_t i, int round) {
    const int s = job.strides[i];
    const std::size_t bytes = job.payload_bytes[i];
    const int dst = (me + s) % n;
    const int src = (me - s + n) % n;
    ContactMsg out{me, s, round, 0};
    if (job.corrupt && me == 1 && round == 0 && i == 0) ++out.stride;
    std::memcpy(out_buf.data(), &out, sizeof out);
    for (std::size_t b = sizeof out; b < bytes; ++b) {
      out_buf[b] = filler(me, s, b);
    }
    const auto tag = static_cast<mpi::Tag>(i);
    const auto count = static_cast<int>(bytes);
    c.sendrecv(out_buf.data(), count, mpi::kByte, dst, tag, in_buf.data(),
               count, mpi::kByte, src, tag);
    ContactMsg in;
    std::memcpy(&in, in_buf.data(), sizeof in);
    bool ok = in.sender == src && in.stride == s && in.round == round;
    for (std::size_t b = sizeof in; ok && b < bytes; ++b) {
      ok = in_buf[b] == filler(src, s, b);
    }
    if (!ok) ++st.payload_errors;
  };

  // First contact: each exchange opens two new pairs (to r+s and from r-s).
  for (std::size_t i = 0; i < job.strides.size(); ++i) {
    const double t0 = c.wtime();
    exchange(i, 0);
    st.first_msg_us.push_back((c.wtime() - t0) * 1e6);
  }
  // Steady state: the same exchanges over established (or, under a VI
  // budget, evicted and reconnected) channels.
  for (int round = 1; round <= job.reps; ++round) {
    for (std::size_t i = 0; i < job.strides.size(); ++i) exchange(i, round);
  }
  // Fan-in: every rank to rank 0, received with MPI_ANY_SOURCE.
  if (me != 0) {
    ContactMsg out{me, 0, -1, 0};
    c.send(&out, kMsgInts, mpi::kInt32, 0, kFanInTag);
    return;
  }
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int j = 1; j < n; ++j) {
    ContactMsg in;
    const mpi::MsgStatus ms =
        c.recv(&in, kMsgInts, mpi::kInt32, mpi::kAnySource, kFanInTag);
    const bool valid = in.sender > 0 && in.sender < n &&
                       ms.source == in.sender && in.round == -1 &&
                       seen[static_cast<std::size_t>(in.sender)]++ == 0;
    if (!valid) ++st.payload_errors;
  }
}

// --- Trace read-back ------------------------------------------------------

void walk_trace(const sim::Tracer& tr, bool bvia_scans, JobResult& r) {
  static const auto kPacket = sim::Stats::counter("fabric.packet");
  static const auto kHandshake = sim::Stats::counter("mpi.conn.handshake");
  static const auto kPark = sim::Stats::counter("mpi.send.park");
  static const auto kSend = sim::Stats::counter("mpi.send");
  static const auto kDoorbell = sim::Stats::counter("nic.doorbell_scan");
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const sim::Tracer::Event& e = tr.event(i);
    if (e.name == kDoorbell) {
      if (bvia_scans) ++r.doorbell_scans;
      continue;
    }
    if (e.ph != 'X' || e.open) continue;
    const double us = sim::to_us(e.dur);
    if (e.name == kPacket) {
      r.wire_us.push_back(us);
    } else if (e.name == kSend) {
      r.send_us.push_back(us);
    } else if (e.name == kPark) {
      r.park_us.push_back(us);
    } else if (e.name == kHandshake) {
      r.handshake_us.push_back(us);
    }
  }
}

// Aggregate-stats counters every job reports (and the fingerprint covers).
const std::vector<std::string>& counted_stats() {
  static const std::vector<std::string> names = {
      "mpi.sends",           "mpi.eager_sends",      "mpi.rndv_sends",
      "mpi.recvs",           "mpi.unexpected_msgs",  "mpi.reg_cache_hits",
      "mpi.reg_cache_misses", "mpi.ondemand_connects", "mpi.parked_sends",
      "mpi.evictions",       "mpi.reconnects",       "fabric.packets",
      "fabric.bytes",        "vi.created",           "conn.established",
      "conn.retries",
  };
  return names;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"nas_comm", "nas_compute",
                                                 "conn_scale"};
  return names;
}


bool make_workload(const std::string& name, std::uint64_t seed, Size size,
                   Workload* out) {
  const bool tiny = size == Size::kTiny;
  const nas::Class cls = tiny ? nas::Class::S : nas::Class::B;
  Workload w;
  w.name = name;
  if (name == "nas_comm") {
    // Figure 6 (cLAN) and Figure 7 (BVIA) CG cells.
    const int clan_n = tiny ? 4 : 32;
    const int bvia_n = tiny ? 4 : 8;
    for (Cm cm : {Cm::kOnDemand, Cm::kStaticPolling}) {
      w.jobs.push_back(nas_job("CG", cls, clan_n, Net::kClan, cm));
      w.jobs.push_back(nas_job("CG", cls, bvia_n, Net::kBvia, cm));
    }
    // First-contact probes on the on-demand cells' configurations.
    w.jobs.push_back(contact_job(clan_n, Net::kClan, Cm::kOnDemand, 0,
                                 tiny ? 1 : 8, 2, seed, 1));
    w.jobs.push_back(contact_job(bvia_n, Net::kBvia, Cm::kOnDemand, 0,
                                 tiny ? 1 : 3, 2, seed, 2));
  } else if (name == "nas_compute") {
    const int n = tiny ? 4 : 32;
    for (const char* kernel : {"IS", "MG"}) {
      for (Cm cm : {Cm::kOnDemand, Cm::kStaticPolling}) {
        w.jobs.push_back(nas_job(kernel, cls, n, Net::kClan, cm));
      }
    }
    w.jobs.push_back(contact_job(n, Net::kClan, Cm::kOnDemand, 0,
                                 tiny ? 1 : 8, 2, seed, 1));
  } else if (name == "conn_scale") {
    const int n = tiny ? 16 : 256;
    const int mesh_n = tiny ? 8 : 96;
    const int k = tiny ? 3 : 8;
    const int reps = tiny ? 2 : 4;
    w.jobs.push_back(
        contact_job(n, Net::kClan, Cm::kOnDemand, 0, k, reps, seed, 1));
    w.jobs.push_back(
        contact_job(n, Net::kClan, Cm::kOnDemand, 4, k, reps, seed, 2));
    w.jobs.push_back(contact_job(mesh_n, Net::kBvia, Cm::kStaticPolling, 0,
                                 k, reps, seed, 3));
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

JobResult run_job(const JobSpec& job, const RunOptions& opt) {
  JobResult r;
  r.label = job.label;
  r.nranks = job.nranks;
  r.kernel = job.kernel;

  mpi::JobOptions options = job.options;
  if (opt.traced) {
    options.trace.enabled = true;
    options.trace.categories = sim::trace_bit(sim::TraceCat::kFabric) |
                               sim::trace_bit(sim::TraceCat::kConn) |
                               sim::trace_bit(sim::TraceCat::kMsg);
  }
  const nas::KernelFn kernel =
      job.kernel.empty() ? nullptr : nas::kernel_by_name(job.kernel);

  int entered = 0;
  int exited = 0;
  Clock::time_point t_in{};
  Clock::time_point t_out{};
  long unverified = 0;
  ContactState contact;
  double rss_out = -1;

  const double rss_in = resident_kib();
  const Clock::time_point t0 = Clock::now();
  auto world = std::make_unique<mpi::World>(
      mpi::SessionConfig{job.nranks, std::move(options)});
  const Clock::time_point t_built = Clock::now();
  const mpi::RunResult res = world->run_job([&](mpi::Comm& c) {
    if (++entered == job.nranks) t_in = Clock::now();
    if (!opt.setup_only) {
      if (kernel != nullptr) {
        const nas::KernelResult k = kernel(c, job.cls);
        if (!k.verified) ++unverified;
        if (c.rank() == 0) {
          r.kernel_virt_s = k.time_sec;
          r.checksum = k.checksum;
        }
      } else {
        contact_body(c, job, contact);
      }
    }
    if (++exited == job.nranks) {
      t_out = Clock::now();
      rss_out = resident_kib();
    }
  });
  const Clock::time_point t_ret = Clock::now();
  if (entered < job.nranks) t_in = t_ret;
  if (exited < job.nranks) t_out = t_ret;
  if (rss_out < 0) rss_out = resident_kib();
  r.rss_growth_kb = std::max(0.0, rss_out - rss_in);

  // Read-back: outside every timed phase.
  if (res.status != mpi::RunStatus::kOk) {
    r.failure = "status " + res.summary();
  } else if (unverified > 0) {
    r.failure = std::to_string(unverified) + " ranks failed NAS verification";
  } else if (contact.payload_errors > 0) {
    r.failure =
        std::to_string(contact.payload_errors) + " contact payload mismatches";
  }
  r.passed = r.failure.empty();

  const mpi::WorldMetrics m = world->metrics();
  r.completion_s = sim::to_sec(res.completion_time);
  r.init_us = m.mean_init_us;
  r.peak_vis = m.mean_peak_vis_per_process;
  r.pinned_bytes = m.mean_pinned_bytes_peak;
  r.first_msg_us = std::move(contact.first_msg_us);
  const sim::Stats stats = world->aggregate_stats();
  for (const std::string& name : counted_stats()) {
    r.counts[name] = stats.get(name);
  }
  if (res.trace != nullptr) {
    walk_trace(*res.trace, world->options().profile.nic_per_vi_cost > 0, r);
  }

  const Clock::time_point t_del = Clock::now();
  world.reset();
  const Clock::time_point t_gone = Clock::now();

  r.setup_s = seconds_between(t0, t_in);
  r.run_s = seconds_between(t_in, t_ret);
  r.teardown_s = seconds_between(t_del, t_gone);
  if (opt.spans != nullptr) {
    opt.spans->add("world.construct", job.label, t0, t_built);
    opt.spans->add("world.setup", job.label, t0, t_in);
    opt.spans->add("world.body", job.label, t_in, t_out);
    opt.spans->add("world.run_job", job.label, t_built, t_ret);
    opt.spans->add("bench.readback", job.label, t_ret, t_del);
    opt.spans->add("world.teardown", job.label, t_del, t_gone);
  }
  return r;
}

void fingerprint_job(const JobResult& r, Fingerprint* fp) {
  fp->add(r.label + ".completion_s", r.completion_s);
  fp->add(r.label + ".init_us", r.init_us);
  fp->add(r.label + ".peak_vis", r.peak_vis);
  fp->add(r.label + ".pinned_bytes", r.pinned_bytes);
  fp->add(r.label + ".kernel_virt_s", r.kernel_virt_s);
  fp->add(r.label + ".checksum", r.checksum);
  for (double us : r.first_msg_us) fp->add(r.label + ".first_msg_us", us);
  for (const auto& [name, value] : r.counts) {
    fp->add(r.label + "." + name, static_cast<double>(value));
  }
}

}  // namespace perfbench
