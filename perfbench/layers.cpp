#include "perfbench/layers.h"

#include <cstddef>
#include <memory>
#include <vector>

#include "perfbench/report.h"
#include "src/mpi/matching.h"
#include "src/odmpi.h"
#include "src/sim/fiber.h"
#include "src/via/memory.h"

namespace perfbench {

using namespace odmpi;

namespace {

constexpr int kBatches = 5;

// Median ns/op over kBatches batches of `ops` operations each; `batch`
// runs one batch and returns a value that depends on the work done.
template <typename F>
double ns_per_op(long ops, F&& batch) {
  std::vector<double> ns;
  volatile long sink = 0;
  sink = sink + batch();  // warm-up
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    sink = sink + batch();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(ops));
  }
  return median(std::move(ns));
}

double fiber_switch_ns() {
  constexpr long kOps = 200000;
  long yields = 0;
  sim::Fiber fiber([&yields] {
    for (;;) {
      ++yields;
      sim::Fiber::yield_to_scheduler();
    }
  });
  return ns_per_op(kOps, [&] {
    for (long i = 0; i < kOps; ++i) fiber.resume();
    return yields;
  });
}

double engine_event_ns() {
  constexpr long kOps = 200000;
  return ns_per_op(kOps, [] {
    sim::Engine engine;
    long fired = 0;
    for (long i = 0; i < kOps; ++i) {
      engine.schedule_at(i, [&fired] { ++fired; });
    }
    engine.run();
    return fired;
  });
}

// A registry holding `kRegions` regions, the live set of a rank with a
// few dozen channels' eager buffers pinned.
constexpr std::size_t kRegions = 256;
constexpr std::size_t kRegionBytes = 4096;

double covers_ns() {
  constexpr long kOps = 1000000;
  std::vector<std::byte> mem(kRegions * kRegionBytes);
  via::MemoryRegistry reg;
  std::vector<via::MemoryHandle> handles;
  for (std::size_t i = 0; i < kRegions; ++i) {
    handles.push_back(reg.register_region(&mem[i * kRegionBytes], kRegionBytes));
  }
  return ns_per_op(kOps, [&] {
    long hits = 0;
    std::size_t slot = 0;
    for (long i = 0; i < kOps; ++i) {
      slot = (slot + 97) % kRegions;  // stride through every region
      hits += reg.covers(handles[slot], &mem[slot * kRegionBytes + 64], 512);
    }
    return hits;
  });
}

double register_ns() {
  constexpr long kOps = 200000;
  std::vector<std::byte> mem(kRegions * kRegionBytes);
  via::MemoryRegistry reg;
  for (std::size_t i = 0; i < kRegions; ++i) {
    (void)reg.register_region(&mem[i * kRegionBytes], kRegionBytes);
  }
  return ns_per_op(kOps, [&] {
    long ok = 0;
    for (long i = 0; i < kOps; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i) % kRegions;
      const via::MemoryHandle h =
          reg.register_region(&mem[slot * kRegionBytes], kRegionBytes);
      ok += reg.deregister(h);
    }
    return ok;
  });
}

// One connected VI pair on a 2-NIC cluster. A process on node 0 posts a
// receive on node 1's VI and a send on node 0's, then blocks on both
// completion queues: post -> fabric delivery -> completion, per packet.
// Returns a negative value if any packet failed to arrive whole.
double packet_ns(std::size_t bytes) {
  const long ops = bytes <= 64 ? 20000 : 2000;
  sim::Engine engine;
  via::Cluster cluster(engine, 2, via::DeviceProfile::clan());
  via::Nic& n0 = cluster.nic(0);
  via::Nic& n1 = cluster.nic(1);
  std::vector<double> ns;
  long delivered = 0;
  std::vector<std::byte> src(bytes, std::byte{0x5A});
  std::vector<std::byte> dst(bytes);
  sim::Process proc(engine, 0, [&] {
    via::CompletionQueue* scq = n0.create_cq();
    via::CompletionQueue* rcq = n1.create_cq();
    via::Vi* vi0 = n0.create_vi(scq, nullptr);
    via::Vi* vi1 = n1.create_vi(nullptr, rcq);
    n0.connections().connect_peer(*vi0, 1, 7);
    n1.connections().connect_peer(*vi1, 0, 7);
    sim::Process* self = sim::Process::current();
    while (vi0->state() != via::ViState::kConnected ||
           vi1->state() != via::ViState::kConnected) {
      self->advance(sim::nanoseconds(100));
      self->yield();
    }
    const via::MemoryHandle hs = n0.register_memory(src.data(), bytes);
    const via::MemoryHandle hd = n1.register_memory(dst.data(), bytes);
    for (int b = 0; b <= kBatches; ++b) {  // batch 0 warms up
      const Clock::time_point t0 = Clock::now();
      for (long i = 0; i < ops; ++i) {
        via::Descriptor recv;
        recv.op = via::DescOp::kReceive;
        recv.addr = dst.data();
        recv.length = bytes;
        recv.mem_handle = hd;
        via::Descriptor send;
        send.op = via::DescOp::kSend;
        send.addr = src.data();
        send.length = bytes;
        send.mem_handle = hs;
        (void)vi1->post_recv(&recv);
        (void)vi0->post_send(&send);
        (void)rcq->wait();
        (void)scq->wait();
        delivered += recv.done && recv.bytes_transferred == bytes;
      }
      if (b > 0) {
        ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                     static_cast<double>(ops));
      }
    }
  });
  proc.start();
  engine.run();
  if (delivered != ops * (kBatches + 1) || dst != src) return -1;
  return median(std::move(ns));
}

mpi::RequestPtr posted_recv(mpi::ContextId ctx, mpi::Rank src, mpi::Tag tag) {
  auto req = std::make_shared<mpi::RequestState>();
  req->kind = mpi::ReqKind::kRecv;
  req->context = ctx;
  req->src = src;
  req->tag = tag;
  return req;
}

// An arrival matched against a posted queue holding one receive per
// source, `depth` sources deep; the matched receive is re-posted.
double match_ns(int depth) {
  constexpr long kOps = 1000000;
  mpi::MatchingEngine eng;
  for (int s = 0; s < depth; ++s) eng.add_posted(posted_recv(7, s, s));
  return ns_per_op(kOps, [&] {
    long matched = 0;
    for (long i = 0; i < kOps; ++i) {
      const auto src = static_cast<mpi::Rank>(i % depth);
      mpi::RequestPtr req = eng.match_arrival(7, src, src);
      matched += req != nullptr;
      eng.add_posted(std::move(req));
    }
    return matched;
  });
}

}  // namespace

LayerCosts measure_layers(int match_depth) {
  LayerCosts c;
  c.fiber_switch_ns = fiber_switch_ns();
  c.engine_event_ns = engine_event_ns();
  c.covers_ns = covers_ns();
  c.register_ns = register_ns();
  c.packet_ns_64b = packet_ns(64);
  c.packet_ns_64k = packet_ns(64 * 1024);
  c.match_ns = match_ns(match_depth);
  c.packets_delivered = c.packet_ns_64b > 0 && c.packet_ns_64k > 0;
  return c;
}

}  // namespace perfbench
