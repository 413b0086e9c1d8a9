// Layer microloops: each times calls into one layer's public API and
// reports nanoseconds per operation (median of several timed batches).
#pragma once

namespace perfbench {

struct LayerCosts {
  double fiber_switch_ns = 0;   // sim::Fiber resume + yield round trip
  double engine_event_ns = 0;   // sim::Engine schedule + fire, per event
  double covers_ns = 0;         // via::MemoryRegistry::covers
  double register_ns = 0;       // via::MemoryRegistry register + deregister
  double packet_ns_64b = 0;     // 2-NIC via::Cluster post -> deliver ->
  double packet_ns_64k = 0;     //   complete, per packet, at 64 B / 64 KiB
  double match_ns = 0;          // mpi::MatchingEngine posted-exact arrival
  bool packets_delivered = false;  // every microloop packet arrived whole
};

/// Runs every microloop. `match_depth` is the posted-queue source depth
/// for the matching loop (the workload's largest rank count).
[[nodiscard]] LayerCosts measure_layers(int match_depth);

}  // namespace perfbench
