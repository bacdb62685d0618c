// Cross-shard boundary records for the block-parallel engine.
//
// Everything inside a shard is single-threaded and non-atomic (envelopes,
// refcounts, the event slab); the ONLY data that crosses shard threads are
// the plain-old-data records defined here, and they cross exclusively at
// epoch barriers. A BoundaryBuffer is a bare std::vector written by the
// source shard during the run phase and drained by the destination shard
// during the next drain phase — the two phases are separated by an
// EpochBarrier wait on both sides, which is the entire synchronization story
// (no locks, no lock-free rings; see epoch_barrier.h for the ordering
// argument).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dynamoth::sim {

/// One event crossing a shard boundary. The engine only interprets `at`
/// (delivery time on the destination shard's clock — the lookahead contract
/// requires it to land strictly after the epoch in which it was posted); the
/// remaining fields are an application-defined payload. Deliberately POD and
/// pointer-free: refcounted objects, interned ids and other thread-bound
/// state must never cross shards.
struct BoundaryEvent {
  SimTime at = 0;
  std::uint32_t type = 0;  // application-defined discriminator
  std::uint32_t a = 0;     // application-defined (e.g. tile index)
  std::uint64_t b = 0;     // application-defined (e.g. member count)
};

/// Per-(src,dst) mailbox. Appended by src during run phases, drained in FIFO
/// order by dst during drain phases; never touched concurrently.
using BoundaryBuffer = std::vector<BoundaryEvent>;

}  // namespace dynamoth::sim
