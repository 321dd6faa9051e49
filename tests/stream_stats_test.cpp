// Stream digest v2: the word layout of every StreamStats event, pinned by
// a known answer, the aliasing cases the header word exists to separate,
// and checkpoint continuation (ctest label: unit).
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>

#include "scenario/stream_stats.hpp"
#include "util/hash.hpp"

namespace hetsched {
namespace {

constexpr std::size_t kCores = 4;

// A few hand-built events of every digested kind, in stream order.
ReconfigEvent sample_reconfig() {
  ReconfigEvent e;
  e.time = 100;
  e.core = 3;
  e.job_id = 7;
  e.attempt = 1;
  e.success = true;
  e.backoff_wait = 40;
  return e;
}

DispatchEvent sample_dispatch() {
  DispatchEvent e;
  e.time = 100;
  e.core = 3;
  e.job_id = 7;
  e.benchmark_id = 11;
  e.kind = ExecutionKind::kTuning;
  e.backoff = 40;
  e.duration = 5000;
  return e;
}

IdleEvent sample_idle() { return IdleEvent{3, 60, 100}; }

ScheduledSlice sample_slice() {
  ScheduledSlice s;
  s.job_id = 7;
  s.benchmark_id = 11;
  s.core = 3;
  s.start = 140;
  s.end = 5140;
  s.config = CacheConfig{4096, 2, 32};
  s.kind = ExecutionKind::kTuning;
  return s;
}

PreemptEvent sample_preempt() { return PreemptEvent{6000, 1, 9, true}; }

FaultRecord sample_fault() {
  FaultRecord f;
  f.time = 6100;
  f.core = 1;
  f.job_id = 9;
  f.kind = FaultRecord::Kind::kWatchdogFire;
  return f;
}

void feed_first_half(StreamStats& stats) {
  stats.on_reconfig(sample_reconfig());
  stats.on_dispatch(sample_dispatch());
  stats.on_idle(sample_idle());
}

void feed_second_half(StreamStats& stats) {
  stats.on_slice(sample_slice());
  stats.on_preempt(sample_preempt());
  stats.on_fault(sample_fault());
}

// The v2 fold written out from its definition: one multiply and one
// xor-shift per word, starting from the FNV-1a offset basis.
std::uint64_t fold_words(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const std::uint64_t w : words) {
    h = (h ^ w) * kFnv1aPrime;
    h ^= h >> 32;
  }
  return h;
}

std::uint64_t digest_of_slice(const ScheduledSlice& slice) {
  StreamStats stats(kCores);
  stats.on_slice(slice);
  return stats.digest();
}

std::uint64_t digest_of_dispatch(const DispatchEvent& event) {
  StreamStats stats(kCores);
  stats.on_dispatch(event);
  return stats.digest();
}

// Header word: tag in bits 0-7, the enum field in bits 8-15, the bool
// field in bit 16; then one word per remaining field, in declaration
// order (tags: slice 1, fault 2, dispatch 3, reconfig 4, idle 5,
// preempt 6). Any change to the layout or the mixing moves the pin.
TEST(StreamDigest, KnownAnswerForAHandBuiltStream) {
  constexpr std::uint64_t kPinned = 0x5e7f30c5875aa84bull;
  const std::uint64_t expected = fold_words({
      4 | 1u << 16, 100, 3, 7, 1, 40,                      // reconfig
      3 | 2u << 8, 100, 3, 7, 11, 40, 5000,                // dispatch
      5, 3, 60, 100,                                       // idle
      1 | 2u << 8 | 1u << 16, 7, 11, 3, 140, 5140, 4096, 2, 32,  // slice
      6 | 1u << 16, 6000, 1, 9,                            // preempt
      2 | 4u << 8, 6100, 1, 9,                             // fault
  });
  StreamStats stats(kCores);
  feed_first_half(stats);
  feed_second_half(stats);
  EXPECT_EQ(stats.digest(), expected);
  EXPECT_EQ(stats.digest(), kPinned) << std::hex << stats.digest();
  EXPECT_NE(StreamStats(kCores).digest(), stats.digest());
}

// A preemption and a fault carry the same three field words; only the
// header's tag tells them apart.
TEST(StreamDigest, SameFieldsUnderTwoTagsDoNotAlias) {
  StreamStats preempted(kCores);
  preempted.on_preempt(PreemptEvent{6000, 1, 9, false});
  StreamStats faulted(kCores);
  FaultRecord fault;
  fault.time = 6000;
  fault.core = 1;
  fault.job_id = 9;
  fault.kind = FaultRecord::Kind::kCoreFailure;  // enum value 0
  faulted.on_fault(fault);
  EXPECT_NE(preempted.digest(), faulted.digest());
}

TEST(StreamDigest, FlippedFlagsChangeTheDigest) {
  ScheduledSlice preempted_slice = sample_slice();
  preempted_slice.completed = false;
  EXPECT_NE(digest_of_slice(sample_slice()),
            digest_of_slice(preempted_slice));

  DispatchEvent hung = sample_dispatch();
  hung.hung = true;
  EXPECT_NE(digest_of_dispatch(sample_dispatch()), digest_of_dispatch(hung));
}

// `kind` lives in the header word and `core` in a word of its own, so
// swapping their values is a different stream.
TEST(StreamDigest, KindAndCoreSwapsDoNotAlias) {
  ScheduledSlice a = sample_slice();
  a.kind = ExecutionKind::kTuning;  // 2
  a.core = 0;
  ScheduledSlice b = a;
  b.kind = ExecutionKind::kNormal;  // 0
  b.core = 2;
  EXPECT_NE(digest_of_slice(a), digest_of_slice(b));

  DispatchEvent c = sample_dispatch();
  c.kind = ExecutionKind::kProfiling;  // 1
  c.core = 0;
  DispatchEvent d = c;
  d.kind = ExecutionKind::kNormal;
  d.core = 1;
  EXPECT_NE(digest_of_dispatch(c), digest_of_dispatch(d));
}

// A checkpoint taken mid-stream restores the digest state, so the
// resumed collector ends on the uninterrupted digest and totals.
TEST(StreamDigest, SaveRestoreMidStreamContinuesTheDigest) {
  StreamStats whole(kCores);
  feed_first_half(whole);
  feed_second_half(whole);

  StreamStats first(kCores);
  feed_first_half(first);
  std::stringstream saved;
  first.save_state(saved);
  StreamStats resumed(kCores);
  resumed.restore_state(saved, "test");
  EXPECT_EQ(resumed.digest(), first.digest());
  feed_second_half(resumed);

  EXPECT_EQ(resumed.digest(), whole.digest());
  EXPECT_EQ(resumed.slices(), whole.slices());
  EXPECT_EQ(resumed.busy_cycles(), whole.busy_cycles());
  EXPECT_EQ(resumed.idle_cycles(), whole.idle_cycles());
  EXPECT_EQ(resumed.preemptions(), whole.preemptions());
  EXPECT_EQ(resumed.faults(), whole.faults());
  EXPECT_EQ(resumed.reconfig_attempts(), whole.reconfig_attempts());
}

}  // namespace
}  // namespace hetsched
