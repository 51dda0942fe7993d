// Tests for the runtime hot-path sentinels (src/debug/sentinels.hpp): the
// executable half of the TSUNAMI_HOT_PATH contract. Positive cases prove the
// interposers really count (an allocation/lock inside a scope is seen);
// steady-state cases prove the repo's zero-allocation claims on the real hot
// paths — StreamingAssimilator push/push_many/forecast_into, the healthy
// map_estimate() read, the BlockToeplitz apply family, the EventSession
// submit and drain + publish paths — the drain's count of mutex
// acquisitions per tick, and bounded-allocation claims on the
// WarningService drain cycle and its closed-loop tick.
//
// The whole suite GTEST_SKIPs unless built with -DTSUNAMI_CHECKS=ON (the
// interposers are a debug/CI configuration); the `checks` CI job runs it.
// With checks off the suite still compiles and passes (as skips), so it
// rides in the default test glob.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/digital_twin.hpp"
#include "debug/sentinels.hpp"
#include "parallel/thread_pool.hpp"
#include "service/engine_cache.hpp"
#include "service/event_session.hpp"
#include "service/warning_service.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

using debug::ScopedNoAlloc;
using debug::ScopedNoLock;

#define SKIP_WITHOUT_CHECKS()                                              \
  if (!debug::checks_enabled())                                            \
  GTEST_SKIP() << "built without TSUNAMI_CHECKS; sentinels are inert"

// ---------------------------------------------------------------------------
// Sentinel mechanics: do the interposers count what they claim to count?
// ---------------------------------------------------------------------------

TEST(Sentinels, AllocationInsideScopeIsCounted) {
  SKIP_WITHOUT_CHECKS();
  const ScopedNoAlloc guard;
  auto p = std::make_unique<std::uint64_t[]>(256);
  p[0] = 1;
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(debug::total_allocation_count(), guard.allocations());
}

TEST(Sentinels, PureComputationAllocatesNothing) {
  SKIP_WITHOUT_CHECKS();
  std::vector<double> v(1024, 1.0);  // allocated before arming
  std::uint64_t n = 0;
  double sum = 0.0;
  {
    const ScopedNoAlloc guard;
    for (double x : v) sum += x * x;
    n = guard.allocations();
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(n, 0u);
}

TEST(Sentinels, DeallocationIsNotCounted) {
  SKIP_WITHOUT_CHECKS();
  auto p = std::make_unique<double[]>(512);
  const ScopedNoAlloc guard;
  p.reset();  // releasing on a hot path is allowed; acquiring is not
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(Sentinels, MutexLockInsideScopeIsCounted) {
  SKIP_WITHOUT_CHECKS();
  std::mutex m;
  const ScopedNoLock guard;
  {
    const std::lock_guard<std::mutex> lock(m);
  }
  EXPECT_GE(guard.locks(), 1u);
}

TEST(Sentinels, LockFreeCodeTakesNoLocks) {
  SKIP_WITHOUT_CHECKS();
  std::uint64_t n = 0;
  {
    const ScopedNoLock guard;
    volatile double x = 1.0;
    for (int i = 0; i < 100; ++i) x = x * 1.5 - 0.5;
    n = guard.locks();
  }
  EXPECT_EQ(n, 0u);
}

// ---------------------------------------------------------------------------
// Steady-state hot paths. One tiny twin + event, shared by the suite; the
// global pool is pinned to a single thread so parallel_for takes its serial
// fast path (worker handoff is pool machinery, not hot-path work — the
// claims under test are about the assimilation kernels themselves).
// ---------------------------------------------------------------------------

class SteadyStateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool::global().resize(1);
    auto twin = std::make_shared<DigitalTwin>(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 0.3 * twin->mesh().length_x();
    a.y0 = 0.5 * twin->mesh().length_y();
    a.rx = 16e3;
    a.ry = 24e3;
    a.peak_uplift = 2.0;
    rc.asperities.push_back(a);
    rc.hypocenter_x = a.x0;
    rc.hypocenter_y = a.y0;
    Rng rng(5);
    event_ = new SyntheticEvent(twin->synthesize(RuptureScenario(rc), rng));
    twin->run_offline(event_->noise);
    twin_ = new std::shared_ptr<const DigitalTwin>(std::move(twin));
    cache_ = new EngineCache({.track_map = true});
    cached_ = new std::shared_ptr<const CachedEngine>(cache_->adopt(*twin_));
  }
  static void TearDownTestSuite() {
    delete cached_;
    delete cache_;
    delete event_;
    delete twin_;
    cached_ = nullptr;
    cache_ = nullptr;
    event_ = nullptr;
    twin_ = nullptr;
    ThreadPool::global().resize(0);  // back to the default thread count
  }

  static const StreamingEngine& engine() { return (*cached_)->engine(); }

  static std::span<const double> block(std::size_t tick) {
    return std::span<const double>(event_->d_obs)
        .subspan(tick * engine().block_size(), engine().block_size());
  }

  /// Push every tick once (grows all grow-once scratch to its high-water
  /// mark), then reset the event state. What remains allocated afterwards
  /// is exactly the steady-state capacity the claims are about.
  static void warm_up(StreamingAssimilator& assim) {
    for (std::size_t t = assim.ticks_received(); t < engine().num_ticks(); ++t)
      assim.push(t, block(t));
    assim.reset();
  }

  static std::shared_ptr<const DigitalTwin>* twin_;
  static SyntheticEvent* event_;
  static EngineCache* cache_;
  static std::shared_ptr<const CachedEngine>* cached_;
};

std::shared_ptr<const DigitalTwin>* SteadyStateTest::twin_ = nullptr;
SyntheticEvent* SteadyStateTest::event_ = nullptr;
EngineCache* SteadyStateTest::cache_ = nullptr;
std::shared_ptr<const CachedEngine>* SteadyStateTest::cached_ = nullptr;

TEST_F(SteadyStateTest, PushIsAllocAndLockFree) {
  SKIP_WITHOUT_CHECKS();
  StreamingAssimilator assim = engine().start();
  warm_up(assim);
  std::uint64_t allocs = 0, locks = 0;
  {
    const ScopedNoAlloc no_alloc;
    const ScopedNoLock no_lock;
    for (std::size_t t = 0; t < engine().num_ticks(); ++t)
      assim.push(t, block(t));
    allocs = no_alloc.allocations();
    locks = no_lock.locks();
  }
  EXPECT_EQ(allocs, 0u) << "steady-state push allocated";
  EXPECT_EQ(locks, 0u) << "steady-state push took a mutex";
  EXPECT_TRUE(assim.complete());
}

TEST_F(SteadyStateTest, MapEstimateIsAllocAndLockFree) {
  SKIP_WITHOUT_CHECKS();
  StreamingAssimilator assim = engine().start();
  warm_up(assim);
  // One read sizes map_estimate()'s buffer and grows its scratch (the
  // backward-solve vector, the Toeplitz and prior workspace) once; reset()
  // keeps them.
  assim.push(0, block(0));
  (void)assim.map_estimate();
  assim.reset();
  std::uint64_t allocs = 0, locks = 0;
  {
    const ScopedNoAlloc no_alloc;
    const ScopedNoLock no_lock;
    for (std::size_t t = 0; t < engine().num_ticks(); ++t) {
      assim.push(t, block(t));
      (void)assim.map_estimate();
    }
    allocs = no_alloc.allocations();
    locks = no_lock.locks();
  }
  EXPECT_EQ(allocs, 0u) << "healthy map_estimate allocated";
  EXPECT_EQ(locks, 0u) << "healthy map_estimate took a mutex";
  EXPECT_TRUE(assim.complete());
}

TEST_F(SteadyStateTest, PushManyIsAllocAndLockFree) {
  SKIP_WITHOUT_CHECKS();
  StreamingAssimilator a0 = engine().start();
  StreamingAssimilator a1 = engine().start();
  warm_up(a0);
  warm_up(a1);
  // Warm push_many's own thread_local pointer tables, then reset again.
  {
    StreamingAssimilator* events[] = {&a0, &a1};
    const std::span<const double> blocks[] = {block(0), block(0)};
    StreamingAssimilator::push_many(events, 0, blocks);
    a0.reset();
    a1.reset();
  }
  std::uint64_t allocs = 0, locks = 0;
  {
    const ScopedNoAlloc no_alloc;
    const ScopedNoLock no_lock;
    for (std::size_t t = 0; t < engine().num_ticks(); ++t) {
      StreamingAssimilator* events[] = {&a0, &a1};
      const std::span<const double> blocks[] = {block(t), block(t)};
      StreamingAssimilator::push_many(events, t, blocks);
    }
    allocs = no_alloc.allocations();
    locks = no_lock.locks();
  }
  EXPECT_EQ(allocs, 0u) << "steady-state push_many allocated";
  EXPECT_EQ(locks, 0u) << "steady-state push_many took a mutex";
  EXPECT_TRUE(a0.complete());
  EXPECT_TRUE(a1.complete());
}

TEST_F(SteadyStateTest, ForecastIntoIsAllocFree) {
  SKIP_WITHOUT_CHECKS();
  StreamingAssimilator assim = engine().start();
  warm_up(assim);
  Forecast fc;
  assim.forecast_into(fc);  // grows fc's buffers once
  assim.push(0, block(0));
  std::uint64_t allocs = 0;
  {
    const ScopedNoAlloc no_alloc;
    assim.forecast_into(fc);
    allocs = no_alloc.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "steady-state forecast_into allocated";
}

TEST_F(SteadyStateTest, BlockToeplitzApplyFamilyIsAllocAndLockFree) {
  SKIP_WITHOUT_CHECKS();
  const BlockToeplitz& f = (*twin_)->posterior().forward_map();
  std::vector<double> x(f.input_dim(), 0.5);
  std::vector<double> y(f.output_dim(), 0.0);
  std::vector<double> xt(f.input_dim(), 0.0);
  const std::size_t half_ticks = f.num_blocks() / 2 + 1;
  const std::span<const double> y_prefix =
      std::span<const double>(y).first(half_ticks * f.block_rows());
  // Warm the thread_local FFT workspace through every path under test.
  f.apply(x, y);
  f.apply_transpose(y, xt);
  f.apply_transpose_prefix(y_prefix, half_ticks, xt);
  std::uint64_t allocs = 0, locks = 0;
  {
    const ScopedNoAlloc no_alloc;
    const ScopedNoLock no_lock;
    f.apply(x, y);
    f.apply_transpose(y, xt);
    f.apply_transpose_prefix(y_prefix, half_ticks, xt);
    allocs = no_alloc.allocations();
    locks = no_lock.locks();
  }
  EXPECT_EQ(allocs, 0u) << "steady-state BlockToeplitz apply allocated";
  EXPECT_EQ(locks, 0u) << "steady-state BlockToeplitz apply took a mutex";
}

// The one drain routine (EventSession::drain: pop, push, publish via
// forecast_into + snapshot swap) is zero-allocation in steady state. It is
// NOT lock-free by design — the session and snapshot mutexes are the
// ownership and dashboard-read contracts — so only the allocation sentinel
// arms here. The drain runs on the test thread: the thread_local counters
// see exactly the drain + publish work.
TEST_F(SteadyStateTest, EventSessionPublishIsAllocFree) {
  SKIP_WITHOUT_CHECKS();
  ServiceTelemetry telemetry;
  const auto session = std::make_shared<EventSession>(
      1, *cached_, AlertPolicy{}, 64, BackpressurePolicy::kBlock);
  // Warm two ticks: grow the staging forecast and the assimilator's scratch.
  for (std::size_t t = 0; t < 2; ++t) {
    ASSERT_TRUE(session->submit(t, block(t), telemetry));
    session->drain(telemetry);
  }
  std::uint64_t allocs = 0;
  ASSERT_TRUE(session->submit(2, block(2), telemetry));
  {
    const ScopedNoAlloc no_alloc;
    session->drain(telemetry);
    allocs = no_alloc.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "steady-state drain+publish allocated";
  EXPECT_EQ(session->snapshot().ticks_assimilated, 3u);
}

// The lifecycle journal's append is the piece of the observability layer
// that runs ON the drain hot path, so it carries the strongest contract:
// zero allocations AND zero locks — first proven on the raw ring, then on
// the full drain+publish path with a journal attached (the configuration
// every WarningService session actually runs).
// A submit copies its block into the session's preallocated slot for that
// tick: no allocation, in order or out of order (the reorder-stall path).
TEST_F(SteadyStateTest, EventSessionSubmitIsAllocFree) {
  SKIP_WITHOUT_CHECKS();
  ServiceTelemetry telemetry;
  const auto session = std::make_shared<EventSession>(
      1, *cached_, AlertPolicy{}, 64, BackpressurePolicy::kBlock);
  std::vector<std::uint8_t> lossy(engine().block_size(), 1);
  lossy[0] = 0;
  std::uint64_t allocs = 0;
  bool owner = false;
  {
    const ScopedNoAlloc no_alloc;
    (void)session->submit(2, block(2), telemetry);  // ahead of a gap
    (void)session->submit(1, block(1), lossy, telemetry);
    owner = session->submit(0, block(0), telemetry);
    allocs = no_alloc.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "submit allocated";
  ASSERT_TRUE(owner);
  session->drain(telemetry);
  EXPECT_EQ(session->snapshot().ticks_assimilated, 3u);
}

// The drain takes state_mutex_ once per pass (ops + pop, or release) and
// snapshot_mutex_ once per publish: k buffered ticks cost k + 1 plus k
// acquisitions on the draining thread.
TEST_F(SteadyStateTest, EventSessionDrainTakesOneStateLockPerTick) {
  SKIP_WITHOUT_CHECKS();
  ServiceTelemetry telemetry;
  const auto session = std::make_shared<EventSession>(
      1, *cached_, AlertPolicy{}, 64, BackpressurePolicy::kBlock);
  constexpr std::uint64_t k = 8;
  bool owner = false;
  for (std::size_t t = 0; t < k; ++t)
    owner = session->submit(t, block(t), telemetry) || owner;
  ASSERT_TRUE(owner);
  std::uint64_t locks = 0;
  {
    const ScopedNoLock no_lock;
    session->drain(telemetry);
    locks = no_lock.locks();
  }
  EXPECT_EQ(locks, 2 * k + 1) << "drain mutex acquisitions for " << k
                              << " ticks";
  EXPECT_EQ(session->snapshot().ticks_assimilated, k);
}

TEST_F(SteadyStateTest, JournalAppendIsAllocAndLockFree) {
  SKIP_WITHOUT_CHECKS();
  EventJournal journal(256);
  JournalRecord r;
  r.event = 7;
  r.kind = JournalKind::kPush;
  journal.append(r);  // nothing to warm, but keep the shape uniform
  std::uint64_t allocs = 0, locks = 0;
  {
    const ScopedNoAlloc no_alloc;
    const ScopedNoLock no_lock;
    for (std::uint64_t i = 0; i < 512; ++i) {
      r.tick = i;
      journal.append(r);  // wraps twice: the wrap path must stay clean too
    }
    allocs = no_alloc.allocations();
    locks = no_lock.locks();
  }
  EXPECT_EQ(allocs, 0u) << "journal append allocated";
  EXPECT_EQ(locks, 0u) << "journal append took a lock";
  EXPECT_EQ(journal.appended(), 513u);
  EXPECT_EQ(journal.dropped(), 513u - 256u);
}

TEST_F(SteadyStateTest, EventSessionDrainWithJournalIsAllocFree) {
  SKIP_WITHOUT_CHECKS();
  ServiceTelemetry telemetry;
  EventJournal journal;
  const auto session = std::make_shared<EventSession>(
      1, *cached_, AlertPolicy{}, 64, BackpressurePolicy::kBlock, &journal);
  for (std::size_t t = 0; t < 2; ++t) {
    ASSERT_TRUE(session->submit(t, block(t), telemetry));
    session->drain(telemetry);
  }
  std::uint64_t allocs = 0;
  ASSERT_TRUE(session->submit(2, block(2), telemetry));
  {
    const ScopedNoAlloc no_alloc;
    session->drain(telemetry);
    allocs = no_alloc.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "journaled drain+publish allocated";
  // The journal really was written to on the guarded path.
  EXPECT_GE(journal.appended(), 4u);  // open + 3 push records
}

// The full WarningService drain cycle cannot be allocation-FREE (each pump
// posts a pool job), but it must be allocation-FLAT: a small constant
// number of allocations per tick, independent of problem size. Submits
// land on this thread but drains run on pool workers, so the assertion
// uses the process-wide total, quiesced by drain().
TEST_F(SteadyStateTest, WarningServiceDrainIsAllocFlat) {
  SKIP_WITHOUT_CHECKS();
  WarningService service({.num_workers = 1, .max_pending_per_event = 64});
  const EventId id = service.open_event(*cached_);
  const std::size_t nt = engine().num_ticks();
  // Warm one full event cycle (engine scratch on the worker thread, queue
  // capacities, telemetry buckets).
  for (std::size_t t = 0; t < nt; ++t) service.submit(id, t, block(t));
  service.drain();
  const EventId id2 = service.open_event(*cached_);
  service.submit(id2, 0, block(0));
  service.drain();  // worker-thread warm-up for the second session

  const std::uint64_t before = debug::total_allocation_count();
  for (std::size_t t = 1; t < nt; ++t) service.submit(id2, t, block(t));
  service.drain();
  const double per_tick =
      static_cast<double>(debug::total_allocation_count() - before) /
      static_cast<double>(nt - 1);
  // Budget: the pool's Job node per pump (the drain job's 16-byte capture
  // sits inside the std::function) and drain()'s copy of the open-session
  // list; submits copy into preallocated slots. A burst needs fewer pumps
  // than ticks, so this is a ceiling, never "proportional to data dim".
  EXPECT_LE(per_tick, 2.0) << "service drain allocations are not flat";
  EXPECT_TRUE(service.close_event(id2).complete);
}

// The closed-loop tick — submit one block, drain(), as a client waiting on
// each forecast does — through the whole service. The submit and the drain
// loop allocate nothing (above), so what remains per tick is the pool's Job
// node for the drain job and drain()'s copy of the open-session list.
TEST_F(SteadyStateTest, WarningServiceClosedLoopTickAllocBudget) {
  SKIP_WITHOUT_CHECKS();
  WarningService service({.num_workers = 1, .max_pending_per_event = 64});
  const std::size_t nt = engine().num_ticks();
  // Warm one full closed-loop event (engine scratch on the worker thread,
  // queue capacities, telemetry buckets).
  const EventId warm = service.open_event(*cached_);
  for (std::size_t t = 0; t < nt; ++t) {
    service.submit(warm, t, block(t));
    service.drain();
  }
  (void)service.close_event(warm);
  const EventId id = service.open_event(*cached_);
  service.submit(id, 0, block(0));
  service.drain();

  const std::uint64_t before = debug::total_allocation_count();
  for (std::size_t t = 1; t < nt; ++t) {
    service.submit(id, t, block(t));
    service.drain();
  }
  const double per_tick =
      static_cast<double>(debug::total_allocation_count() - before) /
      static_cast<double>(nt - 1);
  EXPECT_LE(per_tick, 2.0) << "closed-loop service tick allocations";
  EXPECT_TRUE(service.close_event(id).complete);
}

}  // namespace
}  // namespace tsunami
