#include "framework/engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "gen/er.hpp"

namespace tcgpu::framework {
namespace {

Engine::Config small_config(std::size_t workers = 1) {
  Engine::Config cfg;
  cfg.max_edges = 2'000;
  cfg.seed = 42;
  cfg.workers = workers;
  return cfg;
}

TEST(EngineCache, PrepareRunsPipelineOncePerKey) {
  Engine engine(small_config());
  const auto a = engine.prepare("As-Caida");
  const auto b = engine.prepare("As-Caida");
  EXPECT_EQ(a.get(), b.get());  // the same PreparedGraph, not a copy
  const auto c = engine.counters();
  EXPECT_EQ(c.prepares, 1u);
  EXPECT_EQ(c.prepare_hits, 1u);

  engine.prepare("Wiki-Talk");  // different dataset -> different key
  EXPECT_EQ(engine.counters().prepares, 2u);
}

TEST(EngineCache, KeyIsSensitiveToEveryField) {
  const PrepareKey base{"As-Caida", 2'000, 42, graph::OrientationPolicy::kByDegree};
  PrepareKey k = base;
  EXPECT_EQ(k, base);
  k.dataset = "Wiki-Talk";
  EXPECT_NE(k, base);
  k = base;
  k.max_edges = 2'001;
  EXPECT_NE(k, base);
  k = base;
  k.seed = 43;
  EXPECT_NE(k, base);
  k = base;
  k.policy = graph::OrientationPolicy::kById;
  EXPECT_NE(k, base);
}

TEST(EngineCache, DifferentSeedsPrepareDifferentGraphs) {
  auto cfg_a = small_config();
  auto cfg_b = small_config();
  cfg_b.seed = 7;
  Engine ea(cfg_a), eb(cfg_b);
  const auto ga = ea.prepare("As-Caida");
  const auto gb = eb.prepare("As-Caida");
  EXPECT_NE(ga->dag.col(), gb->dag.col());  // different generated edges
}

TEST(EnginePool, DeviceGraphIsUploadedOnceAcrossAlgorithms) {
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  const auto polak = engine.run("Polak", pg);
  const auto trust = engine.run("TRUST", pg);
  EXPECT_TRUE(polak.valid);
  EXPECT_TRUE(trust.valid);
  const auto c = engine.counters();
  EXPECT_EQ(c.uploads, 1u);      // one resident DAG serves both runs
  EXPECT_EQ(c.upload_hits, 1u);  // the second run reused it
  EXPECT_EQ(c.cells, 2u);
}

TEST(EnginePool, TracksBytesUploadedPerResidentImage) {
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  EXPECT_EQ(engine.counters().bytes_uploaded, 0u);  // nothing resident yet

  engine.run("Polak", pg);
  const std::uint64_t after_one = engine.counters().bytes_uploaded;
  EXPECT_GT(after_one, 0u);
  engine.run("TRUST", pg);  // pool hit: no new upload, no new bytes
  EXPECT_EQ(engine.counters().bytes_uploaded, after_one);

  const auto pg2 = engine.prepare("Wiki-Talk");
  engine.run("Polak", pg2);  // second resident image adds its own bytes
  EXPECT_GT(engine.counters().bytes_uploaded, after_one);
}

TEST(EnginePool, ResidencyIsUploadedMinusReleasedAtAllTimes) {
  // Regression: bytes_uploaded used to be the only byte counter, so
  // residency could only be inferred as a ratchet. The invariant now is
  // bytes_resident == bytes_uploaded - bytes_released across upload, evict
  // and release — what fleet::DeviceSlot accounting trusts.
  Engine engine(small_config());
  const auto check_invariant = [&] {
    const auto c = engine.counters();
    EXPECT_EQ(c.bytes_resident, c.bytes_uploaded - c.bytes_released);
  };

  const auto pg = engine.prepare("As-Caida");
  EXPECT_EQ(engine.counters().bytes_resident, 0u);
  engine.run("Polak", pg);
  const auto one = engine.counters();
  EXPECT_GT(one.bytes_resident, 0u);
  EXPECT_EQ(one.bytes_released, 0u);
  EXPECT_EQ(engine.device_image_bytes(pg), one.bytes_resident);
  check_invariant();

  const auto pg2 = engine.prepare("Wiki-Talk");
  engine.run("Polak", pg2);
  const auto two = engine.counters();
  EXPECT_GT(two.bytes_resident, one.bytes_resident);
  check_invariant();

  // Releasing one image folds its bytes out of residency — and into the
  // cumulative released counter, never out of bytes_uploaded.
  engine.release_device(pg);
  const auto after_release = engine.counters();
  EXPECT_EQ(after_release.bytes_released, one.bytes_resident);
  EXPECT_EQ(after_release.bytes_resident,
            two.bytes_resident - one.bytes_resident);
  EXPECT_EQ(after_release.bytes_uploaded, two.bytes_uploaded);
  EXPECT_EQ(engine.device_image_bytes(pg), 0u);
  check_invariant();

  // Evicting the cache entry drops the remaining image the same way.
  engine.invalidate("Wiki-Talk");
  const auto after_evict = engine.counters();
  EXPECT_EQ(after_evict.bytes_resident, 0u);
  EXPECT_EQ(after_evict.bytes_released, after_evict.bytes_uploaded);
  check_invariant();

  // Double release is a no-op, not a double subtraction.
  engine.release_device(pg);
  check_invariant();
}

TEST(EnginePool, PooledRunMatchesFreshDeviceRunBitIdentically) {
  // The pool bases per-run scratch at the resident device's mark, so the
  // simulated address stream — and therefore every metric and the modeled
  // time — must equal the legacy fresh-device-per-run path exactly.
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  engine.run("TRUST", pg);  // warm the pool; TRUST scratch must not disturb
  const auto pooled = engine.run("GroupTC", pg);
  const auto fresh =
      run_algorithm(*make_algorithm("GroupTC"), *pg, engine.config().spec);
  EXPECT_EQ(pooled.result.triangles, fresh.result.triangles);
  EXPECT_EQ(pooled.result.total, fresh.result.total);
  ASSERT_EQ(pooled.result.launches.size(), fresh.result.launches.size());
  for (std::size_t i = 0; i < pooled.result.launches.size(); ++i) {
    EXPECT_EQ(pooled.result.launches[i].second, fresh.result.launches[i].second);
  }
}

TEST(EngineSweep, PreparesAndUploadsEachDatasetExactlyOnce) {
  auto cfg = small_config();
  cfg.datasets = {"As-Caida", "Wiki-Talk", "RoadNet-CA"};

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    cfg.workers = workers;
    Engine engine(cfg);
    std::ostringstream progress;
    const auto rows = engine.sweep(all_algorithms(), progress);
    ASSERT_EQ(rows.size(), 3u);
    const std::size_t cells = rows.size() * all_algorithms().size();
    const auto c = engine.counters();
    // The exactly-once guarantees: the CPU pipeline ran once per graph and
    // each DAG went to the device once, serial or parallel.
    EXPECT_EQ(c.prepares, 3u) << "workers=" << workers;
    EXPECT_EQ(c.uploads, 3u) << "workers=" << workers;
    EXPECT_EQ(c.upload_hits, cells - 3u) << "workers=" << workers;
    EXPECT_EQ(c.cells, cells) << "workers=" << workers;
    EXPECT_TRUE(engine.all_valid());
    EXPECT_EQ(engine.exit_code(), 0);
  }
}

TEST(EngineSweep, ParallelCellsAreBitIdenticalToSerial) {
  auto serial_cfg = small_config(1);
  auto parallel_cfg = small_config(4);
  serial_cfg.datasets = {"As-Caida", "Wiki-Talk"};
  parallel_cfg.datasets = serial_cfg.datasets;

  Engine serial(serial_cfg), parallel(parallel_cfg);
  std::ostringstream serial_log, parallel_log;
  const auto s = serial.sweep(headline_algorithms(), serial_log);
  const auto p = parallel.sweep(headline_algorithms(), parallel_log);

  ASSERT_EQ(s.size(), p.size());
  for (std::size_t r = 0; r < s.size(); ++r) {
    EXPECT_EQ(s[r].graph->name, p[r].graph->name);
    ASSERT_EQ(s[r].outcomes.size(), p[r].outcomes.size());
    for (std::size_t c = 0; c < s[r].outcomes.size(); ++c) {
      const auto& so = s[r].outcomes[c];
      const auto& po = p[r].outcomes[c];
      EXPECT_EQ(so.algorithm, po.algorithm);
      EXPECT_EQ(so.result.triangles, po.result.triangles);
      EXPECT_EQ(so.valid, po.valid);
      // Bit-identical simulator stats, including the modeled time.
      EXPECT_EQ(so.result.total, po.result.total);
    }
  }
  // Same cells, same order, same text: the progress streams agree too.
  EXPECT_EQ(serial_log.str(), parallel_log.str());
}

TEST(EngineValidation, CountMismatchLatchesAllValidAndExitCode) {
  // An algorithm that is simply wrong: reports 0 triangles for any graph.
  class WrongCounter final : public tc::TriangleCounter {
   public:
    std::string name() const override { return "Wrong"; }
    tc::AlgoTraits traits() const override { return {"edge", "Merge", "fine", 0}; }
    tc::AlgoResult count(simt::Device&, const simt::GpuSpec&,
                         const tc::DeviceGraph&) const override {
      return {};
    }
  };

  Engine engine(small_config());
  const auto pg = engine.prepare_raw("er", gen::generate_er(200, 1'200, 3));
  ASSERT_GT(pg->reference_triangles, 0u);
  EXPECT_TRUE(engine.all_valid());
  const auto out = engine.run(WrongCounter{}, pg);
  EXPECT_FALSE(out.valid);
  EXPECT_FALSE(engine.all_valid());
  EXPECT_EQ(engine.exit_code(), 1);
  // A later valid run must not clear the latch.
  EXPECT_TRUE(engine.run("Polak", pg).valid);
  EXPECT_FALSE(engine.all_valid());
}

TEST(EngineCache, ConcurrentPreparesOfOneKeyRunPipelineOnce) {
  // N threads race prepare() on the same key: the per-entry latch must
  // collapse them into one pipeline run, every thread must get the same
  // PreparedGraph, and a run against the shared handle must be bit-identical
  // to a run in a serial engine.
  constexpr std::size_t kThreads = 8;
  Engine engine(small_config());
  std::vector<Engine::GraphHandle> handles(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { handles[i] = engine.prepare("As-Caida"); });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& h : handles) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h.get(), handles.front().get());
  }
  const auto c = engine.counters();
  EXPECT_EQ(c.prepares, 1u);
  EXPECT_EQ(c.prepare_hits, kThreads - 1);

  Engine serial(small_config());
  const auto hammered = engine.run("Polak", handles.front());
  const auto reference = serial.run("Polak", serial.prepare("As-Caida"));
  EXPECT_EQ(hammered.result.triangles, reference.result.triangles);
  EXPECT_EQ(hammered.result.total, reference.result.total);  // bit-identical
}

TEST(EngineEviction, EvictDropsCacheEntryAndDeviceImage) {
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  engine.run("Polak", pg);
  EXPECT_EQ(engine.resident_graphs(), 1u);

  EXPECT_TRUE(engine.evict("As-Caida"));
  EXPECT_EQ(engine.resident_graphs(), 0u);
  EXPECT_EQ(engine.counters().evictions, 1u);
  EXPECT_FALSE(engine.evict("As-Caida"));  // already gone

  // The handle given out before eviction keeps working (re-upload).
  EXPECT_TRUE(engine.run("Polak", pg).valid);
  // Re-preparing reruns the pipeline.
  engine.prepare("As-Caida");
  EXPECT_EQ(engine.counters().prepares, 2u);
}

TEST(EngineEviction, MaxResidentCapEvictsLeastRecentlyUsed) {
  auto cfg = small_config();
  cfg.max_resident = 2;
  Engine engine(cfg);
  engine.prepare("As-Caida");
  engine.prepare("Wiki-Talk");
  EXPECT_EQ(engine.resident_graphs(), 2u);

  engine.prepare("As-Caida");     // touch: As-Caida is now most recent
  engine.prepare("RoadNet-CA");   // pushes past the cap
  EXPECT_EQ(engine.resident_graphs(), 2u);
  EXPECT_EQ(engine.counters().evictions, 1u);

  // Wiki-Talk (least recently used) was the victim; As-Caida survived.
  const auto before = engine.counters().prepares;
  engine.prepare("As-Caida");
  EXPECT_EQ(engine.counters().prepares, before);  // still cached
  engine.prepare("Wiki-Talk");
  EXPECT_EQ(engine.counters().prepares, before + 1);  // was evicted
}

TEST(EngineEviction, ReleaseDeviceDropsPooledImageOfRawGraph) {
  Engine engine(small_config());
  const auto pg = engine.prepare_raw("er", gen::generate_er(100, 400, 3));
  engine.run("Polak", pg);
  EXPECT_EQ(engine.counters().uploads, 1u);

  EXPECT_TRUE(engine.release_device(pg));
  EXPECT_FALSE(engine.release_device(pg));  // already released

  // The next run re-uploads; counts stay correct.
  EXPECT_TRUE(engine.run("Polak", pg).valid);
  EXPECT_EQ(engine.counters().uploads, 2u);
}

TEST(EngineSweep, UnknownDatasetSelectionThrows) {
  auto cfg = small_config();
  cfg.datasets = {"As-Caida", "No-Such-Graph"};
  Engine engine(cfg);
  std::ostringstream progress;
  EXPECT_THROW(engine.sweep(headline_algorithms(), progress), std::out_of_range);
}

// A one-shot engine built from BenchOptions — what the figure benches do.
TEST(EngineCompat, RunSweepWrapperStillServesLegacyCallers) {
  BenchOptions opt;
  opt.max_edges = 2'000;
  opt.datasets = {"As-Caida"};
  opt.jobs = 1;
  std::vector<AlgorithmEntry> algos = {all_algorithms()[1]};  // Polak
  std::ostringstream progress;
  const auto rows = Engine(opt).sweep(algos, progress);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].graph->name, "As-Caida");
  EXPECT_TRUE(rows[0].all_valid());
}

}  // namespace
}  // namespace tcgpu::framework
