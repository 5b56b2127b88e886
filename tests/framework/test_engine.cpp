#include "framework/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
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
  const PrepareKey base{"As-Caida", 2'000, 42};
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
  // Once per run, not once per graph: no image outlives its run, so every
  // algorithm uploads the DAG again and no run reuses an earlier image.
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  std::uint64_t cells = 0;
  for (const char* algo : {"Polak", "TRUST", "GroupTC"}) {
    EXPECT_TRUE(engine.run(algo, pg).valid) << algo;
    ++cells;
    const auto c = engine.counters();
    EXPECT_EQ(c.uploads, cells) << algo;
    EXPECT_EQ(c.upload_hits, 0u) << algo;
    EXPECT_EQ(c.cells, cells) << algo;
  }
}

TEST(EnginePool, TracksBytesUploadedPerResidentImage) {
  // An image is resident for exactly one run, so the same graph adds the
  // same bytes on every run and a different graph adds its own.
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  EXPECT_EQ(engine.counters().bytes_uploaded, 0u);  // prepare uploads nothing

  engine.run("Polak", pg);
  const std::uint64_t image = engine.counters().bytes_uploaded;
  EXPECT_GT(image, 0u);
  engine.run("TRUST", pg);  // uploaded again, at the same size
  EXPECT_EQ(engine.counters().bytes_uploaded, 2 * image);
  engine.run("GroupTC", pg);
  EXPECT_EQ(engine.counters().bytes_uploaded, 3 * image);

  const auto pg2 = engine.prepare("Wiki-Talk");
  engine.run("Polak", pg2);
  EXPECT_GT(engine.counters().bytes_uploaded, 3 * image);
}

TEST(EngineRun, RunMatchesFreshDeviceRunBitIdentically) {
  // Engine::run uploads to a fresh device like run_algorithm, so the
  // simulated address stream — and therefore every metric and the modeled
  // time — must equal the one-shot path exactly.
  Engine engine(small_config());
  const auto pg = engine.prepare("As-Caida");
  engine.run("TRUST", pg);  // an earlier run must not disturb the next one
  const auto ran = engine.run("GroupTC", pg);
  const auto fresh =
      run_algorithm(*make_algorithm("GroupTC"), *pg, engine.config().spec);
  EXPECT_EQ(ran.result.triangles, fresh.result.triangles);
  EXPECT_EQ(ran.result.total, fresh.result.total);
  ASSERT_EQ(ran.result.launches.size(), fresh.result.launches.size());
  for (std::size_t i = 0; i < ran.result.launches.size(); ++i) {
    EXPECT_EQ(ran.result.launches[i].second, fresh.result.launches[i].second);
  }
}

TEST(EngineRun, NothingPinsAGraphPastItsLastHandle) {
  // A run frees its device image on return, so once the caller drops its
  // handle the graph is gone — nothing in the engine keeps it alive.
  Engine engine(small_config());
  auto pg = engine.prepare_raw("er", gen::generate_er(200, 1'200, 3));
  const std::weak_ptr<const PreparedGraph> watch = pg;
  EXPECT_TRUE(engine.run("Polak", pg).valid);
  EXPECT_TRUE(engine.run("TRUST", pg).valid);
  pg.reset();
  EXPECT_TRUE(watch.expired());
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
    // The exactly-once guarantee: the CPU pipeline ran once per graph,
    // serial or parallel. Every cell uploads its own device image.
    EXPECT_EQ(c.prepares, 3u) << "workers=" << workers;
    EXPECT_EQ(c.uploads, cells) << "workers=" << workers;
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

  // The handle given out before eviction keeps working.
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
