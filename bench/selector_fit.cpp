// Calibration fitter for serve::Selector.
//
// Runs the twelve-kernel selection pool over the dataset suite, compares the
// simulator's measured kernel time against the selector's raw (uncalibrated)
// cost model, and prints the per-algorithm calibration constant — the
// geometric mean of measured/modeled work time — in a form ready to paste
// into Selector::default_models(). A second pass re-scores the suite with
// the fitted constants and reports selection accuracy: for each dataset,
// whether the selector's pick lands within 10% of the measured per-graph
// best (the acceptance bar tests/serve/test_selector_accuracy enforces).
#include <cmath>
#include <iostream>
#include <map>
#include <vector>

#include "framework/engine.hpp"
#include "framework/report.hpp"
#include "serve/selector.hpp"

int main(int argc, char** argv) {
  using namespace tcgpu;
  framework::BenchOptions opt;
  try {
    opt = framework::BenchOptions::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  framework::Engine engine(opt);
  const auto& algos = framework::pool_algorithms();
  const auto rows = engine.sweep(algos, std::cerr);

  // Raw model: calibration forced to 1.
  auto raw_models = serve::Selector::default_models();
  for (auto& m : raw_models) m.calibration = 1.0;
  serve::Selector raw(raw_models, engine.config().spec);

  // Fit: per algorithm, geometric mean of measured/modeled work time.
  std::map<std::string, std::pair<double, std::size_t>> log_ratio;  // sum, n
  for (const auto& row : rows) {
    const auto ranked = raw.score(row.graph->stats);
    for (const auto& out : row.outcomes) {
      for (const auto& c : ranked) {
        if (c.algorithm != out.algorithm) continue;
        const double modeled = c.cost.modeled_ms - c.cost.launch_ms;
        const double measured = out.result.total.time_ms - c.cost.launch_ms;
        if (modeled > 0.0 && measured > 0.0) {
          auto& [sum, n] = log_ratio[out.algorithm];
          sum += std::log(measured / modeled);
          ++n;
        }
        break;
      }
    }
  }

  // Residuals: per cell, measured work time / raw modeled work time. A flat
  // column means the algorithm's work shape is right and calibration alone
  // fixes the scale; a trending column means a shape term is off.
  {
    std::vector<std::string> cols = {"dataset", "n", "m", "davg", "s2", "skew"};
    for (const auto& a : algos) cols.push_back(a.name);
    framework::ResultTable resid(cols);
    for (const auto& row : rows) {
      const auto& st = row.graph->stats;
      std::vector<std::string> cells = {
          row.graph->name, std::to_string(st.num_vertices),
          std::to_string(st.num_undirected_edges),
          framework::ResultTable::fmt(st.avg_out_degree, 2),
          std::to_string(st.sum_out_degree_sq),
          framework::ResultTable::fmt(st.out_degree_skew, 1)};
      const auto ranked = raw.score(st);
      for (const auto& out : row.outcomes) {
        for (const auto& c : ranked) {
          if (c.algorithm != out.algorithm) continue;
          const double modeled = c.cost.modeled_ms - c.cost.launch_ms;
          const double measured = out.result.total.time_ms - c.cost.launch_ms;
          cells.push_back(modeled > 0.0 && measured > 0.0
                              ? framework::ResultTable::fmt(measured / modeled, 3)
                              : "-");
          break;
        }
      }
      resid.add_row(std::move(cells));
    }
    framework::emit(resid, opt, std::cout,
                    "Residuals: measured/modeled work time (calibration = 1)");
  }

  // Actual kernel launches per run — the model's `launches` constants must
  // match these or the fixed launch-overhead term mispredicts small graphs.
  {
    std::vector<std::string> cols = {"dataset"};
    for (const auto& a : algos) cols.push_back(a.name);
    framework::ResultTable launches(cols);
    for (const auto& row : rows) {
      std::vector<std::string> cells = {row.graph->name};
      for (const auto& out : row.outcomes) {
        cells.push_back(std::to_string(out.result.launches.size()));
      }
      launches.add_row(std::move(cells));
    }
    framework::emit(launches, opt, std::cout, "Kernel launches per run");
  }

  std::cout << "// fitted calibration (geomean measured/modeled work, "
            << rows.size() << " datasets, edge cap " << opt.max_edges
            << ", " << opt.gpu << "):\n";
  auto fitted = raw_models;
  for (auto& m : fitted) {
    const auto it = log_ratio.find(m.name);
    if (it != log_ratio.end() && it->second.second > 0) {
      m.calibration = std::exp(it->second.first /
                               static_cast<double>(it->second.second));
    }
    std::cout << "//   " << m.name << ": "
              << framework::ResultTable::fmt(m.calibration, 4) << '\n';
  }

  // Accuracy pass: score with the SHIPPED default_models() — what the
  // service actually dispatches with — and compare the pick's measured time
  // against the measured per-graph best. (The refit above is advisory: the
  // shipped calibration column additionally spreads the near-tied contenders
  // apart, so paste it back only together with a fresh accuracy check.)
  serve::Selector sel(engine.config().spec);
  framework::ResultTable table(
      {"dataset", "E", "picked", "best", "picked_ms", "best_ms", "ratio", "ok"});
  std::size_t within = 0;
  for (const auto& row : rows) {
    const auto pick = sel.choose(row.graph->stats);
    std::size_t best = 0;
    double picked_ms = -1.0;
    for (std::size_t i = 0; i < row.outcomes.size(); ++i) {
      const double t = row.outcomes[i].result.total.time_ms;
      if (t < row.outcomes[best].result.total.time_ms) best = i;
      if (row.outcomes[i].algorithm == pick.algorithm) picked_ms = t;
    }
    const double best_ms = row.outcomes[best].result.total.time_ms;
    const double ratio = picked_ms / best_ms;
    const bool ok = ratio <= 1.10;
    if (ok) ++within;
    table.add_row({row.graph->name,
                   std::to_string(row.graph->stats.num_undirected_edges),
                   pick.algorithm, row.outcomes[best].algorithm,
                   framework::ResultTable::fmt(picked_ms, 4),
                   framework::ResultTable::fmt(best_ms, 4),
                   framework::ResultTable::fmt(ratio, 3), ok ? "yes" : "NO"});
  }
  framework::emit(table, opt, std::cout,
                  "Selector fit: picks within 10% of best on " +
                      std::to_string(within) + "/" +
                      std::to_string(rows.size()) + " datasets");
  return engine.exit_code();
}
