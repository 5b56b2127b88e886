// The paper's "data transformation tools" (§IV): convert graphs between the
// formats the published implementations consume — text edge list, binary
// edge list, binary CSR, MatrixMarket — with the cleaning pipeline applied
// on the way.
//
//   $ ./format_convert <in> <out>
//
// Formats are inferred from extension: .txt/.el (text), .bin (binary edge
// list), .csr (binary CSR), .mtx (MatrixMarket). With no arguments, runs a
// self-demo: generates a graph, round-trips it through every format, and
// verifies the triangle count is preserved.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "framework/engine.hpp"
#include "gen/rmat.hpp"
#include "graph/io.hpp"
#include "graph/prepare.hpp"

namespace {

using namespace tcgpu;

std::string extension(const std::string& path) {
  return std::filesystem::path(path).extension().string();
}

graph::Coo load_any(const std::string& path) {
  const std::string ext = extension(path);
  if (ext == ".txt" || ext == ".el") return graph::read_text_edge_list(path);
  if (ext == ".bin") return graph::read_binary_edge_list(path);
  if (ext == ".mtx") return graph::read_matrix_market(path);
  if (ext == ".csr") {
    const graph::Csr csr = graph::read_binary_csr(path);
    graph::Coo coo;
    coo.num_vertices = csr.num_vertices();
    for (graph::VertexId u = 0; u < csr.num_vertices(); ++u) {
      for (const graph::VertexId v : csr.neighbors(u)) coo.edges.emplace_back(u, v);
    }
    return coo;
  }
  throw std::runtime_error("unknown input format: " + path);
}

void save_any(const std::string& path, const graph::Coo& clean) {
  const std::string ext = extension(path);
  if (ext == ".txt" || ext == ".el") return graph::write_text_edge_list(path, clean);
  if (ext == ".bin") return graph::write_binary_edge_list(path, clean);
  if (ext == ".mtx") return graph::write_matrix_market(path, clean);
  if (ext == ".csr") {
    return graph::write_binary_csr(path, graph::build_undirected_csr(clean));
  }
  throw std::runtime_error("unknown output format: " + path);
}

// The engine's prepare pipeline (clean → orient → CPU reference count) is
// exactly the invariant a round-trip must preserve.
std::uint64_t triangles_of(framework::Engine& engine, const graph::Coo& raw) {
  return engine.prepare_raw("roundtrip", raw)->reference_triangles;
}

int self_demo() {
  framework::Engine engine;
  gen::RmatParams p;
  p.scale = 12;
  p.edges = 20'000;
  const graph::Coo raw = gen::generate_rmat(p, 11);
  const graph::Coo clean = graph::clean_edges(raw);
  const std::uint64_t want = triangles_of(engine, clean);
  const auto dir = std::filesystem::temp_directory_path() / "tcgpu_convert_demo";
  std::filesystem::create_directories(dir);
  for (const char* name : {"g.txt", "g.bin", "g.mtx", "g.csr"}) {
    const std::string path = (dir / name).string();
    save_any(path, clean);
    const std::uint64_t got = triangles_of(engine, load_any(path));
    std::printf("%-6s triangles=%llu %s\n", extension(path).c_str(),
                static_cast<unsigned long long>(got),
                got == want ? "ok" : "** MISMATCH **");
    if (got != want) return 1;
  }
  std::printf("all formats preserve the triangle count (%llu)\n",
              static_cast<unsigned long long>(want));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 1) return self_demo();
    if (argc != 3) {
      std::cerr << "usage: format_convert <in> <out>   (or no args for a demo)\n";
      return 2;
    }
    const graph::Coo raw = load_any(argv[1]);
    const graph::Coo clean = graph::clean_edges(raw);
    save_any(argv[2], clean);
    std::cout << "wrote " << argv[2] << ": " << clean.num_vertices << " vertices, "
              << clean.edges.size() << " edges (cleaned)\n";
    return 0;
  } catch (const std::exception& e) {
    // One line naming the offending file/line (the io readers embed both),
    // exit 2 — distinguishable from a round-trip mismatch (exit 1) in CI.
    std::cerr << e.what() << '\n';
    return 2;
  }
}
