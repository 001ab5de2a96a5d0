#include "graph/io.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

namespace netshuffle {

bool SaveEdgeList(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# netshuffle-edgelist %zu %zu\n", g.num_nodes(),
               g.num_edges());
  for (const Edge& e : g.EdgeList()) {
    std::fprintf(f, "%" PRIu32 " %" PRIu32 "\n", e.first, e.second);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool LoadEdgeList(const std::string& path, Graph* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  size_t n = 0, m = 0;
  // The header is untrusted: a node count past the NodeId range names no
  // graph this library can build, and the edge count is only checked
  // against the edges actually read, so nothing is sized from it.
  if (std::fscanf(f, "# netshuffle-edgelist %zu %zu\n", &n, &m) != 2 ||
      n > std::numeric_limits<NodeId>::max()) {
    std::fclose(f);
    return false;
  }
  std::vector<Edge> edges;
  uint32_t u = 0, v = 0;
  while (std::fscanf(f, "%" SCNu32 " %" SCNu32, &u, &v) == 2) {
    if (u >= n || v >= n) {
      std::fclose(f);
      return false;
    }
    edges.push_back({u, v});
  }
  std::fclose(f);
  if (edges.size() != m) return false;
  *out = Graph::FromEdges(n, std::move(edges));
  return true;
}

}  // namespace netshuffle
