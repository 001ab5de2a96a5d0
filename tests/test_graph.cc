#include "graph/graph.h"

#include <cstdio>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

int main() {
  // FromEdges dedupes, drops self-loops, and keeps isolated nodes.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}});
  CHECK(g.num_nodes() == 5);
  CHECK(g.num_edges() == 2);
  CHECK(g.degree(0) == 1);
  CHECK(g.degree(1) == 2);
  CHECK(g.degree(3) == 0);

  // Random regular: every node has degree k.
  Rng rng(1);
  Graph reg = MakeRandomRegular(2000, 8, &rng);
  CHECK(reg.num_nodes() == 2000);
  for (NodeId u = 0; u < reg.num_nodes(); ++u) CHECK(reg.degree(u) == 8);
  CHECK(reg.num_edges() == 2000 * 8 / 2);

  // Torus: 4-regular; odd side is ergodic, even side bipartite.
  Graph torus = MakeTorus(9, 9);
  for (NodeId u = 0; u < torus.num_nodes(); ++u) CHECK(torus.degree(u) == 4);
  CHECK(IsErgodic(torus));
  CHECK(IsBipartite(MakeTorus(8, 8)));
  CHECK(!IsErgodic(MakeTorus(8, 8)));
  CHECK(ClassifyWalk(MakeTorus(8, 8)) == WalkErgodicity::kBipartite);

  // Circulant(n, k): k-regular and connected.
  Graph circ = MakeCirculant(101, 8);
  for (NodeId u = 0; u < circ.num_nodes(); ++u) CHECK(circ.degree(u) == 8);
  CHECK(ClassifyWalk(circ) == WalkErgodicity::kErgodic);

  // Barabasi-Albert: connected, right edge count shape.
  Graph ba = MakeBarabasiAlbert(3000, 4, &rng);
  CHECK(ba.num_nodes() == 3000);
  CHECK(ClassifyWalk(ba) != WalkErgodicity::kDisconnected);
  CHECK(ba.max_degree() > 20);  // heavy tail exists

  // Components: two disjoint triangles.
  Graph two = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto comp = ConnectedComponents(two);
  CHECK(comp[0] == comp[1] && comp[1] == comp[2]);
  CHECK(comp[3] == comp[4] && comp[4] == comp[5]);
  CHECK(comp[0] != comp[3]);
  CHECK(ClassifyWalk(two) == WalkErgodicity::kDisconnected);
  // Disconnected wins over bipartite: two disjoint edges.
  CHECK(ClassifyWalk(Graph::FromEdges(4, {{0, 1}, {2, 3}})) ==
        WalkErgodicity::kDisconnected);

  // Edge-list IO round trip preserves structure, including isolated nodes.
  const char* path = "test_graph_roundtrip.edges";
  CHECK(SaveEdgeList(g, path));
  Graph loaded;
  CHECK(LoadEdgeList(path, &loaded));
  CHECK(loaded.num_nodes() == g.num_nodes());
  CHECK(loaded.num_edges() == g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    CHECK(loaded.degree(u) == g.degree(u));
  }
  std::remove(path);

  Graph missing;
  CHECK(!LoadEdgeList("does_not_exist.edges", &missing));

  // Crafted headers fail the load instead of aborting the process: an edge
  // count of 2^60 that no reserve() could honour, and node counts past the
  // 32-bit NodeId range (2^40 and 2^32 + 1).  The output graph is left as
  // it was.
  for (const char* header : {"# netshuffle-edgelist 2 1152921504606846976\n",
                             "# netshuffle-edgelist 1099511627776 0\n",
                             "# netshuffle-edgelist 4294967297 0\n"}) {
    const char* crafted = "test_graph_crafted.edges";
    std::FILE* f = std::fopen(crafted, "w");
    CHECK(f != nullptr);
    CHECK(std::fputs(header, f) >= 0);
    CHECK(std::fclose(f) == 0);
    Graph kept = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
    CHECK(!LoadEdgeList(crafted, &kept));
    CHECK(kept.num_nodes() == 3);
    CHECK(kept.num_edges() == 3);
    std::remove(crafted);
  }

  // Regression: endpoints >= n used to corrupt the CSR offsets silently
  // (out-of-bounds writes).  The typed validator names the offender...
  CHECK(Graph::ValidateEdges(5, {{0, 1}, {1, 4}}).ok());
  const Status bad = Graph::ValidateEdges(5, {{0, 1}, {3, 5}});
  CHECK(bad.code() == StatusCode::kEdgeEndpointOutOfRange);
  CHECK(Graph::ValidateEdges(3, {{7, 0}}).code() ==
        StatusCode::kEdgeEndpointOutOfRange);
  CHECK(Graph::ValidateEdges(0, {}).ok());

  // ...and FromEdges aborts on exactly that instead of building garbage.
  netshuffle_test::ExpectDeath([] { (void)Graph::FromEdges(3, {{0, 5}}); });
  return 0;
}
