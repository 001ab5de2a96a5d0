// Connectivity / ergodicity checks for the random-walk engine.

#ifndef NETSHUFFLE_GRAPH_CONNECTIVITY_H_
#define NETSHUFFLE_GRAPH_CONNECTIVITY_H_

#include <vector>

#include "graph/graph.h"

namespace netshuffle {

/// Component id (0-based, BFS discovery order) per node.
std::vector<int> ConnectedComponents(const Graph& g);

/// True iff the graph is 2-colorable (isolated nodes don't count against it).
bool IsBipartite(const Graph& g);

/// Why a random walk on g does or does not converge to a unique stationary
/// distribution from every start.
enum class WalkErgodicity {
  kErgodic,
  /// More than one component (or no nodes at all).
  kDisconnected,
  /// Connected but 2-colorable: the walk alternates sides forever.
  kBipartite,
};

/// One breadth-first traversal from node 0 that both counts its component
/// and finds its depths, then one sweep over the edges for an odd cycle (an
/// edge inside one depth).  Wide frontiers and the sweep run on the pool
/// (util/parallel.h); the verdict does not depend on the width.
WalkErgodicity ClassifyWalk(const Graph& g);

/// A random walk on g has a unique stationary distribution it converges to
/// from every start iff g is connected and non-bipartite.
bool IsErgodic(const Graph& g);

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_CONNECTIVITY_H_
