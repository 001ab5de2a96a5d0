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

/// One traversal that both counts the component and 2-colors it.
WalkErgodicity ClassifyWalk(const Graph& g);

/// A random walk on g has a unique stationary distribution it converges to
/// from every start iff g is connected and non-bipartite.
bool IsErgodic(const Graph& g);

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_CONNECTIVITY_H_
