#include "graph/connectivity.h"

#include <cstdint>

namespace netshuffle {

std::vector<int> ConnectedComponents(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<int> component(n, -1);
  int next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (component[s] != -1) continue;
    component[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
           ++v) {
        if (component[*v] == -1) {
          component[*v] = next;
          stack.push_back(*v);
        }
      }
    }
    ++next;
  }
  return component;
}

bool IsBipartite(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<int8_t> color(n, -1);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (color[s] != -1 || g.degree(s) == 0) continue;
    color[s] = 0;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
           ++v) {
        if (color[*v] == -1) {
          color[*v] = static_cast<int8_t>(1 - color[u]);
          stack.push_back(*v);
        } else if (color[*v] == color[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

WalkErgodicity ClassifyWalk(const Graph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return WalkErgodicity::kDisconnected;
  std::vector<int8_t> color(n, -1);
  std::vector<NodeId> stack{0};
  color[0] = 0;
  size_t reached = 1;
  bool odd_cycle = false;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
         ++v) {
      if (color[*v] == -1) {
        color[*v] = static_cast<int8_t>(1 - color[u]);
        stack.push_back(*v);
        ++reached;
      } else if (color[*v] == color[u]) {
        odd_cycle = true;
      }
    }
  }
  if (reached < n) return WalkErgodicity::kDisconnected;
  return odd_cycle ? WalkErgodicity::kErgodic : WalkErgodicity::kBipartite;
}

bool IsErgodic(const Graph& g) {
  return ClassifyWalk(g) == WalkErgodicity::kErgodic;
}

}  // namespace netshuffle
