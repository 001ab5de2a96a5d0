#include "graph/connectivity.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "util/parallel.h"

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

namespace {

// A frontier goes bottom-up once the edges leaving it reach 1/14 of the
// edges no traversal has touched yet and it holds at least 1/24 of the
// nodes (Beamer, Asanovic & Patterson, "Direction-optimizing breadth-first
// search", SC 2012): a bottom-up sweep visits every node, so a narrow
// frontier near the end of a long path must not take it.  Either direction
// assigns every node its exact BFS depth, so the switch changes the cost,
// never the verdict.
constexpr size_t kBottomUpEdgeRatio = 14;
constexpr size_t kBottomUpNodeRatio = 24;

// A reached node at BFS depth d holds 1 + d % 3 (0: not reached yet).  An
// edge joins depths at most one apart, so its ends hold equal codes iff
// they share a depth, and the three depths around a frontier stay apart.
uint8_t DepthCode(size_t depth) { return static_cast<uint8_t>(1 + depth % 3); }

}  // namespace

WalkErgodicity ClassifyWalk(const Graph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return WalkErgodicity::kDisconnected;
  std::vector<uint8_t> code(n, 0);
  ThreadPool& pool = GlobalPool();
  const size_t chunks = std::min(n, pool.size() * 4);
  // Reserved on the dispatching thread, so the workers never allocate
  // (glibc gives each allocating thread an arena of its own).  A range
  // finds at most its own nodes.
  std::vector<std::vector<NodeId>> found(chunks);
  for (std::vector<NodeId>& f : found) f.reserve(n / chunks + 1);
  std::vector<size_t> found_edges(chunks);
  // Every reached node in BFS order; depth d's frontier is the slice
  // [level_begin, level_end).
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(0);
  code[0] = DepthCode(0);
  size_t level_begin = 0, level_end = 1;
  size_t frontier_edges = g.degree(0);
  size_t untouched_edges = 2 * g.num_edges() - frontier_edges;
  for (size_t depth = 0; level_begin < level_end; ++depth) {
    const uint8_t here = DepthCode(depth), there = DepthCode(depth + 1);
    size_t next_edges = 0;
    if (frontier_edges * kBottomUpEdgeRatio < untouched_edges ||
        (level_end - level_begin) * kBottomUpNodeRatio < n) {
      // Narrow frontier: expand it serially.
      for (size_t i = level_begin; i < level_end; ++i) {
        const NodeId u = queue[i];
        for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
             ++v) {
          if (code[*v] != 0) continue;
          code[*v] = there;
          queue.push_back(*v);
          next_edges += g.degree(*v);
        }
      }
    } else {
      // Wide frontier: every unreached node looks for a neighbor on it, in
      // parallel by node range.  An unreached node's reached neighbors all
      // sit at `depth`, so one holding `here` is on the frontier.  The
      // sweep only reads codes; each range then writes the codes of the
      // nodes it found, all inside the range.  Chunks append in node order,
      // whatever the width.
      pool.RunChunks(chunks, [&](size_t c) {
        found[c].clear();
        found_edges[c] = 0;
        const size_t last = n * (c + 1) / chunks;
        for (size_t v = n * c / chunks; v < last; ++v) {
          const NodeId node = static_cast<NodeId>(v);
          if (code[node] != 0) continue;
          for (const NodeId* u = g.neighbors_begin(node);
               u != g.neighbors_end(node); ++u) {
            if (code[*u] != here) continue;
            found[c].push_back(node);
            found_edges[c] += g.degree(node);
            break;
          }
        }
      });
      pool.RunChunks(chunks, [&](size_t c) {
        for (const NodeId v : found[c]) code[v] = there;
      });
      for (size_t c = 0; c < chunks; ++c) {
        queue.insert(queue.end(), found[c].begin(), found[c].end());
        next_edges += found_edges[c];
      }
    }
    untouched_edges -= next_edges;
    frontier_edges = next_edges;
    level_begin = level_end;
    level_end = queue.size();
  }
  if (queue.size() < n) return WalkErgodicity::kDisconnected;

  // Connected: the walk is periodic iff no edge joins two nodes of one BFS
  // depth (an odd cycle).  One parallel sweep over the edges.
  std::atomic<bool> odd_cycle{false};
  ParallelFor(n, 4096, [&](size_t begin, size_t end) {
    for (size_t v = begin;
         v < end && !odd_cycle.load(std::memory_order_relaxed); ++v) {
      const NodeId node = static_cast<NodeId>(v);
      for (const NodeId* u = g.neighbors_begin(node);
           u != g.neighbors_end(node); ++u) {
        if (code[*u] != code[node]) continue;
        odd_cycle.store(true, std::memory_order_relaxed);
        break;
      }
    }
  });
  return odd_cycle.load() ? WalkErgodicity::kErgodic
                          : WalkErgodicity::kBipartite;
}

bool IsErgodic(const Graph& g) {
  return ClassifyWalk(g) == WalkErgodicity::kErgodic;
}

}  // namespace netshuffle
