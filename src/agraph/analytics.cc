// Admin-tab graph analytics: components, degree stats, bounded path
// enumeration for exploratory browsing. All traversals run on the shared
// epoch-stamped scratch — no per-call O(V) allocation.
#include <algorithm>

#include "agraph/agraph.h"

namespace graphitti {
namespace agraph {

std::vector<std::vector<NodeRef>> AGraph::ConnectedComponents() const {
  std::vector<std::vector<NodeRef>> components;
  util::TraversalScratch& s = Scratch();
  s.set_a.Begin(refs_.size());
  for (uint32_t start = 0; start < refs_.size(); ++start) {
    if (!s.set_a.Insert(start)) continue;
    std::vector<NodeRef> component;
    s.queue.clear();
    s.queue.push_back(start);
    for (size_t head = 0; head < s.queue.size(); ++head) {
      uint32_t cur = s.queue[head];
      component.push_back(refs_[cur]);
      for (const Edge& e : out_[cur]) {
        if (s.set_a.Insert(e.other)) s.queue.push_back(e.other);
      }
      for (const Edge& e : in_[cur]) {
        if (s.set_a.Insert(e.other)) s.queue.push_back(e.other);
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  std::sort(components.begin(), components.end(),
            [](const std::vector<NodeRef>& a, const std::vector<NodeRef>& b) {
              return a.front() < b.front();
            });
  return components;
}

// lint: allow-map(stats surface: tiny, ordered output for display)
std::map<NodeKind, size_t> AGraph::CountByKind() const {
  // lint: allow-map(same: a handful of kinds, built once per call)
  std::map<NodeKind, size_t> counts;
  for (const NodeRef& ref : refs_) ++counts[ref.kind];
  return counts;
}

AGraph::DegreeStats AGraph::Degrees() const {
  DegreeStats stats;
  if (refs_.empty()) return stats;
  stats.min = SIZE_MAX;
  size_t total = 0;
  for (size_t i = 0; i < refs_.size(); ++i) {
    size_t degree = out_[i].size() + in_[i].size();
    stats.min = std::min(stats.min, degree);
    stats.max = std::max(stats.max, degree);
    total += degree;
  }
  stats.mean = static_cast<double>(total) / static_cast<double>(refs_.size());
  return stats;
}

std::vector<Path> AGraph::AllPaths(NodeRef from, NodeRef to, size_t max_hops,
                                   size_t max_paths) const {
  std::vector<Path> paths;
  auto from_idx = DenseIndex(from);
  auto to_idx = DenseIndex(to);
  if (!from_idx.ok() || !to_idx.ok() || max_paths == 0) return paths;

  util::TraversalScratch& s = Scratch();
  util::EpochVisitSet& on_path = s.set_a;
  on_path.Begin(refs_.size());

  // Iterative DFS; each frame's cursor indexes the node's out-edges followed
  // by its in-edges (the undirected view) directly — no materialized merged
  // adjacency.
  struct Frame {
    uint32_t node;
    size_t cursor = 0;
  };
  auto edge_at = [&](uint32_t node, size_t cursor) -> const Edge* {
    const EdgeList& outs = out_[node];
    if (cursor < outs.size()) return &outs[cursor];
    size_t j = cursor - outs.size();
    const EdgeList& ins = in_[node];
    return j < ins.size() ? &ins[j] : nullptr;
  };

  std::vector<Frame> stack;
  std::vector<uint32_t> node_stack;
  std::vector<uint32_t> label_stack;
  stack.push_back({*from_idx});
  on_path.Insert(*from_idx);
  node_stack.push_back(*from_idx);

  while (!stack.empty() && paths.size() < max_paths) {
    Frame& frame = stack.back();
    const Edge* edge = edge_at(frame.node, frame.cursor);
    if (edge == nullptr || node_stack.size() > max_hops) {
      // Backtrack (also cuts off when the hop budget cannot admit children).
      on_path.Erase(frame.node);
      node_stack.pop_back();
      if (!label_stack.empty()) label_stack.pop_back();
      stack.pop_back();
      continue;
    }
    ++frame.cursor;
    uint32_t next = edge->other;
    if (on_path.Contains(next)) continue;
    if (next == *to_idx) {
      Path p;
      for (uint32_t n : node_stack) p.nodes.push_back(refs_[n]);
      p.nodes.push_back(refs_[next]);
      for (uint32_t l : label_stack) p.edge_labels.push_back(labels_[l]);
      p.edge_labels.push_back(labels_[edge->label]);
      paths.push_back(std::move(p));
      continue;
    }
    if (node_stack.size() >= max_hops) continue;  // no budget to go deeper
    on_path.Insert(next);
    node_stack.push_back(next);
    label_stack.push_back(edge->label);
    stack.push_back({next});
  }
  return paths;
}

}  // namespace agraph
}  // namespace graphitti
