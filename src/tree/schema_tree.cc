#include "tree/schema_tree.h"

#include <algorithm>
#include <utility>

namespace cupid {

TreeNodeId SchemaTree::AddNode(ElementId source, TreeNodeId parent,
                               bool optional) {
  std::vector<TreeNode>& nodes = state_->nodes;
  TreeNodeId id = static_cast<TreeNodeId>(nodes.size());
  TreeNode n;
  n.source = source;
  n.parent = parent;
  n.optional = optional;
  nodes.push_back(std::move(n));
  if (parent != kNoTreeNode) {
    nodes[static_cast<size_t>(parent)].children.push_back(id);
  }
  return id;
}

void SchemaTree::AddSharedChild(TreeNodeId parent, TreeNodeId child) {
  mutable_node(parent)->children.push_back(child);
}

int SchemaTree::Depth(TreeNodeId id) const {
  int d = 0;
  for (TreeNodeId cur = node(id).parent; cur != kNoTreeNode;
       cur = node(cur).parent) {
    ++d;
  }
  return d;
}

Status SchemaTree::Finalize() {
  State& st = *state_;
  const std::vector<TreeNode>& nodes = st.nodes;
  const size_t n = nodes.size();
  if (n == 0) return Status::Internal("schema tree has no nodes");

  // Inverse-topological order over child edges (DFS post-order with visited
  // marks; children may be shared). color: 0 unvisited, 1 on stack, 2 done.
  st.post_order.clear();
  st.post_order.reserve(n);
  std::vector<uint8_t> color(n, 0);
  // Iterative DFS from every node to also cover disconnected nodes (none
  // expected, but cheap to be safe).
  std::vector<std::pair<TreeNodeId, size_t>> stack;
  for (TreeNodeId start = 0; start < static_cast<TreeNodeId>(n); ++start) {
    if (color[static_cast<size_t>(start)] != 0) continue;
    stack.emplace_back(start, 0);
    color[static_cast<size_t>(start)] = 1;
    while (!stack.empty()) {
      auto& [cur, next_child] = stack.back();
      const auto& kids = nodes[static_cast<size_t>(cur)].children;
      if (next_child < kids.size()) {
        TreeNodeId c = kids[next_child++];
        if (color[static_cast<size_t>(c)] == 1) {
          return Status::CycleDetected("schema tree contains a cycle at '" +
                                       NodeName(c) + "'");
        }
        if (color[static_cast<size_t>(c)] == 0) {
          color[static_cast<size_t>(c)] = 1;
          stack.emplace_back(c, 0);
        }
      } else {
        color[static_cast<size_t>(cur)] = 2;
        st.post_order.push_back(cur);
        stack.pop_back();
      }
    }
  }

  // Leaf sets with relative optionality, bottom-up over st.post_order.
  // A leaf l is optional relative to node v iff every path v->l passes an
  // optional node below v; merging over children:
  //   opt_v(l) = AND over children c reaching l of (c.optional || opt_c(l)).
  st.leaves.assign(n, {});
  for (TreeNodeId v : st.post_order) {
    auto& out = st.leaves[static_cast<size_t>(v)];
    const TreeNode& nv = nodes[static_cast<size_t>(v)];
    if (nv.children.empty()) {
      out.push_back({v, false});
      continue;
    }
    // Concatenate the children's (sorted) leaf lists, sort, and fold runs
    // of the same leaf with AND — the same merge a leaf->optional map
    // would produce, without a hash table per node. Duplicates only exist
    // under shared children (join views / type sharing).
    for (TreeNodeId c : nv.children) {
      bool child_opt = nodes[static_cast<size_t>(c)].optional;
      for (const LeafRef& lr : st.leaves[static_cast<size_t>(c)]) {
        out.push_back({lr.leaf, child_opt || lr.optional});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const LeafRef& a, const LeafRef& b) { return a.leaf < b.leaf; });
    size_t w = 0;
    for (size_t r = 0; r < out.size();) {
      LeafRef folded = out[r];
      for (++r; r < out.size() && out[r].leaf == folded.leaf; ++r) {
        folded.optional = folded.optional && out[r].optional;
      }
      out[w++] = folded;
    }
    out.resize(w);
  }

  // Element -> nodes index.
  st.element_nodes.assign(static_cast<size_t>(schema_->num_elements()), {});
  for (size_t i = 0; i < n; ++i) {
    ElementId e = nodes[i].source;
    if (e != kNoElement) {
      st.element_nodes[static_cast<size_t>(e)].push_back(
          static_cast<TreeNodeId>(i));
    }
  }

  // Context paths, built top-down reusing the parent's string (AddNode
  // links a node under an existing one, so parents have lower ids than
  // their primary children) in O(total path length).
  st.paths.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = NodeName(static_cast<TreeNodeId>(i));
    TreeNodeId p = nodes[i].parent;
    if (p == kNoTreeNode) {
      st.paths[i] = name;
      continue;
    }
    const std::string& prefix = st.paths[static_cast<size_t>(p)];
    st.paths[i].reserve(prefix.size() + 1 + name.size());
    st.paths[i] += prefix;
    st.paths[i] += '.';
    st.paths[i] += name;
  }
  // The first (lowest-id) node wins on duplicate paths.
  st.path_index.clear();
  st.path_index.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    st.path_index.emplace(st.paths[i], static_cast<TreeNodeId>(i));
  }
  return Status::OK();
}

}  // namespace cupid
