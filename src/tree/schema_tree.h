// The expanded schema tree (Sections 8.2-8.3 of the paper).
//
// Structure matching runs on a per-context expansion of the schema graph:
// every path of containment/IsDerivedFrom relationships from the root to an
// element materializes one *tree node*, so a shared type referenced from two
// places appears twice, enabling context-dependent mappings.
//
// Join-view augmentation (Section 8.3) adds nodes whose children are the
// *shared* column nodes of the joined tables, which turns the structure into
// a DAG — the paper calls this out explicitly ("The additional join view
// nodes create a directed acyclic graph (DAG) of schema paths"). Nodes
// therefore may have multiple parents; `parent` stores the primary
// (containment) parent used for path names.

#ifndef CUPID_TREE_SCHEMA_TREE_H_
#define CUPID_TREE_SCHEMA_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schema/schema.h"
#include "util/status.h"

namespace cupid {

/// Index of a node within its SchemaTree.
using TreeNodeId = int32_t;

inline constexpr TreeNodeId kNoTreeNode = -1;

/// A leaf reachable from some node, with its optionality *relative to that
/// node*: optional iff every path from the node to the leaf passes through
/// at least one optional node (Section 8.4 "Optionality").
struct LeafRef {
  TreeNodeId leaf;
  bool optional;

  bool operator==(const LeafRef& o) const {
    return leaf == o.leaf && optional == o.optional;
  }
};

/// One node of the expanded schema tree/DAG.
struct TreeNode {
  /// Element of the underlying schema this node materializes; kNoElement for
  /// synthesized nodes (join views have their RefInt element as source).
  ElementId source = kNoElement;
  /// Primary (containment) parent; kNoTreeNode for the root.
  TreeNodeId parent = kNoTreeNode;
  std::vector<TreeNodeId> children;
  /// Node itself is optional in its context.
  bool optional = false;
  /// Synthesized join-view node (Section 8.3) or view node (Section 8.4).
  bool is_join_view = false;
};

/// \brief Expanded schema tree with cached leaf sets and traversal orders.
///
/// Built by BuildSchemaTree (tree/tree_builder.h); immutable afterwards.
/// The built state sits behind one shared pointer, so a copy is cheap and
/// shares it: a schema version's artifact (core/match_pipeline.h) and every
/// MatchResult over that version read one tree. References handed out
/// (PathName, leaves, ...) stay valid while any copy lives.
class SchemaTree {
 public:
  SchemaTree(const Schema* schema)  // NOLINT
      : schema_(schema), state_(std::make_shared<State>()) {}

  const Schema& schema() const { return *schema_; }

  TreeNodeId root() const { return 0; }
  int64_t num_nodes() const {
    return static_cast<int64_t>(state_->nodes.size());
  }
  const TreeNode& node(TreeNodeId id) const {
    return state_->nodes[static_cast<size_t>(id)];
  }
  TreeNode* mutable_node(TreeNodeId id) {
    return &state_->nodes[static_cast<size_t>(id)];
  }

  bool IsLeaf(TreeNodeId id) const { return node(id).children.empty(); }

  /// Leaves of the subtree rooted at `id` (id itself when a leaf), with
  /// per-leaf optionality relative to `id`. Deduplicated (DAG-safe).
  const std::vector<LeafRef>& leaves(TreeNodeId id) const {
    return state_->leaves[static_cast<size_t>(id)];
  }

  /// \brief Inverse-topological enumeration of all nodes: every node appears
  /// after all of its children. Equals post-order for pure trees.
  const std::vector<TreeNodeId>& post_order() const {
    return state_->post_order;
  }

  /// Tree nodes materializing schema element `e` (one per context).
  const std::vector<TreeNodeId>& nodes_for_element(ElementId e) const {
    return state_->element_nodes[static_cast<size_t>(e)];
  }

  /// \brief Dotted context path, e.g.
  /// "PurchaseOrder.DeliverTo.Address.Street", stored by Finalize (O(1)).
  const std::string& PathName(TreeNodeId id) const {
    return state_->paths[static_cast<size_t>(id)];
  }

  /// \brief Node whose dotted context path equals `path`; kNoTreeNode when
  /// absent. Hashed lookup over the index built by Finalize. When the DAG
  /// yields duplicate paths the lowest node id wins (the answer a linear
  /// scan in id order would give).
  TreeNodeId FindNodeByPath(std::string_view path) const {
    auto it = state_->path_index.find(path);
    return it == state_->path_index.end() ? kNoTreeNode : it->second;
  }

  /// Source element name of `id` (join views use their RefInt name).
  const std::string& NodeName(TreeNodeId id) const {
    return schema_->element(node(id).source).name;
  }

  /// Depth of `id` along primary parents (root = 0).
  int Depth(TreeNodeId id) const;

  // -- Construction interface (used by tree_builder / join_view) ------------
  // Only on a tree no copy has been taken of: copies share the state.

  /// Appends a node; links it under `parent` (primary). Returns its id.
  TreeNodeId AddNode(ElementId source, TreeNodeId parent, bool optional);

  /// Adds `child` as an additional (non-primary) child of `parent`; used by
  /// join-view augmentation, creating the DAG.
  void AddSharedChild(TreeNodeId parent, TreeNodeId child);

  /// \brief Recomputes leaves_, post_order_, element_nodes_ and the context
  /// paths. Must be called after all nodes/edges are added. Fails on
  /// malformed structure.
  Status Finalize();

 private:
  struct State {
    std::vector<TreeNode> nodes;
    std::vector<std::vector<LeafRef>> leaves;
    std::vector<TreeNodeId> post_order;
    std::vector<std::vector<TreeNodeId>> element_nodes;
    /// Context path per node; path_index's keys view these strings.
    std::vector<std::string> paths;
    std::unordered_map<std::string_view, TreeNodeId> path_index;
  };

  const Schema* schema_;
  std::shared_ptr<State> state_;
};

}  // namespace cupid

#endif  // CUPID_TREE_SCHEMA_TREE_H_
