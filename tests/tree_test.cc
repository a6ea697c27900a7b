// Tests for schema-tree construction (src/tree): type substitution,
// context-dependent expansion, cycle detection, leaf caching, optionality,
// join-view augmentation and duplicate-subtree analysis.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "schema/schema_builder.h"
#include "tree/lazy_expansion.h"
#include "tree/schema_tree.h"
#include "tree/tree_builder.h"

namespace cupid {
namespace {

TreeNodeId FindNode(const SchemaTree& t, const std::string& path) {
  for (TreeNodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.PathName(n) == path) return n;
  }
  return kNoTreeNode;
}

TEST(TreeBuilderTest, SimpleHierarchy) {
  XmlSchemaBuilder b("S");
  ElementId a = b.AddElement(b.root(), "A");
  b.AddAttribute(a, "x", DataType::kInteger);
  b.AddAttribute(a, "y", DataType::kString);
  Schema s = std::move(b).Build();

  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_nodes(), 4);  // root, A, x, y
  TreeNodeId x = FindNode(*tree, "S.A.x");
  ASSERT_NE(x, kNoTreeNode);
  EXPECT_TRUE(tree->IsLeaf(x));
  EXPECT_EQ(tree->Depth(x), 2);
  EXPECT_EQ(tree->leaves(tree->root()).size(), 2u);
}

TEST(TreeBuilderTest, TypeSubstitutionCreatesContextCopies) {
  // Section 8.2: shared Address referenced from DeliverTo and InvoiceTo is
  // materialized once per context.
  XmlSchemaBuilder b("S");
  ElementId addr_type = b.AddComplexType("AddressType");
  ElementId street = b.AddAttribute(addr_type, "Street", DataType::kString);
  ElementId deliver = b.AddElement(b.root(), "DeliverTo");
  b.SetType(deliver, addr_type);
  ElementId invoice = b.AddElement(b.root(), "InvoiceTo");
  b.SetType(invoice, addr_type);
  Schema s = std::move(b).Build();

  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(FindNode(*tree, "S.DeliverTo.Street"), kNoTreeNode);
  EXPECT_NE(FindNode(*tree, "S.InvoiceTo.Street"), kNoTreeNode);
  // The Street ELEMENT materializes twice; the type itself has no node.
  EXPECT_EQ(tree->nodes_for_element(street).size(), 2u);
  EXPECT_TRUE(tree->nodes_for_element(addr_type).empty());
}

TEST(TreeBuilderTest, NotInstantiatedElementsSkipped) {
  RelationalSchemaBuilder b("S");
  ElementId t = b.AddTable("T");
  ElementId c = b.AddColumn(t, "id", DataType::kInteger);
  ElementId pk = b.SetPrimaryKey(t, {c});
  Schema s = std::move(b).Build();
  TreeBuildOptions opts;
  opts.expand_join_views = false;
  auto tree = BuildSchemaTree(s, opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->nodes_for_element(pk).empty());
  EXPECT_EQ(tree->num_nodes(), 3);  // root, T, id
}

TEST(TreeBuilderTest, RecursiveTypeIsCycleDetected) {
  // A type that contains an element typed by itself (recursive definition).
  XmlSchemaBuilder b("S");
  ElementId node_type = b.AddComplexType("TreeNode");
  ElementId child = b.AddElement(node_type, "Child");
  b.SetType(child, node_type);
  ElementId root_el = b.AddElement(b.root(), "Root");
  b.SetType(root_el, node_type);
  Schema s = std::move(b).Build();

  auto tree = BuildSchemaTree(s);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCycleDetected());
}

TEST(TreeBuilderTest, DiamondSharingIsNotACycle) {
  // Two elements using the same type is sharing, not recursion.
  XmlSchemaBuilder b("S");
  ElementId shared = b.AddComplexType("Shared");
  b.AddAttribute(shared, "v", DataType::kInteger);
  ElementId a = b.AddElement(b.root(), "A");
  ElementId c = b.AddElement(b.root(), "B");
  b.SetType(a, shared);
  b.SetType(c, shared);
  Schema s = std::move(b).Build();
  EXPECT_TRUE(BuildSchemaTree(s).ok());
}

TEST(TreeBuilderTest, OptionalityRelativeToAncestors) {
  XmlSchemaBuilder b("S");
  ElementId a = b.AddElement(b.root(), "A", /*optional=*/true);
  ElementId req = b.AddAttribute(a, "r", DataType::kString, false);
  ElementId opt = b.AddAttribute(a, "o", DataType::kString, true);
  (void)req;
  (void)opt;
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());

  TreeNodeId a_node = FindNode(*tree, "S.A");
  TreeNodeId root = tree->root();
  // Relative to A: r is required, o is optional.
  std::set<std::pair<std::string, bool>> rel_a;
  for (const LeafRef& lr : tree->leaves(a_node)) {
    rel_a.insert({tree->NodeName(lr.leaf), lr.optional});
  }
  EXPECT_TRUE(rel_a.count({"r", false}));
  EXPECT_TRUE(rel_a.count({"o", true}));
  // Relative to the root, even r is optional (A itself is optional).
  std::set<std::pair<std::string, bool>> rel_root;
  for (const LeafRef& lr : tree->leaves(root)) {
    rel_root.insert({tree->NodeName(lr.leaf), lr.optional});
  }
  EXPECT_TRUE(rel_root.count({"r", true}));
  EXPECT_TRUE(rel_root.count({"o", true}));
}

TEST(TreeBuilderTest, PostOrderVisitsChildrenFirst) {
  XmlSchemaBuilder b("S");
  ElementId a = b.AddElement(b.root(), "A");
  b.AddAttribute(a, "x", DataType::kInteger);
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  std::vector<int> position(static_cast<size_t>(tree->num_nodes()));
  const auto& order = tree->post_order();
  EXPECT_EQ(order.size(), static_cast<size_t>(tree->num_nodes()));
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (TreeNodeId n = 0; n < tree->num_nodes(); ++n) {
    for (TreeNodeId c : tree->node(n).children) {
      EXPECT_LT(position[static_cast<size_t>(c)],
                position[static_cast<size_t>(n)]);
    }
  }
}

// -------------------------------------------------------------- join views --

TEST(JoinViewTest, ForeignKeyBecomesJoinNode) {
  RelationalSchemaBuilder b("RDB");
  ElementId customers = b.AddTable("Customers");
  ElementId cid = b.AddColumn(customers, "CustomerID", DataType::kInteger);
  b.SetPrimaryKey(customers, {cid});
  b.AddColumn(customers, "Name", DataType::kString);
  ElementId orders = b.AddTable("Orders");
  ElementId oid = b.AddColumn(orders, "OrderID", DataType::kInteger);
  b.SetPrimaryKey(orders, {oid});
  ElementId fk_col = b.AddColumn(orders, "CustomerID", DataType::kInteger);
  b.AddForeignKey("Orders_Customers_fk", orders, {fk_col}, customers);
  Schema s = std::move(b).Build();

  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  TreeNodeId join = FindNode(*tree, "RDB.Orders_Customers_fk");
  ASSERT_NE(join, kNoTreeNode);
  EXPECT_TRUE(tree->node(join).is_join_view);
  // Children: columns of both tables (2 from Orders + 2 from Customers),
  // shared with the table nodes (DAG).
  EXPECT_EQ(tree->node(join).children.size(), 4u);
  for (TreeNodeId c : tree->node(join).children) {
    EXPECT_NE(tree->node(c).parent, join);  // primary parent is the table
  }
  // Leaves are deduplicated across the DAG.
  EXPECT_EQ(tree->leaves(join).size(), 4u);
  EXPECT_EQ(tree->leaves(tree->root()).size(), 4u);
}

TEST(JoinViewTest, DisabledByOption) {
  RelationalSchemaBuilder b("RDB");
  ElementId a = b.AddTable("A");
  ElementId ac = b.AddColumn(a, "bid", DataType::kInteger);
  ElementId t2 = b.AddTable("B");
  ElementId bc = b.AddColumn(t2, "id", DataType::kInteger);
  b.SetPrimaryKey(t2, {bc});
  b.AddForeignKey("A_B_fk", a, {ac}, t2);
  Schema s = std::move(b).Build();
  TreeBuildOptions opts;
  opts.expand_join_views = false;
  auto tree = BuildSchemaTree(s, opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(FindNode(*tree, "RDB.A_B_fk"), kNoTreeNode);
}

TEST(JoinViewTest, ViewNodeGetsSharedChildren) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("T");
  ElementId c1 = b.AddColumn(t, "a", DataType::kInteger);
  ElementId c2 = b.AddColumn(t, "b", DataType::kString);
  b.AddView("V", {c1, c2});
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  TreeNodeId v = FindNode(*tree, "RDB.V");
  ASSERT_NE(v, kNoTreeNode);
  EXPECT_EQ(tree->node(v).children.size(), 2u);
  EXPECT_TRUE(tree->node(v).is_join_view);
}

// -------------------------------------------------------------- duplicates --

TEST(LazyExpansionTest, AlignsTypeCopies) {
  XmlSchemaBuilder b("S");
  ElementId addr_type = b.AddComplexType("AddressType");
  b.AddAttribute(addr_type, "Street", DataType::kString);
  b.AddAttribute(addr_type, "City", DataType::kString);
  ElementId d1 = b.AddElement(b.root(), "DeliverTo");
  ElementId a1 = b.AddElement(d1, "Address");
  b.SetType(a1, addr_type);
  ElementId d2 = b.AddElement(b.root(), "InvoiceTo");
  ElementId a2 = b.AddElement(d2, "Address");
  b.SetType(a2, addr_type);
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());

  DuplicateInfo dup = AnalyzeDuplicates(*tree);
  EXPECT_TRUE(dup.has_duplicates);
  TreeNodeId street1 = FindNode(*tree, "S.DeliverTo.Address.Street");
  TreeNodeId street2 = FindNode(*tree, "S.InvoiceTo.Address.Street");
  ASSERT_NE(street1, kNoTreeNode);
  ASSERT_NE(street2, kNoTreeNode);
  // Later copy aligns to the first instance.
  EXPECT_EQ(dup.canon(street2), street1);
  EXPECT_EQ(dup.canon(street1), street1);
  EXPECT_TRUE(dup.is_copy(street2));
  EXPECT_FALSE(dup.is_copy(street1));
}

TEST(LazyExpansionTest, NoDuplicatesInPlainTree) {
  XmlSchemaBuilder b("S");
  ElementId a = b.AddElement(b.root(), "A");
  b.AddAttribute(a, "x", DataType::kInteger);
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  DuplicateInfo dup = AnalyzeDuplicates(*tree);
  EXPECT_FALSE(dup.has_duplicates);
  for (TreeNodeId n = 0; n < tree->num_nodes(); ++n) {
    EXPECT_EQ(dup.canon(n), n);
  }
}

TEST(LazyExpansionTest, ThreeContextsAllAlignToFirst) {
  XmlSchemaBuilder b("S");
  ElementId t = b.AddComplexType("T");
  ElementId leaf = b.AddAttribute(t, "v", DataType::kInteger);
  for (const char* ctx : {"A", "B", "C"}) {
    ElementId e = b.AddElement(b.root(), ctx);
    b.SetType(e, t);
  }
  Schema s = std::move(b).Build();
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  DuplicateInfo dup = AnalyzeDuplicates(*tree);
  const auto& instances = tree->nodes_for_element(leaf);
  ASSERT_EQ(instances.size(), 3u);
  EXPECT_EQ(dup.canon(instances[1]), instances[0]);
  EXPECT_EQ(dup.canon(instances[2]), instances[0]);
}

// A copy owns its paths and path index: with the original destroyed, every
// node's path and path lookup must still resolve on the copy (the sanitizer
// builds catch any view left pointing into the original's strings).
TEST(SchemaTreeTest, CopyOutlivesOriginal) {
  // A shared type expanded in two contexts, same-named siblings (duplicate
  // paths) and a name too long for the small-string buffer.
  XmlSchemaBuilder b("S");
  ElementId address = b.AddComplexType("Address");
  b.AddAttribute(address, "street", DataType::kString);
  b.AddAttribute(address, "city", DataType::kString);
  ASSERT_TRUE(b.SetType(b.AddElement(b.root(), "BillTo"), address).ok());
  ASSERT_TRUE(b.SetType(b.AddElement(b.root(), "ShipTo"), address).ok());
  b.AddAttribute(b.root(), "Note", DataType::kString);
  b.AddAttribute(b.root(), "Note", DataType::kString);
  b.AddAttribute(b.root(), "averyveryverylongattributenamepastsso",
                 DataType::kInteger);
  Schema s = std::move(b).Build();

  auto original = std::make_unique<SchemaTree>(&s);
  {
    auto built = BuildSchemaTree(s);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    *original = std::move(*built);
  }
  std::vector<std::string> paths;
  for (TreeNodeId n = 0; n < original->num_nodes(); ++n) {
    paths.push_back(original->PathName(n));
  }
  SchemaTree copy(*original);
  SchemaTree assigned(&s);
  assigned = *original;
  original.reset();
  for (const SchemaTree* t : {&copy, &assigned}) {
    ASSERT_EQ(t->num_nodes(), static_cast<int64_t>(paths.size()));
    for (TreeNodeId n = 0; n < t->num_nodes(); ++n) {
      EXPECT_EQ(t->PathName(n), paths[static_cast<size_t>(n)]);
      // Duplicate paths resolve to their lowest id; every path resolves
      // to a node carrying it.
      TreeNodeId found = t->FindNodeByPath(paths[static_cast<size_t>(n)]);
      ASSERT_NE(found, kNoTreeNode) << paths[static_cast<size_t>(n)];
      EXPECT_LE(found, n);
      EXPECT_EQ(t->PathName(found), paths[static_cast<size_t>(n)]);
    }
  }
  EXPECT_NE(copy.FindNodeByPath("S.ShipTo.city"), kNoTreeNode);
  EXPECT_EQ(copy.FindNodeByPath("S.Nowhere"), kNoTreeNode);
}

}  // namespace
}  // namespace cupid
