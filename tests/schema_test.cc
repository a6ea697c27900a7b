// Tests for the generic schema model (src/schema).

#include <gtest/gtest.h>

#include "eval/datasets.h"
#include "schema/data_type.h"
#include "schema/schema.h"
#include "schema/schema_builder.h"
#include "schema/schema_printer.h"

namespace cupid {
namespace {

// ------------------------------------------------------------- DataType --

TEST(DataTypeTest, TypeClassBuckets) {
  EXPECT_EQ(TypeClassOf(DataType::kString), TypeClass::kText);
  EXPECT_EQ(TypeClassOf(DataType::kInteger), TypeClass::kNumber);
  EXPECT_EQ(TypeClassOf(DataType::kDecimal), TypeClass::kNumber);
  EXPECT_EQ(TypeClassOf(DataType::kMoney), TypeClass::kNumber);
  EXPECT_EQ(TypeClassOf(DataType::kDate), TypeClass::kTemporal);
  EXPECT_EQ(TypeClassOf(DataType::kBoolean), TypeClass::kBoolean);
  EXPECT_EQ(TypeClassOf(DataType::kComplex), TypeClass::kComplex);
  EXPECT_EQ(TypeClassOf(DataType::kUnknown), TypeClass::kUnknown);
}

TEST(DataTypeTest, ParseSqlNames) {
  EXPECT_EQ(*DataTypeFromName("VARCHAR(30)"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("int"), DataType::kInteger);
  EXPECT_EQ(*DataTypeFromName("NUMERIC"), DataType::kDecimal);
  EXPECT_EQ(*DataTypeFromName("timestamp"), DataType::kDateTime);
  EXPECT_EQ(*DataTypeFromName("double precision"), DataType::kDouble);
  EXPECT_EQ(*DataTypeFromName("MONEY"), DataType::kMoney);
}

TEST(DataTypeTest, ParseXsdNames) {
  EXPECT_EQ(*DataTypeFromName("xs:string"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("xs:int"), DataType::kInteger);
  EXPECT_EQ(*DataTypeFromName("xsd:date"), DataType::kDate);
}

TEST(DataTypeTest, ParseRejectsGarbage) {
  EXPECT_TRUE(DataTypeFromName("frobnicator").status().IsParseError());
  EXPECT_TRUE(DataTypeFromName("").status().IsParseError());
}

TEST(DataTypeTest, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(DataType::kAny); ++i) {
    DataType t = static_cast<DataType>(i);
    EXPECT_EQ(*DataTypeFromName(DataTypeName(t)), t) << DataTypeName(t);
  }
}

// --------------------------------------------------------------- Schema --

TEST(SchemaTest, RootIsCreatedByConstructor) {
  Schema s("MySchema");
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_EQ(s.name(), "MySchema");
  EXPECT_EQ(s.element(s.root()).kind, ElementKind::kRoot);
  EXPECT_EQ(s.parent(s.root()), kNoElement);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SchemaTest, ContainmentStructure) {
  Schema s("S");
  Element table;
  table.name = "Orders";
  table.kind = ElementKind::kContainer;
  ElementId t = s.AddElement(table, s.root());
  Element col;
  col.name = "OrderID";
  col.kind = ElementKind::kAtomic;
  col.data_type = DataType::kInteger;
  ElementId c = s.AddElement(col, t);

  EXPECT_EQ(s.parent(c), t);
  EXPECT_EQ(s.parent(t), s.root());
  ASSERT_EQ(s.children(t).size(), 1u);
  EXPECT_EQ(s.children(t)[0], c);
  EXPECT_TRUE(s.IsLeaf(c));
  EXPECT_FALSE(s.IsLeaf(t));
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SchemaTest, PathNames) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("Orders");
  ElementId c = b.AddColumn(t, "OrderID", DataType::kInteger);
  const Schema& s = b.schema();
  EXPECT_EQ(s.PathName(c), "RDB.Orders.OrderID");
  EXPECT_EQ(s.PathName(s.root()), "RDB");
}

TEST(SchemaTest, FindByPath) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("Orders");
  ElementId c = b.AddColumn(t, "OrderID", DataType::kInteger);
  const Schema& s = b.schema();
  EXPECT_EQ(s.FindByPath("RDB.Orders.OrderID"), c);
  EXPECT_EQ(s.FindByPath("RDB.Orders"), t);
  EXPECT_EQ(s.FindByPath("RDB"), s.root());
  EXPECT_EQ(s.FindByPath("RDB.Nope"), kNoElement);
  EXPECT_EQ(s.FindByPath("Wrong.Orders"), kNoElement);
  EXPECT_EQ(s.FindByPath(""), kNoElement);
}

TEST(SchemaTest, FindByPathInvertsPathNameOnShippedDatasets) {
  // PathName names a shared type's members from the parentless type
  // ("AddressType.Street"), so FindByPath must start there too.
  std::vector<Schema> schemas = {Fig2Po(), Fig2PurchaseOrder()};
  for (int test = 1; test <= 6; ++test) {
    Dataset d = CanonicalExample(test).ValueOrDie();
    schemas.push_back(std::move(d.source));
    schemas.push_back(std::move(d.target));
  }
  for (auto* load : {&CidxSchema, &ExcelSchema, &RdbSchema, &StarSchema}) {
    schemas.push_back(load().ValueOrDie());
  }
  for (const Schema& s : schemas) {
    for (ElementId e = 0; e < s.num_elements(); ++e) {
      const std::string path = s.PathName(e);
      const ElementId found = s.FindByPath(path);
      ASSERT_NE(found, kNoElement) << s.name() << ": " << path;
      EXPECT_EQ(s.PathName(found), path) << s.name();
    }
  }
  const Schema po = Fig2PurchaseOrder();
  const ElementId street = po.FindByPath("AddressType.Street");
  ASSERT_NE(street, kNoElement);
  EXPECT_EQ(po.parent(po.parent(street)), kNoElement);
}

TEST(SchemaTest, FindByName) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("Orders");
  const Schema& s = b.schema();
  EXPECT_EQ(s.FindByName("Orders"), t);
  EXPECT_EQ(s.FindByName("Nope"), kNoElement);
}

TEST(SchemaTest, EdgesValidated) {
  Schema s("S");
  EXPECT_TRUE(s.AddIsDerivedFrom(0, 99).IsInvalidArgument());
  EXPECT_TRUE(s.AddAggregation(99, 0).IsInvalidArgument());
  EXPECT_TRUE(s.AddReference(0, -5).IsInvalidArgument());
}

TEST(SchemaTest, ElementsOfKind) {
  RelationalSchemaBuilder b("RDB");
  ElementId t1 = b.AddTable("A");
  b.AddTable("B");
  ElementId c = b.AddColumn(t1, "x", DataType::kInteger);
  b.SetPrimaryKey(t1, {c});
  const Schema& s = b.schema();
  EXPECT_EQ(s.ElementsOfKind(ElementKind::kContainer).size(), 2u);
  EXPECT_EQ(s.ElementsOfKind(ElementKind::kKey).size(), 1u);
  EXPECT_EQ(s.ElementsOfKind(ElementKind::kAtomic).size(), 1u);
}

// ------------------------------------------------ RelationalSchemaBuilder --

TEST(RelationalBuilderTest, PrimaryKeyAggregatesColumns) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("Orders");
  ElementId c1 = b.AddColumn(t, "OrderID", DataType::kInteger);
  ElementId c2 = b.AddColumn(t, "LineNo", DataType::kInteger);
  ElementId pk = b.SetPrimaryKey(t, {c1, c2});
  const Schema& s = b.schema();
  EXPECT_EQ(s.element(pk).kind, ElementKind::kKey);
  EXPECT_TRUE(s.element(pk).not_instantiated);
  EXPECT_EQ(s.aggregates(pk).size(), 2u);
  EXPECT_TRUE(s.element(c1).is_key);
  EXPECT_TRUE(s.element(c2).is_key);
  EXPECT_EQ(b.primary_key(t), pk);
}

TEST(RelationalBuilderTest, ForeignKeyReferencesTargetKey) {
  RelationalSchemaBuilder b("RDB");
  ElementId customers = b.AddTable("Customers");
  ElementId cust_id = b.AddColumn(customers, "CustomerID", DataType::kInteger);
  ElementId cust_pk = b.SetPrimaryKey(customers, {cust_id});
  ElementId orders = b.AddTable("Orders");
  ElementId fk_col = b.AddColumn(orders, "CustomerID", DataType::kInteger);
  ElementId fk = b.AddForeignKey("Orders_Customers_fk", orders, {fk_col},
                                 customers);
  const Schema& s = b.schema();
  EXPECT_EQ(s.element(fk).kind, ElementKind::kRefInt);
  ASSERT_EQ(s.references(fk).size(), 1u);
  EXPECT_EQ(s.references(fk)[0], cust_pk);
  ASSERT_EQ(s.aggregates(fk).size(), 1u);
  EXPECT_EQ(s.aggregates(fk)[0], fk_col);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(RelationalBuilderTest, ForeignKeyWithoutTargetKeyReferencesTable) {
  RelationalSchemaBuilder b("RDB");
  ElementId a = b.AddTable("A");
  ElementId col = b.AddColumn(a, "bid", DataType::kInteger);
  ElementId target = b.AddTable("B");  // no PK declared
  ElementId fk = b.AddForeignKey("A_B_fk", a, {col}, target);
  EXPECT_EQ(b.schema().references(fk)[0], target);
}

TEST(RelationalBuilderTest, ViewAggregatesColumns) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("T");
  ElementId c1 = b.AddColumn(t, "a", DataType::kInteger);
  ElementId c2 = b.AddColumn(t, "b", DataType::kString);
  ElementId v = b.AddView("V", {c1, c2});
  const Schema& s = b.schema();
  EXPECT_EQ(s.element(v).kind, ElementKind::kView);
  EXPECT_EQ(s.aggregates(v).size(), 2u);
}

// ------------------------------------------------------ XmlSchemaBuilder --

TEST(XmlBuilderTest, SharedComplexType) {
  XmlSchemaBuilder b("X");
  ElementId addr_type = b.AddComplexType("Address");
  b.AddAttribute(addr_type, "Street", DataType::kString);
  ElementId ship = b.AddElement(b.root(), "ShipTo");
  ASSERT_TRUE(b.SetType(ship, addr_type).ok());
  const Schema& s = b.schema();
  EXPECT_EQ(s.parent(addr_type), kNoElement);
  ASSERT_EQ(s.derived_from(ship).size(), 1u);
  EXPECT_EQ(s.derived_from(ship)[0], addr_type);
  // ShipTo is not a leaf: it has an IsDerivedFrom target.
  EXPECT_FALSE(s.IsLeaf(ship));
  EXPECT_TRUE(s.Validate().ok());
}

TEST(XmlBuilderTest, SetTypeRejectsNonTypeTarget) {
  XmlSchemaBuilder b("X");
  ElementId e1 = b.AddElement(b.root(), "A");
  ElementId e2 = b.AddElement(b.root(), "B");
  EXPECT_TRUE(b.SetType(e1, e2).IsInvalidArgument());
}

TEST(XmlBuilderTest, OptionalPropagatesToElement) {
  XmlSchemaBuilder b("X");
  ElementId e = b.AddElement(b.root(), "A", /*optional=*/true);
  ElementId a = b.AddAttribute(e, "x", DataType::kString, /*optional=*/true);
  EXPECT_TRUE(b.schema().element(e).optional);
  EXPECT_TRUE(b.schema().element(a).optional);
}

// --------------------------------------------------------------- Printer --

TEST(SchemaPrinterTest, RendersTreeAndEdges) {
  RelationalSchemaBuilder b("RDB");
  ElementId t = b.AddTable("Orders");
  ElementId c = b.AddColumn(t, "OrderID", DataType::kInteger);
  b.SetPrimaryKey(t, {c});
  std::string tree = PrintSchema(b.schema());
  EXPECT_NE(tree.find("RDB [Root]"), std::string::npos);
  EXPECT_NE(tree.find("  Orders [Container]"), std::string::npos);
  EXPECT_NE(tree.find("    OrderID [Atomic integer key]"), std::string::npos);
  std::string edges = PrintSchemaEdges(b.schema());
  EXPECT_NE(edges.find("Orders_pk -Aggregates-> OrderID"), std::string::npos);
}

}  // namespace
}  // namespace cupid
