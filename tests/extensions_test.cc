// Tests for the future-work extension of annotation similarity.

#include <gtest/gtest.h>

#include "core/cupid_matcher.h"
#include "importers/xml_schema_loader.h"
#include "linguistic/annotations.h"
#include "thesaurus/default_thesaurus.h"

namespace cupid {
namespace {

// ------------------------------------------------------------ annotations --

TEST(AnnotationsTest, VectorBuildingStemsAndFilters) {
  Thesaurus th = DefaultThesaurus();
  AnnotationVector v =
      BuildAnnotationVector("The quantities of the ordered items", th);
  EXPECT_TRUE(v.contains("quantity"));
  EXPECT_TRUE(v.contains("item"));
  EXPECT_FALSE(v.contains("the"));
  EXPECT_FALSE(v.contains("of"));
}

TEST(AnnotationsTest, CosineProperties) {
  Thesaurus th = DefaultThesaurus();
  AnnotationVector a = BuildAnnotationVector("total order value", th);
  AnnotationVector b = BuildAnnotationVector("value total order", th);
  AnnotationVector c = BuildAnnotationVector("shipping street city", th);
  EXPECT_NEAR(AnnotationCosine(a, b), 1.0, 1e-9);  // order-insensitive
  EXPECT_DOUBLE_EQ(AnnotationCosine(a, c), 0.0);
  EXPECT_DOUBLE_EQ(AnnotationCosine(a, AnnotationVector{}), 0.0);
  double partial = AnnotationSimilarity("total order value",
                                        "order grand total", th);
  EXPECT_GT(partial, 0.3);
  EXPECT_LT(partial, 1.0);
}

TEST(AnnotationsTest, DocumentationDisambiguatesEqualNames) {
  // Two "Code" leaves; documentation decides which side matches which.
  auto s1 = LoadXmlSchema(R"(
<schema name="A">
  <element name="Box">
    <attribute name="Code" type="string" doc="postal routing code of the delivery address"/>
    <attribute name="Kode" type="string" doc="internal product identifier code"/>
  </element>
</schema>)");
  auto s2 = LoadXmlSchema(R"(
<schema name="B">
  <element name="Box">
    <attribute name="Code" type="string" doc="identifier code of the product"/>
  </element>
</schema>)");
  ASSERT_TRUE(s1.ok() && s2.ok());

  Thesaurus th = DefaultThesaurus();
  CupidConfig with;
  with.linguistic.annotation_weight = 0.5;
  CupidConfig without;
  without.linguistic.annotation_weight = 0.0;

  CupidMatcher m_with(&th, with);
  CupidMatcher m_without(&th, without);
  auto r_with = m_with.Match(*s1, *s2);
  auto r_without = m_without.Match(*s1, *s2);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());

  // With annotations, the product-identifier doc pulls Kode up and pushes
  // the (name-identical but doc-dissimilar) Code down.
  double kode_with = r_with->WsimByPath("A.Box.Kode", "B.Box.Code");
  double kode_without = r_without->WsimByPath("A.Box.Kode", "B.Box.Code");
  EXPECT_GT(kode_with, kode_without);
  double code_with = r_with->WsimByPath("A.Box.Code", "B.Box.Code");
  double code_without = r_without->WsimByPath("A.Box.Code", "B.Box.Code");
  EXPECT_LT(code_with, code_without);
}

TEST(AnnotationsTest, WeightZeroIsNoOp) {
  auto s1 = LoadXmlSchema(
      "<schema name=\"A\"><element name=\"T\">"
      "<attribute name=\"x\" type=\"int\" doc=\"alpha beta\"/>"
      "</element></schema>");
  auto s2 = LoadXmlSchema(
      "<schema name=\"B\"><element name=\"T\">"
      "<attribute name=\"x\" type=\"int\" doc=\"alpha beta\"/>"
      "</element></schema>");
  ASSERT_TRUE(s1.ok() && s2.ok());
  Thesaurus th = DefaultThesaurus();
  // weight 0 with docs present == docs absent with any weight: the
  // annotation path must not perturb lsim at all.
  CupidConfig off;
  off.linguistic.annotation_weight = 0.0;
  CupidMatcher m_off(&th, off);
  auto r_off = m_off.Match(*s1, *s2);
  ASSERT_TRUE(r_off.ok());

  Schema s1_nodoc = *s1;
  Schema s2_nodoc = *s2;
  s1_nodoc.mutable_element(s1_nodoc.FindByPath("A.T.x"))->documentation = "";
  s2_nodoc.mutable_element(s2_nodoc.FindByPath("B.T.x"))->documentation = "";
  CupidConfig on;
  on.linguistic.annotation_weight = 0.5;
  CupidMatcher m_on(&th, on);
  auto r_nodoc = m_on.Match(s1_nodoc, s2_nodoc);
  ASSERT_TRUE(r_nodoc.ok());

  EXPECT_DOUBLE_EQ(r_off->WsimByPath("A.T.x", "B.T.x"),
                   r_nodoc->WsimByPath("A.T.x", "B.T.x"));
  EXPECT_GT(r_off->WsimByPath("A.T.x", "B.T.x"), 0.8);
}

TEST(AnnotationsTest, InvalidWeightRejected) {
  Thesaurus th;
  CupidConfig bad;
  bad.linguistic.annotation_weight = 1.5;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  CupidMatcher m(&th, bad);
  Schema a("A"), b("B");
  EXPECT_TRUE(m.Match(a, b).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cupid
